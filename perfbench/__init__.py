"""The repository benchmark: end-to-end and per-layer host performance.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` measures one workload (see :mod:`perfbench.workloads`)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` at the
repository root names the workloads and metrics and fixes each
end-to-end metric's regression bound.

Every repetition runs in a fresh interpreter (:mod:`perfbench.rep`), so
set-up time includes the imports and peak RSS belongs to that
repetition alone.  With ``--trace 0`` the repetitions are timed from
the outside only.  With ``--trace 1`` a separate run wraps the calls
into each layer of the program at class or module level
(:mod:`perfbench.tracer`) and reports per-layer counts and self times;
no source file of the program is edited.
"""
