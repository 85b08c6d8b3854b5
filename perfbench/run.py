"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-churn --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics, and with
``--table`` it also prints them as a table sorted by self time.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

A fleet workload runs each cell of its ensemble once, in order, each
in a fresh process, then keeps repeating cells from the first one
until ``--seconds`` have passed, and repeats at least one cell so its
payload digest can be compared.  A sweep workload repeats its one grid
until ``--seconds`` have passed, at least three times.  Each metric is
the median over cells of the per-cell median over repetitions.  The
traced run makes one repetition per cell and sums the layers over
them.

The run exits 2 without a result when the program's source is missing,
and 3 when a traced boundary no longer exists in the program.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

#: a run must finish within this many seconds
HARD_LIMIT_S = 170.0
MIN_SWEEP_REPS = 3


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def run_rep(args: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """One repetition in a fresh process group, killed (with any pool
    workers it started) if it outlives ``deadline``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.rep", json.dumps(args)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition {args} timed out") from None
    finally:
        # pool workers left behind by a crashed repetition
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode == 3:
        sys.stderr.write(err)
        sys.exit(3)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition {args} exited {proc.returncode}:\n"
                        f"{err.strip()}")
    return json.loads(lines[-1])


def schedule(workload, seconds: float, trace: bool):
    """Yield cell indices to run: every cell once, then (untraced)
    repeats from cell 0 while time remains, at least one repeat."""
    start = time.monotonic()
    cells = workload.cells if workload.kind == "fleet" else 1
    minimum = cells if trace else (
        cells + 1 if workload.kind == "fleet" else MIN_SWEEP_REPS)
    done = 0
    while done < minimum or (
            not trace and time.monotonic() - start < seconds):
        yield done % cells
        done += 1


def print_table(raw: Dict[str, Any]) -> None:
    """Per-layer self times of a (merged) raw trace, largest first."""
    values = tracing.layer_metrics(raw)
    wall = values["trace.wall_s"]
    rows = [(self_s, span, int(calls))
            for span, (calls, self_s) in raw["spans"].items()]
    rows.append((values["trace.unattributed_s"], "(unattributed)", ""))
    rows.sort(key=lambda row: -row[0])
    print(f"{'layer':<36} {'self_s':>10} {'share':>7} {'spans':>10}")
    for self_s, name, calls in rows:
        share = self_s / wall if wall else 0.0
        print(f"{name:<36} {self_s:>10.4f} {share:>7.1%} {calls!s:>10}")
    print(f"{'traced wall time':<36} {wall:>10.4f}   estimated tracing "
          f"overhead {values['trace.overhead_frac']:.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="with --trace 1: print the per-layer table")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.table and not args.trace:
        parser.error("--table needs --trace 1")

    src = ROOT / "src" / "repro"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    # byte-compile once up front so no repetition pays for it
    compileall.compile_dir(str(src), quiet=1)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    deadline = time.monotonic() + HARD_LIMIT_S
    samples: Dict[int, List[Dict[str, float]]] = {}
    digests: Dict[int, str] = {}
    raw: List[Dict[str, Any]] = []
    attempted = failed = 0
    try:
        for n, cell in enumerate(schedule(workload, args.seconds, trace)):
            rep_args = {"workload": workload.name, "seed": args.seed,
                        "cell": cell, "trace": trace,
                        "scratch": str(scratch / f"rep-{n}")}
            if workload.kind == "sweep":
                # flush earlier repetitions' cache files (and their
                # deletion) to disk first, so each cold pass starts
                # from the same page-cache state
                os.sync()
            try:
                result = run_rep(rep_args, deadline)
            except RepFailed as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                attempted += 1
                failed += 1
                if time.monotonic() >= deadline:
                    break
                continue
            attempted += result["attempted"]
            metrics = result["metrics"]
            print(f"{workload.name} seed={args.seed} cell={cell} "
                  f"scenario_seed={result.get('scenario_seed', '-')} "
                  f"digest={result['digest']} "
                  + " ".join(f"{name}={value:.6g}"
                             for name, value in metrics.items()),
                  flush=True)
            for warning in result["warnings"]:
                print(f"perfbench: cell {cell} known defect: {warning}",
                      file=sys.stderr)
            failures = list(result["failures"])
            if digests.setdefault(cell, result["digest"]) != result["digest"]:
                failures.append("payload digest changed between repetitions")
            if failures:
                print(f"perfbench: cell {cell} failed checks: "
                      f"{'; '.join(failures)}", file=sys.stderr)
                failed += result["attempted"]
            samples.setdefault(cell, []).append(metrics)
            if trace:
                raw.append(result["trace"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    if not samples:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    if trace:
        merged = tracing.merge_raw(raw)
        values = tracing.layer_metrics(merged)
        if args.table:
            print_table(merged)
        units = dict(tracing.layer_metric_names())
    else:
        values = {}
        for name, _unit, _better, _bound in END_TO_END:
            per_cell = [statistics.median(s[name] for s in cell_samples)
                        for cell_samples in samples.values()]
            values[name] = statistics.median(per_cell)
        units = {name: unit for name, unit, _b, _bd in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
