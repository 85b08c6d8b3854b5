"""The substrate mode switch: scalar loops or numpy masks.

Fleet-scale fault and health work — hazard draws, inspection sweeps'
unhealthy-candidate queries, pack placement — has two execution
paths.  The vectorized one reads whole
:class:`~repro.cluster.components.FleetState` columns in one numpy
operation; the scalar one loops in Python and wins on constant factors
for small populations.  ``"auto"`` (default) vectorizes only at or
above :data:`VECTORIZE_MIN_MACHINES`; :func:`force_substrate` pins the
mode for equivalence tests and benchmarks.  Both paths are
byte-identical by construction (the equivalence suite asserts it), so
the mode only ever changes wall-clock, never results.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

#: Below this many machines the scalar sweep's constant factors win;
#: "auto" mode only vectorizes at or above it.
VECTORIZE_MIN_MACHINES = 64

_MODE = "auto"  # "auto" | "scalar" | "vectorized"


def substrate_mode() -> str:
    """Current fault/health substrate mode."""
    return _MODE


@contextlib.contextmanager
def force_substrate(mode: str) -> Iterator[None]:
    """Pin the substrate to ``"scalar"`` or ``"vectorized"``.

    Used by the equivalence suite (run the same scenario both ways,
    assert byte-identical results) and the substrate microbenchmark.
    Not reentrant, not thread-safe — a test/bench harness, not an
    execution mode.
    """
    global _MODE
    if mode not in ("auto", "scalar", "vectorized"):
        raise ValueError(f"unknown substrate mode {mode!r}")
    saved = _MODE
    _MODE = mode
    try:
        yield
    finally:
        _MODE = saved


def use_vectorized(population: int) -> bool:
    """Should a loop over ``population`` machines take the array path?"""
    if _MODE == "auto":
        return population >= VECTORIZE_MIN_MACHINES
    return _MODE == "vectorized"
