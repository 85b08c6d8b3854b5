"""Golden payload digests: every registered scenario, byte for byte.

``tests/golden_payloads.json`` holds, per registered scenario, the
resolved parameters of one short pinned-seed cell and the sha256 of
its payload's canonical JSON.  Any change that moves a payload — an
RNG draw order, a float summed in a different order, a key renamed —
fails here.  Regenerate with ``scripts/golden_payloads.py``, and only
alongside a documented schema bump (the header's schema versions must
match the code's, which the last test asserts).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.cache import CACHE_SCHEMA_VERSION
from repro.experiments.executor import run_cell
from repro.experiments.registry import list_scenarios
from repro.training.metrics import METRICS_SCHEMA_VERSION

GOLDEN = json.loads((Path(__file__).parent / "golden_payloads.json")
                    .read_text(encoding="utf-8"))
SCENARIOS = GOLDEN["scenarios"]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_payload(name):
    entry = SCENARIOS[name]
    _index, status, payload = run_cell((0, name, entry["params"]))
    assert status == "ok", payload
    assert _digest(payload) == entry["digest"]
    if name == "fleet-quarter":
        # the shrunk quarter is the cell that pins the vectorized
        # hazard, sweep and pack paths: it must be wide enough for
        # them and actually draw hazard hits
        assert entry["params"]["total_machines"] >= 256
        assert payload["machine_hazard"]["hits"] > 0


def test_every_registered_scenario_is_pinned():
    assert sorted(SCENARIOS) == list_scenarios()


def test_digests_pairwise_distinct():
    digests = [entry["digest"] for entry in SCENARIOS.values()]
    assert len(set(digests)) == len(digests)


def test_digest_file_matches_schema_versions():
    assert GOLDEN["schema"] == {"cache": CACHE_SCHEMA_VERSION,
                                "metrics": METRICS_SCHEMA_VERSION}
    assert GOLDEN["python"] and GOLDEN["numpy"]
