"""``repro perf --profile`` and the cProfile hotspot harness."""

import json

import pytest

from repro.cli import main
from repro.experiments.registry import ScenarioError
from repro.perf import PROFILE_SCHEMA_VERSION, format_profile, profile_scenario


def test_profile_scenario_payload_shape():
    payload = profile_scenario("dense-small",
                               params={"duration_s": 600.0}, top=10)
    assert payload["schema"] == PROFILE_SCHEMA_VERSION
    assert payload["scenario"] == "dense-small"
    assert payload["params"] == {"duration_s": 600.0}
    assert payload["total_s"] > 0
    rows = payload["rows"]
    assert 0 < len(rows) <= 10
    for row in rows:
        assert set(row) == {"function", "ncalls", "primitive_calls",
                            "tottime_s", "cumtime_s"}
    # sorted by cumulative time, hottest first
    cums = [row["cumtime_s"] for row in rows]
    assert cums == sorted(cums, reverse=True)
    # locations are repo-relative (no absolute site paths leak through)
    assert not any(row["function"].startswith("/") for row in rows)


def test_profile_payload_is_json_round_trip_stable():
    payload = profile_scenario("standby-sizing", top=5)
    assert payload == json.loads(json.dumps(payload))


def test_format_profile_renders_table():
    payload = profile_scenario("standby-sizing", top=5)
    text = format_profile(payload)
    assert "profile standby-sizing" in text
    assert "cumtime" in text and "ncalls" in text
    # one line per row plus the two header lines
    assert len(text.splitlines()) == 2 + len(payload["rows"])


def test_profile_unknown_scenario_raises():
    with pytest.raises(ScenarioError):
        profile_scenario("no-such-scenario")


def test_cli_perf_profile_unknown_scenario_exits_2(capsys):
    assert main(["perf", "--profile", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-scenario" in err


def test_cli_perf_profile(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    assert main(["perf", "--profile", "standby-sizing", "--top", "5",
                 "--output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "profile standby-sizing" in out
    data = json.loads(out_file.read_text())
    assert data["schema"] == PROFILE_SCHEMA_VERSION
    assert data["rows"]


def test_cli_perf_profile_set_overrides_reach_payload(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    assert main(["perf", "--profile", "standby-sizing", "--top", "3",
                 "--set", "machines=64", "--set", "quantile=0.9",
                 "--output", str(out_file)]) == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    # coerced through the scenario's ParamSpecs, as `repro run --set`
    assert data["params"] == {"machines": 64, "quantile": 0.9}


def test_cli_perf_profile_unknown_set_key_exits_2(capsys):
    assert main(["perf", "--profile", "standby-sizing",
                 "--set", "no_such_param=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no_such_param" in err
