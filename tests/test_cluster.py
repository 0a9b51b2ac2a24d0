"""Scenario execution, traffic metering, and the sweep harness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from coopmds.cluster import ClusterConfig, TrafficMeter, inject_and_sweep, run_scenario
from coopmds.codec import encode_systematic
from coopmds.codespec import InadmissibleError, concat, make_code
from coopmds.field import FieldSpec, make_field
from coopmds.repair import RepairContext, repair_columns

GF7 = FieldSpec("prime", 7)
GF11 = FieldSpec("prime", 11)
GF13 = FieldSpec("prime", 13)

FAIL_REPAIR_VERIFY = (
    {"type": "fail", "nodes": [1, 2]},
    {"type": "repair", "helpers": [3, 4, 5]},
    {"type": "verify"},
)


def fixed523():
    return make_code("fixed_subset", 5, 2, 2, 3, GF7)


# ---- config -----------------------------------------------------------------


def test_config_normalizes_events():
    cfg = ClusterConfig(fixed523(), 7, ({"type": "fail", "nodes": [2, 1]}, {"type": "verify"}))
    assert cfg.scenario[0] == {"type": "fail", "nodes": [1, 2]}
    assert cfg.scenario[1] == {"type": "verify"}


def test_config_fills_default_mode():
    cfg = ClusterConfig(fixed523(), 7, ({"type": "repair", "helpers": [5, 3, 4]},))
    assert cfg.scenario[0] == {"type": "repair", "helpers": [3, 4, 5], "mode": "cooperative"}


def test_config_rejects_malformed_events():
    spec = fixed523()
    bad = [
        {"type": "fail", "nodes": []},
        {"type": "fail", "nodes": [1, 1]},
        {"type": "fail", "nodes": [0]},
        {"type": "fail", "nodes": [6]},
        {"type": "repair", "helpers": [3], "mode": "psychic"},
        {"type": "rebalance"},
        # bool is a subclass of int, but JSON true is no node
        {"type": "fail", "nodes": [True]},
        {"type": "repair", "helpers": [3, 4, False]},
        {"type": "fail", "nodes": 1},
        "verify",
    ]
    for ev in bad:
        with pytest.raises(ValueError):
            ClusterConfig(spec, 0, (ev,))


def _malformed_configs():
    """Scenario documents of the wrong shape or type, each of which a JSON
    reader accepts as it is (events of the wrong type are
    test_config_rejects_malformed_events)."""
    spec = fixed523().descriptor()
    concatenated = concat([make_code("any_subset", 4, 1, h, 2, GF13) for h in (1, 2)]).descriptor()
    events = list(FAIL_REPAIR_VERIFY)
    return {
        "float seed": {"spec": spec, "seed": 1.9, "events": events},
        "true seed": {"spec": spec, "seed": True, "events": events},
        "missing seed": {"spec": spec, "events": events},
        "list document": [spec, 1, events],
        "number events": {"spec": spec, "seed": 1, "events": 5},
        "string events": {"spec": spec, "seed": 1, "events": "verify"},
        "string n": {"spec": dict(spec, n="5"), "seed": 1, "events": events},
        # k = 1 would make an admissible code
        "true k": {"spec": dict(concatenated, k=True), "seed": 1, "events": []},
        "string modulus": {
            "spec": dict(spec, field={"kind": "prime", "modulus": "7"}),
            "seed": 1,
            "events": events,
        },
        "number spec": {"spec": 5, "seed": 1, "events": events},
        "number field": {"spec": dict(spec, field=7), "seed": 1, "events": events},
        "number components": {"spec": dict(concatenated, components=5), "seed": 1, "events": []},
        "number component": {"spec": dict(concatenated, components=[5]), "seed": 1, "events": []},
    }


@pytest.mark.parametrize("case", sorted(_malformed_configs()))
def test_config_from_json_rejects_wrong_types(case):
    with pytest.raises(ValueError):
        ClusterConfig.from_json(json.dumps(_malformed_configs()[case]))


def test_config_json_round_trip():
    cfg = ClusterConfig(fixed523(), 99, FAIL_REPAIR_VERIFY)
    again = ClusterConfig.from_json(cfg.to_json())
    assert again == cfg
    doc = json.loads(cfg.to_json())
    assert doc["seed"] == 99 and len(doc["events"]) == 3


# ---- meter ------------------------------------------------------------------


def test_meter_accumulates_per_link():
    meter = TrafficMeter()
    meter.record(1, 3, 1, 2)
    meter.record(1, 3, 2, 1)
    meter.record(2, 1, 2, 1)
    meter.record(1, 3, 1, 1)
    assert meter.total == 5
    assert meter.link_totals() == {(3, 1): 3, (3, 2): 1, (1, 2): 1}
    times = [entry["time"] for entry in meter.log]
    assert times == [1, 2, 3, 4]
    assert meter.to_dict()["links"] == {"1->2": 1, "3->1": 3, "3->2": 1}


# ---- scenarios --------------------------------------------------------------


def test_fail_repair_verify_round_trip():
    report = run_scenario(ClusterConfig(fixed523(), 5, FAIL_REPAIR_VERIFY))
    fail_ev, repair_ev, verify_ev = report.events
    assert fail_ev == {"event": "fail", "nodes": [1, 2]}
    assert repair_ev["ledger_total"] == 8
    assert repair_ev["meter_total"] == 8
    assert repair_ev["agreement"]
    assert repair_ev["optimal"]
    assert repair_ev["bounds"] == {"cooperative": 8, "centralized": 6}
    assert verify_ev == {"event": "verify", "ok": True}
    assert report.meter.total == 8
    assert report.verified


def test_centralized_scenario_has_no_second_round():
    events = (
        {"type": "fail", "nodes": [1, 2]},
        {"type": "repair", "helpers": [3, 4, 5], "mode": "centralized"},
        {"type": "verify"},
    )
    report = run_scenario(ClusterConfig(fixed523(), 5, events))
    assert report.events[1]["ledger_total"] == 6
    assert report.events[1]["agreement"]
    assert all(entry["round"] == 1 for entry in report.meter.log)
    assert report.verified


def test_meter_log_is_ordered_within_rounds():
    report = run_scenario(ClusterConfig(fixed523(), 5, FAIL_REPAIR_VERIFY))
    keys = [(e["round"], e["from"], e["to"]) for e in report.meter.log]
    assert keys == sorted(keys)
    assert [e["time"] for e in report.meter.log] == list(range(1, len(keys) + 1))


def test_two_repairs_accumulate_traffic():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    events = (
        {"type": "fail", "nodes": [1, 2]},
        {"type": "repair", "helpers": [3, 4]},
        {"type": "verify"},
        {"type": "fail", "nodes": [3, 4]},
        {"type": "repair", "helpers": [1, 2]},
        {"type": "verify"},
    )
    report = run_scenario(ClusterConfig(spec, 11, events))
    per_repair = 1458  # h(h+d-1)l/(h+d-k) = 2*3*729/3
    assert report.events[1]["meter_total"] == per_repair
    assert report.events[4]["meter_total"] == per_repair
    assert report.meter.total == 2 * per_repair
    assert report.verified


def test_verify_reports_missing_columns():
    events = ({"type": "fail", "nodes": [4]}, {"type": "verify"})
    report = run_scenario(ClusterConfig(fixed523(), 5, events))
    assert report.events[1] == {"event": "verify", "ok": False, "missing": [4]}
    assert not report.verified


def test_empty_scenario_is_an_empty_report():
    report = run_scenario(ClusterConfig(fixed523(), 5, ()))
    assert report.events == []
    assert report.meter.total == 0
    doc = json.loads(report.to_json())
    assert doc["meter"] == {"links": {}, "total": 0, "log": []}
    assert doc["seed"] == 5


def test_repair_beyond_parity_count_fails():
    spec = fixed523()  # r = 3
    events = ({"type": "fail", "nodes": [1, 2, 3, 4]}, {"type": "repair", "helpers": [5]})
    with pytest.raises(InadmissibleError):
        run_scenario(ClusterConfig(spec, 5, events))


def test_inadmissible_runtime_events():
    spec = fixed523()
    with pytest.raises(InadmissibleError, match="already failed"):
        run_scenario(
            ClusterConfig(spec, 0, ({"type": "fail", "nodes": [1]}, {"type": "fail", "nodes": [1]}))
        )
    with pytest.raises(InadmissibleError, match="no failed nodes"):
        run_scenario(ClusterConfig(spec, 0, ({"type": "repair", "helpers": [3, 4, 5]},)))
    with pytest.raises(InadmissibleError, match="not live"):
        run_scenario(
            ClusterConfig(
                spec,
                0,
                ({"type": "fail", "nodes": [1, 3]}, {"type": "repair", "helpers": [3, 4, 5]}),
            )
        )


def test_wrong_helper_count_surfaces():
    events = ({"type": "fail", "nodes": [1, 2]}, {"type": "repair", "helpers": [3, 4]})
    with pytest.raises(InadmissibleError):
        run_scenario(ClusterConfig(fixed523(), 0, events))


# ---- determinism ------------------------------------------------------------


def test_reports_are_byte_identical_across_runs_and_workers():
    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    events = (
        {"type": "fail", "nodes": [2, 5]},
        {"type": "repair", "helpers": [1, 3, 4]},
        {"type": "verify"},
    )
    cfg = ClusterConfig(spec, 2026, events)
    baseline = run_scenario(cfg).to_json()
    assert run_scenario(cfg).to_json() == baseline
    for workers in (2, 4):
        assert run_scenario(cfg, workers=workers).to_json() == baseline


def test_different_seeds_change_content_not_traffic():
    a = run_scenario(ClusterConfig(fixed523(), 1, FAIL_REPAIR_VERIFY))
    b = run_scenario(ClusterConfig(fixed523(), 2, FAIL_REPAIR_VERIFY))
    assert a.meter.to_dict() == b.meter.to_dict()
    assert a.verified and b.verified


@pytest.mark.parametrize("workers", [1, 2])
def test_meter_log_matches_the_library_transcripts(workers):
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    events = (
        {"type": "fail", "nodes": [1, 3]},
        {"type": "repair", "helpers": [2, 4]},
        {"type": "fail", "nodes": [2, 4]},
        {"type": "repair", "helpers": [1, 3], "mode": "centralized"},
        {"type": "verify"},
    )
    report = run_scenario(ClusterConfig(spec, 9, events), workers=workers)
    assert report.verified
    rng = np.random.default_rng(9)
    cw = encode_systematic(spec, rng.integers(0, 8, size=(spec.params.l, spec.params.k)))
    expect = []
    for ev in report.events:
        if ev["event"] == "repair":
            ctx = RepairContext(tuple(ev["failed"]), tuple(ev["helpers"]))
            helpers = {j: cw.column(j) for j in ctx.helpers}
            _, transcript = repair_columns(spec, ctx, helpers, mode=ev["mode"])
            expect += [(m.round, m.sender, m.receiver, m.symbols) for m in transcript.messages]
            run = transcript.to_dict()
            assert ev["ledger_total"] == transcript.ledger.total == run["total"]
            assert ev["bounds"] == run["bounds"]
            assert ev["optimal"] is transcript.optimal is True
    log = [(e["round"], e["from"], e["to"], e["symbols"]) for e in report.meter.log]
    assert {rnd for rnd, *_ in log} == {1, 2}
    assert log == expect


# ---- sweep ------------------------------------------------------------------


def test_sweep_fixed_subset_rows():
    rows = inject_and_sweep(fixed523())
    assert len(rows) == 2
    coop, central = rows
    assert coop["mode"] == "cooperative" and coop["measured"] == 8 and coop["optimal"]
    assert central["mode"] == "centralized" and central["measured"] == 6 and central["optimal"]
    assert coop["failed"] == [1, 2] and coop["helpers"] == [3, 4, 5]


def test_sweep_any_subset_covers_all_failure_sets():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    rows = inject_and_sweep(spec)
    coop = [r for r in rows if r["mode"] == "cooperative"]
    central = [r for r in rows if r["mode"] == "centralized"]
    assert len(coop) == 6 and len(central) == 6
    assert {tuple(r["failed"]) for r in coop} == {
        (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (2, 4),
    }
    assert all(r["measured"] == 1458 and r["optimal"] for r in coop)
    assert all(r["measured"] == 972 and r["optimal"] for r in central)


def test_sweep_single_failure_modes_coincide():
    spec = concat(
        [make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]
    )
    rows = inject_and_sweep(spec)
    singles = [r for r in rows if r["h"] == 1]
    assert singles
    by_trial: dict[tuple, dict[str, int]] = {}
    for r in singles:
        by_trial.setdefault((tuple(r["failed"]), tuple(r["helpers"])), {})[r["mode"]] = r["measured"]
    for measured in by_trial.values():
        assert measured["cooperative"] == measured["centralized"]
    assert all(r["optimal"] for r in rows)


def test_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        inject_and_sweep(fixed523(), modes=("gossip",))


def test_importing_the_cli_loads_no_thread_pool():
    """Only run_scenario with two or more workers needs a thread pool, so a
    fresh interpreter that imports the CLI, as every file command does,
    loads neither concurrent.futures nor the logging it pulls in."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import coopmds

    env = {**os.environ, "PYTHONPATH": str(Path(coopmds.__file__).resolve().parents[1])}
    probe = "import sys, coopmds.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
