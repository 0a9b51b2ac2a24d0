"""Deterministic in-process cluster simulation.

Nodes are isolated state objects holding exactly one column and an inbox; a
coordinator executes a scenario (fail, repair, verify events), running each
repair through the repair module's own two-round run.  The bus meters every
message that run returns independently of its ledger, so each repair event
yields two traffic counts that must agree.  There is no wall clock: the meter
log uses logical timestamps, messages inside a round are ordered by
(round, sender, receiver), and codeword content comes from the config seed,
which makes reports byte-for-byte reproducible.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from coopmds.codec import CodewordArray, encode_systematic, verify_parity
from coopmds.codespec import CodeSpec, InadmissibleError
from coopmds.repair import (
    BandwidthLedger,
    RepairContext,
    _bounds,
    _fraction_json,
    _geometry,
    _run_rounds,
    centralized_repair_from_round1,
    cooperative_repair,
)

_MODES = ("cooperative", "centralized")


def _normalize_event(event: dict, n: int) -> dict:
    kind = event.get("type")
    if kind == "fail":
        nodes = list(event.get("nodes", ()))
        if not nodes or len(set(nodes)) != len(nodes):
            raise ValueError("fail event needs a nonempty set of distinct nodes")
        if any(not isinstance(i, int) or not 1 <= i <= n for i in nodes):
            raise ValueError(f"fail event references nodes outside [1, {n}]")
        return {"type": "fail", "nodes": sorted(nodes)}
    if kind == "repair":
        helpers = list(event.get("helpers", ()))
        if not helpers or len(set(helpers)) != len(helpers):
            raise ValueError("repair event needs a nonempty set of distinct helpers")
        if any(not isinstance(i, int) or not 1 <= i <= n for i in helpers):
            raise ValueError(f"repair event references nodes outside [1, {n}]")
        mode = event.get("mode", "cooperative")
        if mode not in _MODES:
            raise ValueError(f"unknown repair mode {mode!r}")
        return {"type": "repair", "helpers": sorted(helpers), "mode": mode}
    if kind == "verify":
        return {"type": "verify"}
    raise ValueError(f"unknown event type {kind!r}")


@dataclass(frozen=True)
class ClusterConfig:
    """A spec, a content seed, and an ordered event list."""

    spec: CodeSpec
    seed: int
    scenario: tuple[dict, ...]

    def __post_init__(self):
        events = tuple(_normalize_event(ev, self.spec.params.n) for ev in self.scenario)
        object.__setattr__(self, "scenario", events)

    def to_json(self) -> str:
        doc = {"spec": self.spec.descriptor(), "seed": self.seed, "events": list(self.scenario)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClusterConfig":
        doc = json.loads(text)
        return cls(CodeSpec.from_descriptor(doc["spec"]), int(doc["seed"]), tuple(doc["events"]))


class TrafficMeter:
    """Bus-side symbol counting with a logical-time event log."""

    def __init__(self):
        self._links: dict[tuple[int, int], int] = {}
        self.log: list[dict] = []
        self._clock = 0

    def record(self, rnd: int, sender: int, receiver: int, symbols: int) -> None:
        self._clock += 1
        key = (sender, receiver)
        self._links[key] = self._links.get(key, 0) + symbols
        self.log.append(
            {"time": self._clock, "round": rnd, "from": sender, "to": receiver, "symbols": symbols}
        )

    @property
    def total(self) -> int:
        return sum(self._links.values())

    def link_totals(self) -> dict[tuple[int, int], int]:
        return dict(self._links)

    def to_dict(self) -> dict:
        links = {f"{s}->{r}": c for (s, r), c in sorted(self._links.items())}
        return {"links": links, "total": self.total, "log": self.log}


class NodeState:
    """One live node's private view: its id, its column, its inbox."""

    __slots__ = ("node", "column", "inbox")

    def __init__(self, node: int, column: "np.ndarray | None"):
        self.node = node
        self.column = column
        self.inbox: list = []


@dataclass
class SimulationReport:
    """Everything run_scenario produced, JSON-serializable."""

    spec: dict
    seed: int
    events: list[dict]
    meter: TrafficMeter

    def to_dict(self) -> dict:
        meter = self.meter.to_dict()
        return {"spec": self.spec, "seed": self.seed, "events": self.events, "meter": meter}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def verified(self) -> bool:
        verdicts = [ev["ok"] for ev in self.events if ev["event"] == "verify"]
        return all(verdicts)


def _run_repair_event(
    spec: CodeSpec, ctx: RepairContext, mode: str, nodes: dict, meter: TrafficMeter, workers: int
) -> tuple[dict[int, np.ndarray], BandwidthLedger]:
    """One repair through repair._run_rounds, round-1 solves on ``workers``
    threads; the meter records its messages, which are dropped on return."""
    pool = ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()
    with pool:
        restored, messages, ledger = _run_rounds(
            spec,
            _geometry(spec, ctx),
            {j: nodes[j].column for j in ctx.helpers},
            meter_round2=(mode == "cooperative"),
            pool_map=pool.map if workers > 1 else map,
        )
    for msg in messages:
        meter.record(msg.round, msg.sender, msg.receiver, msg.symbols)
    return restored, ledger


def run_scenario(config: ClusterConfig, *, workers: int = 1) -> SimulationReport:
    """Execute the scenario and return the report.

    The initial codeword is seeded from config.seed.  Repair events rebuild
    whichever nodes are currently failed from the event's helpers; verify
    events re-check all parities.  Raises on inadmissible events (dead
    helpers, nothing to repair, more failures than parities).
    """
    spec = config.spec
    p = spec.params
    rng = np.random.default_rng(config.seed)
    truth = encode_systematic(spec, rng.integers(0, spec.field.order, size=(p.l, p.k)))
    nodes: dict[int, NodeState | None] = {
        i: NodeState(i, truth.cells[:, i - 1]) for i in range(1, p.n + 1)
    }
    failed: set[int] = set()
    meter = TrafficMeter()
    events_out: list[dict] = []

    for ev in config.scenario:
        if ev["type"] == "fail":
            for i in ev["nodes"]:
                if i in failed:
                    raise InadmissibleError(f"node {i} is already failed")
                failed.add(i)
                nodes[i] = None
            events_out.append({"event": "fail", "nodes": ev["nodes"]})
        elif ev["type"] == "repair":
            if not failed:
                raise InadmissibleError("repair event with no failed nodes")
            dead_helpers = set(ev["helpers"]) & failed
            if dead_helpers:
                raise InadmissibleError(f"helpers {sorted(dead_helpers)} are not live")
            ctx = RepairContext(tuple(sorted(failed)), tuple(ev["helpers"]))
            before = meter.total
            restored, ledger = _run_repair_event(spec, ctx, ev["mode"], nodes, meter, workers)
            for i, col in restored.items():
                nodes[i] = NodeState(i, col)
            failed.clear()
            coop, cent = _bounds(spec, ctx)
            bound = coop if ev["mode"] == "cooperative" else cent
            events_out.append(
                {
                    "event": "repair",
                    "failed": list(ctx.failed),
                    "helpers": list(ctx.helpers),
                    "mode": ev["mode"],
                    "ledger_total": ledger.total,
                    "meter_total": meter.total - before,
                    "agreement": ledger.total == meter.total - before,
                    "bounds": {
                        "cooperative": _fraction_json(coop),
                        "centralized": _fraction_json(cent),
                    },
                    "optimal": ledger.total == bound,
                }
            )
        else:
            if failed:
                entry = {"event": "verify", "ok": False, "missing": sorted(failed)}
            else:
                # node-major, so verify compares contiguous parity columns
                cells = np.stack([nodes[i].column for i in range(1, p.n + 1)]).T
                res = verify_parity(CodewordArray(spec, cells))
                entry = {"event": "verify", "ok": res.ok}
                if not res.ok:
                    entry["witness"] = [res.t, res.row]
            events_out.append(entry)

    return SimulationReport(spec.descriptor(), config.seed, events_out, meter)


def inject_and_sweep(
    spec: CodeSpec, modes: Sequence[str] = _MODES, *, seed: int = 0
) -> list[dict]:
    """Run every admissible (F, R) pair under each mode and tabulate measured
    totals against the cut-set values.

    Fixed-subset specs contribute F = {1..h} only; any-subset and
    concatenated specs sweep all h-subsets.  Restoration is asserted, so a
    row in the output is also a correctness witness.
    """
    for mode in modes:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
    p = spec.params
    rng = np.random.default_rng(seed)
    truth = encode_systematic(spec, rng.integers(0, spec.field.order, size=(p.l, p.k)))
    rows: list[dict] = []
    for h, d in spec.admissible_pairs():
        if spec.family == "fixed_subset":
            failed_sets: Iterable[tuple[int, ...]] = [tuple(range(1, h + 1))]
        else:
            failed_sets = itertools.combinations(range(1, p.n + 1), h)
        for failed in failed_sets:
            rest = sorted(set(range(1, p.n + 1)) - set(failed))
            for helpers in itertools.combinations(rest, d):
                ctx = RepairContext(failed, helpers)
                damaged_cells = truth.cells.copy()
                for i in failed:
                    damaged_cells[:, i - 1] = 0
                damaged = CodewordArray(spec, damaged_cells)
                for mode in modes:
                    runner = (
                        cooperative_repair if mode == "cooperative" else centralized_repair_from_round1
                    )
                    restored, transcript = runner(spec, damaged, ctx)
                    if restored != truth:
                        raise RuntimeError(f"repair failed for F={failed} R={helpers} ({mode})")
                    rows.append(
                        {
                            "h": h,
                            "d": d,
                            "failed": list(failed),
                            "helpers": list(helpers),
                            "mode": mode,
                            "measured": transcript.ledger.total,
                            "bound": _fraction_json(transcript.bound),
                            "optimal": transcript.optimal,
                        }
                    )
    return rows
