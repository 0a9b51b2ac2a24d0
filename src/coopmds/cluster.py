"""Deterministic in-process cluster simulation.

Each node is one column, None while the node is failed; a coordinator
executes a scenario (fail, repair, verify events).  A repair event makes the
same run as repair_columns and reads its ledger total, bounds and optimality
from the transcript that run returns.  The bus meters every message of that
transcript independently of its ledger, so each repair event yields two
traffic counts that must agree.  There is no wall clock: the meter log uses
logical timestamps, messages inside a round are ordered by (round, sender,
receiver), and codeword content comes from the config seed, which makes
reports byte-for-byte reproducible.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from coopmds.codec import CodewordArray, encode_systematic, verify_parity
from coopmds.codespec import CodeSpec, InadmissibleError
from coopmds.repair import RepairContext, _run_rounds, repair_columns

_MODES = ("cooperative", "centralized")


def _node_list(event: dict, key: str, n: int) -> list[int]:
    """event[key] as a sorted list of distinct nodes of 1..n."""
    nodes = event.get(key)
    if not isinstance(nodes, (list, tuple)) or not nodes:
        raise ValueError(f"{event['type']} event needs a nonempty list of {key}")
    # JSON true is no node: bool is a subclass of int
    if any(type(i) is not int or not 1 <= i <= n for i in nodes):
        raise ValueError(f"{event['type']} event {key} must be integers in [1, {n}]")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"{event['type']} event names a node twice")
    return sorted(nodes)


def _normalize_event(event: dict, n: int) -> dict:
    if not isinstance(event, dict):
        raise ValueError(f"an event is an object, not {event!r}")
    kind = event.get("type")
    if kind == "fail":
        return {"type": "fail", "nodes": _node_list(event, "nodes", n)}
    if kind == "repair":
        mode = event.get("mode", "cooperative")
        if mode not in _MODES:
            raise ValueError(f"unknown repair mode {mode!r}")
        return {"type": "repair", "helpers": _node_list(event, "helpers", n), "mode": mode}
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
        if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
            raise ValueError("a scenario config is an object with an events list")
        if type(doc.get("seed")) is not int:
            raise ValueError(f"the seed must be an integer, not {doc.get('seed')!r}")
        return cls(CodeSpec.from_descriptor(doc["spec"]), doc["seed"], tuple(doc["events"]))


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


def run_scenario(config: ClusterConfig, *, workers: int = 1) -> SimulationReport:
    """Execute the scenario and return the report.

    The initial codeword is seeded from config.seed.  Repair events rebuild
    whichever nodes are currently failed from the event's helpers; verify
    events re-check all parities.  Raises on inadmissible events (dead
    helpers, nothing to repair, more failures than parities).
    """
    if workers > 1:  # imported here, as it loads logging, which nothing else needs
        from concurrent.futures import ThreadPoolExecutor
    spec = config.spec
    p = spec.params
    rng = np.random.default_rng(config.seed)
    truth = encode_systematic(spec, rng.integers(0, spec.field.order, size=(p.l, p.k)))
    nodes: dict[int, "np.ndarray | None"] = {i: truth.cells[:, i - 1] for i in range(1, p.n + 1)}
    meter = TrafficMeter()
    events_out: list[dict] = []

    for ev in config.scenario:
        failed = [i for i, col in nodes.items() if col is None]
        if ev["type"] == "fail":
            for i in ev["nodes"]:
                if nodes[i] is None:
                    raise InadmissibleError(f"node {i} is already failed")
                nodes[i] = None
            events_out.append({"event": "fail", "nodes": ev["nodes"]})
        elif ev["type"] == "repair":
            if not failed:
                raise InadmissibleError("repair event with no failed nodes")
            dead_helpers = set(ev["helpers"]) & set(failed)
            if dead_helpers:
                raise InadmissibleError(f"helpers {sorted(dead_helpers)} are not live")
            ctx = RepairContext(tuple(failed), tuple(ev["helpers"]))
            pool = ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()
            with pool:
                pool_map = pool.map if workers > 1 else map
                restored, transcript = _run_rounds(
                    spec, ctx, {j: nodes[j] for j in ctx.helpers}, ev["mode"], pool_map
                )
            nodes.update(restored)
            before = meter.total
            for msg in transcript.messages:
                meter.record(msg.round, msg.sender, msg.receiver, msg.symbols)
            run = transcript.to_dict()
            # the messages view the round-1 solves' arrays: drop them now
            transcript = msg = None
            events_out.append(
                {
                    "event": "repair",
                    "failed": failed,
                    "helpers": list(ctx.helpers),
                    "mode": ev["mode"],
                    "ledger_total": run["total"],
                    "meter_total": meter.total - before,
                    "agreement": run["total"] == meter.total - before,
                    "bounds": run["bounds"],
                    "optimal": run["optimal"],
                }
            )
        elif failed:
            events_out.append({"event": "verify", "ok": False, "missing": failed})
        else:
            # node-major, so verify compares contiguous parity columns
            cells = np.stack([nodes[i] for i in range(1, p.n + 1)]).T
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
                columns = {j: truth.column(j) for j in helpers}
                for mode in modes:
                    restored, transcript = repair_columns(spec, ctx, columns, mode=mode)
                    if not all(np.array_equal(restored[i], truth.column(i)) for i in failed):
                        raise RuntimeError(f"repair failed for F={failed} R={helpers} ({mode})")
                    run = transcript.to_dict()
                    rows.append(
                        {
                            "h": h,
                            "d": d,
                            "failed": list(failed),
                            "helpers": list(helpers),
                            "mode": mode,
                            "measured": run["total"],
                            "bound": run["bounds"][mode],
                            "optimal": run["optimal"],
                        }
                    )
    return rows
