"""One benchmark run of one workload, in a process of its own.

run.py starts this script with ``PYTHONPATH`` set to the checkout's ``src``.
It builds the workload's code and inputs from the seed, then runs closed-loop
cycles (one client, one process, the next op starts when the last one ends)
until the next cycle would overrun ``--seconds``.  Every op's output is
checked.  With ``--trace 1`` the first half of the time runs untraced and
the second half under the span tracer, which gives the per-layer numbers and
the tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import coopmds
from coopmds import cli
from setup_probe import build_code
from tracer import Tracer, median_of, setup_metrics, span_metrics

MIB = 1 << 20

FILE_OPS = ("encode", "verify", "read", "degraded_read", "repair")

# workload -> (file size, tiny file size); fixed_subset (5,2,2,3) repairs
# F = {1, 2} from the helpers {3, 4, 5}
FILE_SIZES = {"file_gf256": (1 * MIB, 4096), "file_gf65536": (4 * MIB, 16384)}

UNIVERSAL_EVENTS = (
    {"type": "fail", "nodes": [1, 3]},
    {"type": "repair", "helpers": [2, 4]},
    {"type": "verify"},
    {"type": "fail", "nodes": [2]},
    {"type": "repair", "helpers": [1, 3, 4]},
    {"type": "verify"},
    {"type": "fail", "nodes": [4]},
    {"type": "repair", "helpers": [1, 2], "mode": "centralized"},
    {"type": "verify"},
)
# the tiny code has components (2,2) and (1,2) only, so the h=1 cooperative
# repair uses two helpers
TINY_EVENTS = UNIVERSAL_EVENTS[:4] + (
    {"type": "repair", "helpers": [1, 3]},
) + UNIVERSAL_EVENTS[5:]


def _symbol_width(order: int) -> int:
    return 1 if order <= 256 else 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """Op timing, checking and tallies for the cycles of one phase."""

    def __init__(self, tracer: "Tracer | None", corrupt: "str | None"):
        self.tracer = tracer
        self.corrupt = corrupt
        self.cycle_no = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.record: dict = {}

    def begin_cycle(self) -> None:
        self.cycle_no += 1
        self.record = {
            "cycle": self.cycle_no,
            "times": {},
            "traffic": [Fraction(0), Fraction(0)],
            "symbols": 0,
            "messages": 0,
            "links_bytes": {},
            "agreement": [0, 0],
            "stored_bytes": 0,
        }

    def timed(self, op: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = (self.cycle_no, op)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.record["times"][op] = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = (self.cycle_no, "check")
        return out

    def check(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"cycle {self.cycle_no} {op}: {p}" for p in problems)

    def repair_traffic(self, total, bound, links: dict, width: int, messages: int) -> None:
        rec = self.record
        rec["traffic"][0] += Fraction(total)
        rec["traffic"][1] += Fraction(bound)
        rec["symbols"] += int(total)
        rec["messages"] += messages
        for link, symbols in links.items():
            rec["links_bytes"][link] = rec["links_bytes"].get(link, 0) + symbols * width


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _report(rc: int, text: str, problems: list[str]) -> dict:
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        problems.append("report is not JSON")
        return {}


class FileWorkload:
    """The six-step CLI cycle on one random file."""

    def __init__(self, spec, size: int, seed: int, workdir: Path):
        p = spec.params
        self.order = spec.field.order
        self.width = _symbol_width(self.order)
        self.n = p.n
        self.user_bytes = size
        self.input = workdir / "input.bin"
        self.shards = workdir / "shards"
        self.output = workdir / "output.bin"
        data = np.random.default_rng(seed).bytes(size)
        self.input.write_bytes(data)
        self.sha = _sha256(data)
        self.code_args = [
            "--family", spec.family, "--n", p.n, "--k", p.k, "--h", p.h, "--d", p.d,
            "--field", self.order,
        ]
        self.encoded: dict[str, str] = {}

    def _decode(self, bench: Bench, op: str, nodes: list[int]) -> None:
        self.output.unlink(missing_ok=True)
        rc, text = bench.timed(op, _cli, ["decode", self.shards, self.output])
        problems: list[str] = []
        report = _report(rc, text, problems)
        if bench.corrupt == op and self.output.exists():
            raw = bytearray(self.output.read_bytes())
            raw[0] ^= 0xFF
            self.output.write_bytes(bytes(raw))
        if not self.output.exists():
            problems.append("no output file")
        elif _sha256(self.output.read_bytes()) != self.sha:
            problems.append("output SHA-256 differs from the input's")
        if report.get("nodes_used") != nodes:
            problems.append(f"decoded from {report.get('nodes_used')}, expected {nodes}")
        bench.check(op, problems)

    def cycle(self, bench: Bench) -> None:
        shutil.rmtree(self.shards, ignore_errors=True)
        rc, text = bench.timed("encode", _cli, ["encode", self.input, self.shards, *self.code_args])
        problems: list[str] = []
        report = _report(rc, text, problems)
        names = report.get("shards", [])
        if len(names) != self.n:
            problems.append(f"wrote {len(names)} shards, expected {self.n}")
        self.encoded = {name: _sha256((self.shards / name).read_bytes()) for name in names}
        bench.record["stored_bytes"] = sum((self.shards / name).stat().st_size for name in names)
        bench.check("encode", problems)

        rc, text = bench.timed("verify", _cli, ["verify", self.shards])
        problems = []
        report = _report(rc, text, problems)
        if not (report.get("ok") and report.get("parity", {}).get("ok")):
            problems.append("verify did not report parity ok")
        bench.check("verify", problems)

        self._decode(bench, "read", [1, 2])
        lost = [self.shards / name for name in names[:2]]
        bench.timed("delete", lambda: [path.unlink() for path in lost])
        self._decode(bench, "degraded_read", [3, 4])

        rc, text = bench.timed(
            "repair", _cli, ["repair", self.shards, "--fail", "1,2", "--helpers", "3,4,5"]
        )
        problems = []
        report = _report(rc, text, problems)
        if report.get("optimal") is not True:
            problems.append("repair report is not optimal")
        for name in names[:2]:
            path = self.shards / name
            if not path.exists() or _sha256(path.read_bytes()) != self.encoded[name]:
                problems.append(f"restored {name} differs from the encoded one")
        if report:
            bound = Fraction(str(report["bounds"]["cooperative"])) * report["stripes"]
            links = report["links"]
            bench.repair_traffic(report["total"], bound, links, self.width, len(links))
        bench.check("repair", problems)


class ClusterWorkload:
    """Library ops and one run_scenario(workers=2) on a universal code."""

    def __init__(self, spec, seed: int, events: tuple[dict, ...]):
        p = spec.params
        self.spec = spec
        self.order = spec.field.order
        self.width = _symbol_width(self.order)
        self.data = np.random.default_rng(seed).integers(0, self.order, size=(p.l, p.k))
        self.user_bytes = p.l * p.k * self.width
        self.config = coopmds.ClusterConfig(spec, seed, events)
        fail = next(ev["nodes"] for ev in events if ev["type"] == "fail")
        helpers = next(ev["helpers"] for ev in events if ev["type"] == "repair")
        self.ctx = coopmds.RepairContext(tuple(fail), tuple(helpers))
        self.repairs = sum(ev["type"] == "repair" for ev in events)

    def _decode(self, bench: Bench, op: str, cw, nodes: range) -> None:
        got = bench.timed(op, coopmds.decode_from_columns, self.spec, {i: cw.column(i) for i in nodes})
        if bench.corrupt == op:
            cells = got.cells.copy()
            cells[0, 0] = (cells[0, 0] + 1) % self.order
            got = coopmds.CodewordArray(self.spec, cells)
        bench.check(op, [] if got == cw else [f"decoding from nodes {list(nodes)} differs"])

    def cycle(self, bench: Bench) -> None:
        spec, p = self.spec, self.spec.params
        cw = bench.timed("encode", coopmds.encode_systematic, spec, self.data)
        ok = np.array_equal(cw.cells[:, : p.k], self.data)
        bench.record["stored_bytes"] = cw.cells.size * self.width
        bench.check("encode", [] if ok else ["data columns differ from the input"])

        res = bench.timed("verify", coopmds.verify_parity, cw)
        bench.check("verify", [] if res.ok else [f"parity check {res.t} fails at row {res.row}"])

        self._decode(bench, "read", cw, range(1, p.k + 1))
        self._decode(bench, "degraded_read", cw, range(p.n - p.k + 1, p.n + 1))

        ctx = self.ctx
        restored, transcript = bench.timed(
            "repair", coopmds.repair_columns, spec, ctx, {j: cw.column(j) for j in ctx.helpers}
        )
        problems = [
            f"node {i} restored wrong"
            for i in ctx.failed
            if not np.array_equal(restored[i], cw.column(i))
        ]
        if not transcript.optimal:
            problems.append("repair transcript is not optimal")
        links = {f"{s}->{r}": c for (s, r), c in transcript.ledger.link_counts().items()}
        bench.repair_traffic(
            transcript.ledger.total, transcript.bound * transcript.stripes, links, self.width,
            len(transcript.messages),
        )
        bench.check("repair", problems)

        report = bench.timed("scenario", coopmds.run_scenario, self.config, workers=2)
        problems = []
        repairs = [ev for ev in report.events if ev["event"] == "repair"]
        if len(repairs) != self.repairs:
            problems.append(f"{len(repairs)} repair events, expected {self.repairs}")
        for ev in repairs:
            if ev["optimal"] is not True or ev["agreement"] is not True:
                problems.append(f"repair of {ev['failed']} not optimal or meter disagrees")
        if not all(ev["ok"] for ev in report.events if ev["event"] == "verify"):
            problems.append("a verify event failed")
        bench.record["agreement"] = [sum(ev["agreement"] is True for ev in repairs), len(repairs)]
        meter = report.meter
        bench.repair_traffic(
            sum(ev["ledger_total"] for ev in repairs),
            sum(Fraction(str(ev["bounds"][ev["mode"]])) for ev in repairs),
            {f"{s}->{r}": c for (s, r), c in meter.link_totals().items()},
            self.width,
            len(meter.log),
        )
        bench.check("scenario", problems)


def run_phase(workload, bench: Bench, budget: float) -> list[dict]:
    """Cycles until the next one would end after ``budget`` seconds."""
    records: list[dict] = []
    start = time.perf_counter()
    while not bench.failed:
        if records:
            typical = statistics.median(r["wall"] for r in records)
            if time.perf_counter() - start + typical > budget:
                break
        bench.begin_cycle()
        began = time.perf_counter()
        try:
            workload.cycle(bench)
        except Exception:  # a crashing op is a failed op, reported with its traceback
            traceback.print_exc(file=sys.stderr)
            bench.attempted += 1
            bench.failed += 1
            bench.problems.append(f"cycle {bench.cycle_no}: {sys.exc_info()[1]!r}")
        bench.record["wall"] = time.perf_counter() - began
        bench.record["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records.append(bench.record)
    return records


def _percentile_tail(samples: list[float]) -> "dict | None":
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    idx = len(ordered) - 11
    if idx < 0:
        return None
    return {"p": 100.0 * (idx + 1) / len(ordered), "s": ordered[idx]}


def e2e_metrics(workload, records: list[dict], is_file: bool) -> tuple[dict, dict]:
    mib = workload.user_bytes / MIB
    samples = {}
    for op in FILE_OPS:
        times = [r["times"][op] for r in records if op in r["times"]]
        samples[op] = times
    scenario = (
        [sum(r["times"].values()) for r in records if len(r["times"]) == len(FILE_OPS) + 1]
        if is_file
        else [r["times"]["scenario"] for r in records if "scenario" in r["times"]]
    )
    samples["scenario"] = scenario
    metrics = {f"{op}_mibps": mib / statistics.median(samples[op]) for op in FILE_OPS}
    metrics["scenario_s"] = statistics.median(scenario)
    last = records[-1]
    metrics["stored_bytes_per_user_byte"] = last["stored_bytes"] / workload.user_bytes
    total = sum(r["traffic"][0] for r in records)
    bound = sum(r["traffic"][1] for r in records)
    metrics["traffic_vs_bound"] = float(total / bound)
    detail = {
        op: {"n": len(times), "median_s": statistics.median(times), "tail": _percentile_tail(times)}
        for op, times in samples.items()
    }
    return metrics, detail


def trace_metrics(workload, tracer: Tracer, records: list[dict], plain: list[dict]) -> dict:
    by_cycle: dict[int, list] = {}
    for span in tracer.spans:
        by_cycle.setdefault(span.op[0], []).append(span)
    rows = []
    for rec in records:
        row = span_metrics(by_cycle.get(rec["cycle"], []), FILE_OPS)
        row["repair.symbols_moved"] = rec["symbols"]
        row["repair.bytes_moved"] = sum(rec["links_bytes"].values())
        row["repair.messages"] = rec["messages"]
        agree, events = rec["agreement"]
        row["cluster.meter_agreement"] = agree / events if events else 0.0
        row["cli.write_bytes_per_user_byte"] = row["cli.io.write_bytes"] / workload.user_bytes
        rows.append(row)
    metrics = median_of(rows)
    metrics.update(setup_metrics(by_cycle.get(0, [])))
    traced = statistics.median(sum(r["times"].values()) for r in records)
    untraced = statistics.median(sum(r["times"].values()) for r in plain)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("file_gf256", "file_gf65536", "cluster_universal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", choices=("read", "degraded_read"))
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = (0, "setup")
    spec = build_code(args.workload, args.tiny)
    if tracer is not None:
        tracer.uninstall()

    is_file = args.workload.startswith("file_")
    workdir = Path.cwd() / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if is_file:
            size = FILE_SIZES[args.workload][1 if args.tiny else 0]
            workload = FileWorkload(spec, size, args.seed, workdir)
        else:
            events = TINY_EVENTS if args.tiny else UNIVERSAL_EVENTS
            workload = ClusterWorkload(spec, args.seed, events)
        plain_bench = Bench(None, args.corrupt)
        budget = args.seconds / 2 if tracer is not None else args.seconds
        plain = run_phase(workload, plain_bench, budget)
        benches = [plain_bench]
        traced: list[dict] = []
        if tracer is not None and not plain_bench.failed:
            traced_bench = Bench(tracer, args.corrupt)
            traced_bench.cycle_no = plain_bench.cycle_no
            tracer.install()
            try:
                traced = run_phase(workload, traced_bench, budget)
            finally:
                tracer.uninstall()
            benches.append(traced_bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": [p for b in benches for p in b.problems][:20],
        "numpy": np.__version__,
        "coopmds": str(Path(coopmds.__file__).resolve().parent),
        # set-up plus one cycle, so the figure does not depend on how many
        # cycles fit in the time
        "peak_rss_mib": plain[0]["maxrss_mib"],
    }
    if not failed:
        metrics, detail = e2e_metrics(workload, plain, is_file)
        result["e2e"] = metrics
        result["samples"] = detail
        result["links_bytes"] = plain[-1]["links_bytes"]
        if tracer is not None:
            result["per_layer"] = trace_metrics(workload, tracer, traced, plain)
            if args.trace_out is not None:
                args.trace_out.parent.mkdir(parents=True, exist_ok=True)
                layer_self = {k: v for k, v in result["per_layer"].items() if k.startswith("layer.")}
                doc = {
                    "spans": tracer.export(),
                    "layer_self_s": layer_self,
                    "overhead_s": result["per_layer"]["trace.overhead_s"],
                }
                args.trace_out.write_text(json.dumps(doc))
                result["trace_file"] = str(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
