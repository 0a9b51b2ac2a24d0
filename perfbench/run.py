"""The coopmds benchmark.

Run from the root of a coopmds checkout:

    python3 perfbench/run.py --workload file_gf256 --seed 1 --seconds 40 --trace 0

Workloads (each a closed loop: one client, one process):

* ``file_gf256``: a 1 MiB random file, fixed_subset (n,k,h,d)=(5,2,2,3) over
  GF(2^8), driven in-process through ``coopmds.cli.main``: encode, verify,
  read (decode with every shard), delete shards 1 and 2, degraded_read
  (decode from shards 3 and 4), repair --fail 1,2 --helpers 3,4,5.
* ``file_gf65536``: the same cycle on a 4 MiB file over GF(2^16).
* ``cluster_universal``: ``universal_code(4, 1)`` over GF(13) (l=944,784):
  encode_systematic, verify_parity, decode_from_columns from node 1 (read)
  and from node 4 (degraded_read), repair_columns of {1,3} from {2,4}, then
  one ``run_scenario(workers=2)`` with three fail/repair/verify rounds.

``setup_s`` is the median over fresh interpreters of importing coopmds and
building the workload's code, coefficient matrix and field tables.  The
workload itself runs in a child process, whose ``ru_maxrss`` is
``peak_rss_mib``.  Every op's output is checked (SHA-256 of decoded files,
byte-identical restored shards, parity ok, optimal repair traffic, meter
agreement); a wrong output counts as failed, and the command then exits 1.

With ``--trace 1`` the child runs half its time untraced and half under the
span tracer (tracer.py), prints the per-layer metrics, and writes the spans
to ``.perfbench/trace-<workload>-seed<seed>.json``.

Lines before the last are a readable report: the run context, each op's
sample count, median and tail percentile, repair bytes per link, and the
error rate.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("file_gf256", "file_gf65536", "cluster_universal")
SETUP_PROBES = 9
RUN_LIMIT_S = 170

E2E_UNITS = {
    "encode_mibps": "MiB/s",
    "verify_mibps": "MiB/s",
    "read_mibps": "MiB/s",
    "degraded_read_mibps": "MiB/s",
    "repair_mibps": "MiB/s",
    "scenario_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "stored_bytes_per_user_byte": "ratio",
    "traffic_vs_bound": "ratio",
    "success_rate": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_bytes") or name == "repair.bytes_moved":
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_parallelism", "_agreement", "_per_user_byte")):
        return "ratio"
    return "count"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(root: Path, seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "coopmds"),
        "seed": seed,
    }


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, workload: str, tiny: bool, deadline: float) -> list[float]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload] + (["--tiny"] if tiny else [])
    expected = str((root / "src" / "coopmds").resolve())
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            argv, cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if doc["coopmds"] != expected:
            raise RuntimeError(f"imported coopmds from {doc['coopmds']}, not {expected}")
        times.append(doc["setup_s"])
    return times


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description="coopmds benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", help="self-test: corrupt this op's output before checking")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "coopmds" / "__init__.py").is_file():
        print(f"error: no src/coopmds under {root}; run from a coopmds checkout", file=sys.stderr)
        return 2
    context = run_context(root, args.seed)

    setup = [] if args.trace else measure_setup(root, args.workload, args.tiny, deadline)
    child = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        child.append("--tiny")
    if args.corrupt:
        child += ["--corrupt", args.corrupt]
    if args.trace:
        out = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        child += ["--trace-out", str(out)]
    proc = subprocess.run(
        child, cwd=root, env=_child_env(root), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    context["numpy"] = res["numpy"]
    if res["coopmds"] != str((root / "src" / "coopmds").resolve()):
        print(f"error: workload imported coopmds from {res['coopmds']}", file=sys.stderr)
        return 2

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and attempted > 0
    print("context " + json.dumps(context, sort_keys=True))
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    print(f"ops attempted {attempted} failed {failed} error_rate {failed / max(attempted, 1)}")

    metrics: dict[str, dict] = {}
    if correct:
        for op, d in res["samples"].items():
            tail = d["tail"]
            tail_text = (
                f"p{tail['p']:g} {tail['s']:.6f} s" if tail else "no percentile has 10 samples beyond it"
            )
            print(f"op {op}: n={d['n']} median {d['median_s']:.6f} s, {tail_text}")
        print("repair bytes per link " + json.dumps(res["links_bytes"], sort_keys=True))
        if args.trace:
            values = res["per_layer"]
            units = {name: per_layer_unit(name) for name in values}
            print(f"trace file {res.get('trace_file')}")
        else:
            values = dict(res["e2e"])
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mib"] = res["peak_rss_mib"]
            values["success_rate"] = 1 - failed / attempted
            units = E2E_UNITS
            print("setup_s samples " + json.dumps(setup))
        for name in units:
            metrics[name] = {"value": values[name], "unit": units[name]}
            print(f"metric {name} {values[name]!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
