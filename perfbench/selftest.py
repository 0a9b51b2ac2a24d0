"""Self-test of the benchmark.

Run from the repository root (takes about a minute):

    python3 perfbench/selftest.py

For every workload at its tiny size, an untraced and a traced run must
succeed and print every metric BENCHMARK.json names for that mode, with the
unit it names; end-to-end values must be non-zero.  A run whose decode
output is deliberately corrupted must count a failed op, report
``correct: false`` and exit non-zero.  Run from a directory holding only
BENCHMARK.json and the benchmark's files, the benchmark must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "1", "--tiny"]


def _run(args: list[str], cwd: Path = ROOT) -> tuple[int, "dict | None"]:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = _run([*RUN, "--workload", workload, "--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            if rc != 0 or res is None or res["correct"] is not True or res["failed"] != 0:
                failures.append(f"{where}: exit {rc}, result {res}")
                continue
            if res["attempted"] < 1:
                failures.append(f"{where}: no ops attempted")
            metrics = res["metrics"]
            expected = {m["name"]: m["unit"] for m in bench[key]}
            if set(metrics) != set(expected):
                failures.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {name} printed as {got}, expected unit {unit}")
                elif key == "end_to_end" and got["value"] == 0:
                    failures.append(f"{where}: {name} is zero")
        rc, res = _run([*RUN, "--workload", workload, "--trace", "0", "--corrupt", "read"])
        if rc == 0 or res is None or res["correct"] is not False or res["failed"] < 1:
            failures.append(f"{workload} with a corrupted read: exit {rc}, result {res}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = _run([*bench["command"][1:], "--workload", bench["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if rc == 0 or res is not None:
            failures.append(f"without the program: exit {rc}, result {res}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
