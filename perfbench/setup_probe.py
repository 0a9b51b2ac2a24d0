"""The codes the workloads run, and the set-up probe behind ``setup_s``.

Run as a script, it times what a fresh interpreter pays before its first
operation: importing coopmds (and with it numpy) and building the
workload's code, its coefficient matrix and its field tables.  It prints the
seconds as one JSON line:

    PYTHONPATH=src python3 perfbench/setup_probe.py file_gf256

The module imports nothing heavy at the top, so the import of coopmds
happens inside the timed region.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# workload -> (full-size code, tiny code used by the self-test); a code is
# ("fixed_subset", n, k, h, d, field kind, field modulus) or
# ("concat", n, k, [(h, d), ...]) of any_subset codes over GF(13).
CODES = {
    "file_gf256": (("fixed_subset", 5, 2, 2, 3, "binary", 8),) * 2,
    "file_gf65536": (("fixed_subset", 5, 2, 2, 3, "binary", 16),) * 2,
    "cluster_universal": (("universal", 4, 1), ("concat", 4, 1, ((2, 2), (1, 2)))),
}


def build_code(workload: str, tiny: bool):
    """Build the workload's CodeSpec with its coefficient matrix and field."""
    import coopmds

    desc = CODES[workload][1 if tiny else 0]
    if desc[0] == "fixed_subset":
        _, n, k, h, d, kind, modulus = desc
        spec = coopmds.make_code("fixed_subset", n, k, h, d, coopmds.FieldSpec(kind, modulus))
    elif desc[0] == "universal":
        spec = coopmds.universal_code(desc[1], desc[2])
    else:
        _, n, k, pairs = desc
        gf13 = coopmds.FieldSpec("prime", 13)
        spec = coopmds.concat([coopmds.make_code("any_subset", n, k, h, d, gf13) for h, d in pairs])
    spec.coeff_matrix()
    coopmds.make_field(spec.fieldspec)
    return spec


def main(argv: list[str]) -> int:
    workload, tiny = argv[0], "--tiny" in argv[1:]
    start = time.perf_counter()
    build_code(workload, tiny)
    elapsed = time.perf_counter() - start
    import coopmds

    origin = Path(coopmds.__file__).resolve().parent
    print(json.dumps({"setup_s": elapsed, "coopmds": str(origin)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
