"""The nine advertised guarantees, one test per criterion.

Expectations come from closed-form bandwidth formulas and the brute-force
oracles, never from library constants, and every equality is exact integer
equality.  Each test prints a PASS line (visible under pytest -s) so a full
run reads as a scorecard.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np

from lib_helpers import multiindex
from oracles import (
    digits_of,
    dual_vandermonde_codewords,
    indicator_mask,
    pair_digit_mask,
    parity_count_mask,
)

from coopmds.cli import EXIT_OK, main
from coopmds.cluster import ClusterConfig, run_scenario
from coopmds.codec import CodewordArray, encode_systematic
from coopmds.codespec import (
    CodeParams,
    CodeSpec,
    InadmissibleError,
    card_A,
    make_code,
    min_field_order,
    universal_code,
)
from coopmds.field import FieldSpec, make_field, smallest_field_spec
from coopmds.grs import recover_batched
from coopmds.repair import (
    RepairContext,
    centralized_repair_from_round1,
    cooperative_repair,
)


def _pass(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}", flush=True)


def fixed_specs(n_lo: int = 4, n_hi: int = 8) -> list[CodeSpec]:
    """Every admissible fixed-subset spec over its minimal field."""
    specs = []
    for n in range(n_lo, n_hi + 1):
        for k in range(1, n):
            for h in range(1, n - k):
                for d in range(k + 1, n - h + 1):
                    try:
                        fs = smallest_field_spec(min_field_order("fixed_subset", n, h, d + 1 - k))
                        specs.append(make_code("fixed_subset", n, k, h, d, fs))
                    except InadmissibleError:
                        continue
    return specs


def encode_batch(spec: CodeSpec, count: int, seed: int) -> np.ndarray:
    """count random codewords as one (l*count, n) array, row-major by row."""
    p = spec.params
    rng = np.random.default_rng(seed)
    data = rng.integers(0, spec.field.order, size=(p.l, count, p.k))
    flat = data.reshape(p.l * count, p.k)
    points = np.repeat(spec.coeff_matrix(), count, axis=0)
    parity = recover_batched(spec.field, points, p.r, np.arange(p.k), flat)
    return np.concatenate([flat, parity], axis=1)


def random_codeword(spec: CodeSpec, seed: int) -> CodewordArray:
    rng = np.random.default_rng(seed)
    return encode_systematic(
        spec, rng.integers(0, spec.field.order, size=(spec.params.l, spec.params.k))
    )


def erased(cw: CodewordArray, failed) -> CodewordArray:
    cells = cw.cells.copy()
    for i in failed:
        cells[:, i - 1] = 0
    return CodewordArray(cw.spec, cells)


def any_subset_trials(spec: CodeSpec):
    p = spec.params
    for failed in itertools.combinations(range(1, p.n + 1), p.h):
        rest = sorted(set(range(1, p.n + 1)) - set(failed))
        for helpers in itertools.combinations(rest, p.d):
            yield RepairContext(failed, helpers)


# ---- criterion 1: MDS property ------------------------------------------------


def test_criterion_1_mds_every_k_subset():
    specs = fixed_specs()
    assert len(specs) >= 100  # n in 4..8 yields a three-digit sweep
    checked = 0
    for spec in specs:
        p = spec.params
        cells = encode_batch(spec, 100, seed=hash((p.n, p.k, p.h, p.d)) & 0xFFFF)
        points = np.repeat(spec.coeff_matrix(), 100, axis=0)
        for known in itertools.combinations(range(p.n), p.k):
            known = np.array(known)
            rest = np.setdiff1d(np.arange(p.n), known)
            got = recover_batched(spec.field, points, p.r, known, cells[:, known])
            assert np.array_equal(got, cells[:, rest]), (p, tuple(known))
            checked += 1
    _pass(1, f"{len(specs)} fixed-subset specs, {checked} k-subsets x 100 codewords each")


# ---- criterion 2: fixed-subset repair optimality -------------------------------


def test_criterion_2_fixed_subset_repair_bandwidth():
    by_params: dict[tuple, tuple[int, int]] = {}
    trials = 0
    for spec in fixed_specs():
        p = spec.params
        cw = random_codeword(spec, seed=p.n * 1000 + p.k * 100 + p.h * 10 + p.d)
        damaged = erased(cw, range(1, p.h + 1))
        assert p.l % (p.h + p.d - p.k) == 0
        quota = p.l // (p.h + p.d - p.k)
        for helpers in itertools.combinations(range(p.h + 1, p.n + 1), p.d):
            ctx = RepairContext(tuple(range(1, p.h + 1)), helpers)
            restored, transcript = cooperative_repair(spec, damaged, ctx)
            assert restored == cw
            total = transcript.ledger.total
            assert total * (p.h + p.d - p.k) == p.h * (p.h + p.d - 1) * p.l
            assert all(c == quota for c in transcript.ledger.link_counts().values())
            trials += 1
        by_params[(p.n, p.k, p.h, p.d)] = (p.l, total)
    assert by_params[(6, 2, 2, 4)] == (8, 20)  # s=3 case
    assert by_params[(6, 2, 3, 3)] == (4, 15)  # h=3 case
    _pass(2, f"{trials} (spec, helper-set) trials, every link at quota")


# ---- criterion 3: any-subset repair optimality ---------------------------------


def test_criterion_3_any_subset_repair_bandwidth():
    cases = [
        make_code("any_subset", 4, 1, 2, 2, smallest_field_spec(min_field_order("any_subset", 4, 2, 2))),
        make_code("any_subset", 5, 2, 2, 3, smallest_field_spec(min_field_order("any_subset", 5, 2, 2))),
    ]
    assert [spec.params.l for spec in cases] == [729, 59049]
    trials = 0
    for spec in cases:
        p = spec.params
        cw = random_codeword(spec, seed=p.n)
        expected = Fraction(2 * (p.d + 1) * p.l, p.s + 1)
        assert expected.denominator == 1
        for ctx in any_subset_trials(spec):
            restored, transcript = cooperative_repair(spec, erased(cw, ctx.failed), ctx)
            assert restored == cw
            assert transcript.ledger.total == expected
            trials += 1
    _pass(3, f"{trials} (F, R) trials across l=729 and l=59049, total = 2(d+1)l/(s+1)")


# ---- criterion 4: centralized repair from pooled round-1 messages ---------------


def test_criterion_4_centralized_totals_in_every_trial():
    trials = 0
    for spec in fixed_specs():
        p = spec.params
        cw = random_codeword(spec, seed=p.n * 7 + p.d)
        damaged = erased(cw, range(1, p.h + 1))
        for helpers in itertools.combinations(range(p.h + 1, p.n + 1), p.d):
            ctx = RepairContext(tuple(range(1, p.h + 1)), helpers)
            restored, transcript = centralized_repair_from_round1(spec, damaged, ctx)
            assert restored == cw
            assert transcript.ledger.total * (p.h + p.d - p.k) == p.h * p.d * p.l
            assert transcript.ledger.round_subtotal(2) == 0
            trials += 1
    for spec in (
        make_code("any_subset", 4, 1, 2, 2, smallest_field_spec(8)),
        make_code("any_subset", 5, 2, 2, 3, smallest_field_spec(10)),
    ):
        p = spec.params
        cw = random_codeword(spec, seed=p.n)
        for ctx in any_subset_trials(spec):
            restored, transcript = centralized_repair_from_round1(spec, erased(cw, ctx.failed), ctx)
            assert restored == cw
            assert transcript.ledger.total * (p.h + p.d - p.k) == p.h * p.d * p.l
            trials += 1
    _pass(4, f"{trials} centralized trials, total = hdl/(h+d-k) with no second round")


# ---- criterion 5: specialization equivalences -----------------------------------


def _asj_matrix(spec: CodeSpec) -> np.ndarray:
    """Two-failure parity table with rows indexed a = b1 + s*b2."""
    p = spec.params
    out = np.empty((p.l, p.n), dtype=np.int64)
    for a in range(p.s * p.s - 1):
        b1, b2 = a % p.s, a // p.s
        out[a, 0] = spec.lam[0, b1]
        out[a, 1] = spec.lam[1, b2]
        out[a, 2:] = spec.lam[2:, 0]
    return out


def _eov_matrix(spec: CodeSpec) -> np.ndarray:
    """d=k+1 parity table with rows 0, e_1, ..., e_h in that order."""
    p = spec.params
    out = np.empty((p.l, p.n), dtype=np.int64)
    out[:] = spec.lam[:, 0]
    for a in range(1, p.h + 1):
        out[a, a - 1] = spec.lam[a - 1, 1]
    return out


def _mapped_block_rows(
    spec: CodeSpec, digit_rows: np.ndarray, base: int, digit_map: np.ndarray
) -> np.ndarray:
    """Translate per-digit row indices into the block-row convention."""
    p = spec.params
    dig = digit_map[digits_of(digit_rows, base, p.m)]
    weights = card_A(p.h, p.s) ** np.arange(p.m, dtype=np.int64)
    return (dig * weights).sum(axis=-1)


def _pair_digit_map(spec: CodeSpec) -> np.ndarray:
    s = spec.params.s
    return np.array([spec.apos_of((x % s, x // s)) for x in range(s * s - 1)], dtype=np.int64)


def _unit_digit_map(spec: CodeSpec) -> np.ndarray:
    h = spec.params.h
    positions = [0] + [
        spec.apos_of(tuple(int(pos == u) for pos in range(1, h + 1))) for u in range(1, h + 1)
    ]
    return np.array(positions, dtype=np.int64)


def test_criterion_5_specialization_equivalences():
    # h=2 coefficient matrices against the two-digit-mask construction
    asj_checked = 0
    for spec in fixed_specs(4, 6):
        p = spec.params
        if p.h != 2:
            continue
        order = np.array(
            [a1 + p.s * a2 for a1, a2 in (multiindex(spec, r).digits for r in range(p.l))]
        )
        assert np.array_equal(spec.coeff_matrix(), _asj_matrix(spec)[order])
        asj_checked += 1
    assert asj_checked >= 6

    # d=k+1 coefficient matrices against the zero-and-unit-row construction
    eov_checked = 0
    for spec in fixed_specs(4, 6):
        p = spec.params
        if p.d != p.k + 1 or p.h < 2:
            continue
        order = _unit_digit_map(spec)
        assert np.array_equal(spec.coeff_matrix()[order], _eov_matrix(spec))
        eov_checked += 1
    assert eov_checked >= 6

    # h=2, s=2 masks: exhaustive at n=4 and n=5
    for n, fs in ((4, smallest_field_spec(8)), (5, smallest_field_spec(10))):
        spec = make_code("any_subset", n, 1, 2, 2, fs)
        rows = np.arange(spec.params.l)
        mapped = _mapped_block_rows(spec, rows, 3, _pair_digit_map(spec))
        got = spec.mask_columns(mapped)
        for i in range(1, n + 1):
            assert np.array_equal(got[:, i - 1], parity_count_mask(n, i, rows))

    # h=2, s=3 masks: exhaustive at n=4 (virtual spec; no admissible k there)
    params = CodeParams(n=4, k=1, r=3, h=2, d=3, s=3, l=card_A(2, 3) ** 6, m=6)
    spec = CodeSpec("any_subset", params, FieldSpec("prime", 13), np.arange(12).reshape(4, 3))
    rows = np.arange(spec.params.l)
    mapped = _mapped_block_rows(spec, rows, 8, _pair_digit_map(spec))
    got = spec.mask_columns(mapped)
    for i in range(1, 5):
        assert np.array_equal(got[:, i - 1], pair_digit_mask(4, 3, i, rows))

    # h=2, s=3 masks at n=5: 8^10 rows is beyond exhaustive reach, so cover a
    # dense low slab, an even stride through the whole range, and a random
    # sample instead
    params = CodeParams(n=5, k=1, r=4, h=2, d=3, s=3, l=card_A(2, 3) ** 10, m=10)
    spec = CodeSpec("any_subset", params, FieldSpec("prime", 13), np.arange(15).reshape(5, 3))
    rng = np.random.default_rng(0)
    rows = np.unique(
        np.concatenate(
            [
                np.arange(1 << 20),
                np.arange(1 << 20) * (spec.params.l >> 20),
                rng.integers(0, spec.params.l, 1 << 20),
            ]
        )
    )
    mapped = _mapped_block_rows(spec, rows, 8, _pair_digit_map(spec))
    got = spec.mask_columns(mapped)
    for i in range(1, 6):
        assert np.array_equal(got[:, i - 1], pair_digit_mask(5, 3, i, rows))

    # s=2, h=3 masks: exhaustive at n=4 and n=5 (the n=5 spec is real)
    lo_cases = [
        (4, CodeSpec("any_subset", CodeParams(n=4, k=1, r=3, h=3, d=2, s=2, l=card_A(3, 2) ** 4, m=4), FieldSpec("prime", 13), np.arange(8).reshape(4, 2))),
        (5, make_code("any_subset", 5, 1, 3, 2, smallest_field_spec(10))),
    ]
    for n, spec in lo_cases:
        rows = np.arange(spec.params.l)
        mapped = _mapped_block_rows(spec, rows, spec.params.h + 1, _unit_digit_map(spec))
        got = spec.mask_columns(mapped)
        for i in range(1, n + 1):
            assert np.array_equal(got[:, i - 1], indicator_mask(n, spec.params.h, i, rows))

    # s=2, h=4 masks at n=5 (virtual; d=k+1 leaves no room for k at n=5)
    params = CodeParams(n=5, k=1, r=4, h=4, d=2, s=2, l=card_A(4, 2) ** 5, m=5)
    spec = CodeSpec("any_subset", params, FieldSpec("prime", 13), np.arange(10).reshape(5, 2))
    rows = np.arange(spec.params.l)
    mapped = _mapped_block_rows(spec, rows, 5, _unit_digit_map(spec))
    got = spec.mask_columns(mapped)
    for i in range(1, 6):
        assert np.array_equal(got[:, i - 1], indicator_mask(5, 4, i, rows))

    _pass(
        5,
        f"{asj_checked} two-failure and {eov_checked} d=k+1 matrix identities; "
        "mask rules match exhaustively at n<=5 (s=3 n=5 sampled over 3M rows)",
    )


# ---- criterion 6: universal code ------------------------------------------------


def test_criterion_6_universal_code_all_pairs():
    spec = universal_code(4, 1)
    p = spec.params
    assert p.l == 944784
    cw = random_codeword(spec, seed=41)
    results = {}
    for failed, helpers in [((1,), (2, 3)), ((1,), (2, 3, 4)), ((1, 2), (3, 4))]:
        ctx = RepairContext(failed, helpers)
        restored, transcript = cooperative_repair(spec, erased(cw, failed), ctx)
        assert restored == cw
        assert transcript.optimal
        results[(ctx.h, ctx.d)] = transcript.ledger.total
    assert results == {(1, 2): 944784, (1, 3): 944784, (2, 2): 1889568}
    _pass(6, "l=944784 universal code repairs (1,2), (1,3), (2,2) at exact bounds")


# ---- criterion 7: erasure kernel against brute force -----------------------------


def test_criterion_7_kernel_matches_brute_force():
    fields = [
        FieldSpec("prime", 2),
        FieldSpec("prime", 3),
        FieldSpec("binary", 2),
        FieldSpec("prime", 5),
        FieldSpec("prime", 7),
        FieldSpec("binary", 3),
        FieldSpec("prime", 11),
    ]
    recoveries = 0
    for fs in fields:
        field = make_field(fs)
        for length in range(2, min(6, field.order) + 1):
            points = list(range(length))
            for parity in range(1, min(3, length - 1) + 1):
                words = dual_vandermonde_codewords(field, points, parity)
                assert len(words) == field.order ** (length - parity)
                tiled = np.tile(np.array(points, dtype=np.int64), (len(words), 1))
                for erase in itertools.combinations(range(length), parity):
                    keep = np.setdiff1d(np.arange(length), erase)
                    got = recover_batched(field, tiled, parity, keep, words[:, keep])
                    assert np.array_equal(got, words[:, list(erase)])
                    recoveries += 1
    _pass(7, f"{recoveries} (field, length, parity, erasure-set) sweeps recovered exactly")


# ---- criterion 8: file round trip ------------------------------------------------


def test_criterion_8_file_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    payload = rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    src = tmp_path / "blob.bin"
    src.write_bytes(payload)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv) == EXIT_OK
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    capsys.readouterr()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["per_stripe"] == 8
    assert report["optimal"] is True
    dest = tmp_path / "restored.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_OK
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == hashlib.sha256(payload).hexdigest()
    _pass(8, "1 MiB GF(256) round trip, per-stripe bandwidth 8, hashes equal")


# ---- criterion 9: determinism ------------------------------------------------------


def test_criterion_9_byte_identical_reports(tmp_path):
    spec = make_code("any_subset", 4, 1, 2, 2, smallest_field_spec(8))
    events = (
        {"type": "fail", "nodes": [1, 2]},
        {"type": "repair", "helpers": [3, 4]},
        {"type": "verify"},
        {"type": "fail", "nodes": [2, 4]},
        {"type": "repair", "helpers": [1, 3], "mode": "centralized"},
        {"type": "verify"},
    )
    config = ClusterConfig(spec, 90125, events)
    reports = [run_scenario(config, workers=w).to_json() for w in (1, 1, 2, 2, 4, 4)]
    assert len(set(reports)) == 1
    doc = json.loads(reports[0])
    assert [ev["event"] for ev in doc["events"]] == ["fail", "repair", "verify"] * 2
    assert all(ev["ok"] for ev in doc["events"] if ev["event"] == "verify")
    _pass(9, "6 runs across worker counts 1/2/4 produced one identical report")
