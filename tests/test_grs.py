"""Vandermonde solver and erasure kernel against brute-force oracles."""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmds.codespec import make_code
from coopmds.field import Field, FieldSpec, make_field
from coopmds.grs import _RowGroups, recover_batched, solve_batched
from lib_helpers import (
    field_pow,
    grs_erasure_recover,
    solve_vandermonde,
    spy_completion_paths,
    vandermonde_matrix,
)
from oracles import complete_by_elimination, dual_vandermonde_codewords

# the fields whose narrow symbols the kernels must handle: small and large
# primes (GF(251) sums wrap a uint8, GF(65521) products a uint16) and both
# binary widths
NARROW_FIELDS = [("prime", 13), ("prime", 251), ("prime", 65521), ("binary", 8), ("binary", 16)]


def complete_row_by_row(f, points, parity: int, known_pos, vals: np.ndarray) -> np.ndarray:
    """complete_by_elimination on (systems, known, stripes) symbols, taking
    the systems of one distinct row, which share its map, as the stripes of
    one system: one elimination per row rather than per system."""
    distinct, which = np.unique(points, axis=0, return_inverse=True)
    out = np.empty((len(points), parity, vals.shape[2]), dtype=np.int64)
    for u, row in enumerate(distinct):
        sel = np.flatnonzero(which.reshape(-1) == u)
        got = complete_by_elimination(f, row[None], parity, known_pos, np.moveaxis(vals[sel], 0, -1)[None])
        out[sel] = np.moveaxis(got[0], -1, 0)
    return out


def test_solve_single_point():
    f = make_field("prime", 7)
    assert solve_vandermonde(f, [5], [3]) == [3]


def test_solve_zero_rhs_gives_zero():
    f = make_field("prime", 11)
    assert solve_vandermonde(f, [0, 1, 5, 7], [0, 0, 0, 0]) == [0, 0, 0, 0]


def test_solve_two_point_example():
    # rhs built by forward substitution from y = (4, 5)
    f = make_field("prime", 7)
    rhs = [f.add(4, 5), f.add(4, f.mul(2, 5))]
    assert solve_vandermonde(f, [1, 2], rhs) == [4, 5]


@pytest.mark.parametrize("spec", [("prime", 13), ("binary", 4)])
def test_solve_then_evaluate_is_identity(spec):
    f = make_field(*spec)
    rng = np.random.default_rng(11)
    for q in range(1, min(7, f.order) + 1):
        points = rng.choice(f.order, size=q, replace=False).tolist()
        rhs = rng.integers(0, f.order, size=q).tolist()
        y = solve_vandermonde(f, points, rhs)
        forward = vandermonde_matrix(f, points, q)
        got = [int(f.sum(f.mul(forward[t], np.asarray(y)))) for t in range(q)]
        assert got == rhs


def test_solve_rejects_repeated_points_and_bad_rhs():
    f = make_field("prime", 7)
    with pytest.raises(ValueError):
        solve_vandermonde(f, [1, 1], [0, 0])
    with pytest.raises(ValueError):
        solve_vandermonde(f, [1, 2], [0])


def test_vandermonde_matrix_zero_point_has_ones_row():
    # 0^0 = 1 keeps the t=0 row all ones even with a zero point
    f = make_field("prime", 7)
    v = vandermonde_matrix(f, [0, 3], 3)
    assert v[:, 0].tolist() == [1, 0, 0]
    assert v[:, 1].tolist() == [1, 3, 2]


def test_recover_all_zero_knowns():
    f = make_field("prime", 7)
    out = grs_erasure_recover(f, [1, 2, 3, 4], 2, {0: 0, 2: 0})
    assert out == [0, 0, 0, 0]


def test_recover_matches_brute_force_random_codeword():
    f = make_field("prime", 7)
    points = [1, 2, 3, 4]
    words = dual_vandermonde_codewords(f, points, 2)
    assert len(words) == 7**2
    rng = np.random.default_rng(5)
    cw = words[rng.integers(len(words))]
    for erased in itertools.combinations(range(4), 2):
        known = {p: int(cw[p]) for p in range(4) if p not in erased}
        assert grs_erasure_recover(f, points, 2, known) == cw.tolist()


@pytest.mark.parametrize("spec,npts,parity", [(("prime", 5), 4, 2), (("binary", 3), 4, 2), (("prime", 7), 5, 3)])
def test_recover_exhaustive_small(spec, npts, parity):
    f = make_field(*spec)
    points = list(range(npts))
    words = dual_vandermonde_codewords(f, points, parity)
    assert len(words) == f.order ** (npts - parity)
    for erased in itertools.combinations(range(npts), parity):
        known_pos = [p for p in range(npts) if p not in erased]
        got = recover_batched(f, np.tile(points, (len(words), 1)), parity, known_pos, words[:, known_pos])
        assert np.array_equal(got, words[:, list(erased)])


def test_recover_error_paths():
    f = make_field("prime", 7)
    with pytest.raises(ValueError):
        grs_erasure_recover(f, [1, 1, 2], 1, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        grs_erasure_recover(f, [1, 2, 3], 1, {0: 0})  # wrong known count
    with pytest.raises(ValueError):
        grs_erasure_recover(f, [1, 2, 3], 3, {})  # nothing known
    with pytest.raises(ValueError):
        grs_erasure_recover(f, [1, 2, 3], 1, {5: 0, 1: 0})


def test_solve_batched_matches_scalar():
    f = make_field("binary", 8)
    rng = np.random.default_rng(17)
    batch, q = 64, 4
    mats = np.empty((batch, q, q), dtype=np.int64)
    for b in range(batch):
        pts = rng.choice(f.order, size=q, replace=False)
        mats[b] = vandermonde_matrix(f, pts.tolist(), q)
    rhs = rng.integers(0, f.order, size=(batch, q))
    sol = solve_batched(f, mats, rhs)
    for b in range(batch):
        # verify by forward multiplication instead of an independent solve
        got = np.asarray([int(f.sum(f.mul(mats[b, t], sol[b]))) for t in range(q)])
        assert np.array_equal(got, rhs[b])


def test_solve_batched_detects_singular():
    f = make_field("prime", 7)
    mats = np.array([[[1, 2], [2, 4]]], dtype=np.int64)  # rank 1
    with pytest.raises(ValueError):
        solve_batched(f, mats, np.array([[1, 1]], dtype=np.int64))


def test_solve_batched_leaves_inputs_untouched():
    f = make_field("prime", 7)
    mats = np.array([[[1, 1], [1, 2]]], dtype=np.int64)
    rhs = np.array([[3, 4]], dtype=np.int64)
    mats_copy, rhs_copy = mats.copy(), rhs.copy()
    solve_batched(f, mats, rhs)
    assert np.array_equal(mats, mats_copy) and np.array_equal(rhs, rhs_copy)


def _eliminate_each(f, points, parity, known_pos, vals):
    """Complete every (system, stripe) with its own Vandermonde elimination."""
    nsys, npts = points.shape
    unknown = [p for p in range(npts) if p not in known_pos]
    stripes = vals.reshape(nsys, len(known_pos), -1).transpose(0, 2, 1)
    nstripes = stripes.shape[1]
    mats = np.empty((nsys, nstripes, parity, parity), dtype=np.int64)
    rhs = np.empty((nsys, nstripes, parity), dtype=np.int64)
    for t in range(parity):
        pw = field_pow(f, points, t)
        mats[:, :, t, :] = pw[:, None, unknown]
        rhs[:, :, t] = f.neg(f.sum(f.mul(pw[:, None, known_pos], stripes), axis=2))
    sol = solve_batched(f, mats.reshape(-1, parity, parity), rhs.reshape(-1, parity))
    return sol.reshape(nsys, nstripes, parity).transpose(0, 2, 1).reshape(
        (nsys, parity) + vals.shape[2:]
    )


@pytest.mark.parametrize("spec", [("prime", 13), ("binary", 8), ("binary", 16)])
@pytest.mark.parametrize("stripes", [None, 1, 6])
def test_recover_batched_matches_per_system_elimination(spec, stripes):
    f = make_field(*spec)
    rng = np.random.default_rng(f.order + (stripes or 0))
    npts, parity = 6, 3
    distinct = np.stack([rng.choice(f.order, size=npts, replace=False) for _ in range(4)])
    points = distinct[rng.integers(0, len(distinct), size=30)]
    frozen = points.copy()
    frozen.setflags(write=False)
    for known_pos in ([0, 1, 2], [1, 3, 5], [2, 4, 5]):
        shape = (len(points), len(known_pos)) + ((stripes,) if stripes else ())
        vals = rng.integers(0, f.order, size=shape)
        expect = _eliminate_each(f, points, parity, known_pos, vals)
        assert np.array_equal(recover_batched(f, points, parity, known_pos, vals), expect)
        for _ in range(2):  # a read-only array changes nothing: each call regroups
            assert np.array_equal(recover_batched(f, frozen, parity, known_pos, vals), expect)
        for b in (0, 17):
            col = vals[b].reshape(len(known_pos), -1)
            for s in range(col.shape[1]):
                known = {p: int(v) for p, v in zip(known_pos, col[:, s])}
                word = grs_erasure_recover(f, points[b].tolist(), parity, known)
                got = expect[b].reshape(parity, -1)[:, s]
                assert [word[p] for p in range(npts) if p not in known_pos] == got.tolist()


def test_recover_batched_rejects_points_outside_the_field():
    f = make_field("prime", 7)
    with pytest.raises(ValueError):
        recover_batched(f, np.array([[1, 2, 9]]), 1, [0, 1], np.array([[1, 1]]))


def test_row_grouping_keeps_the_inverse_index_narrow():
    f = make_field("prime", 13)
    rng = np.random.default_rng(4)
    rows = np.stack([rng.choice(13, size=4, replace=False) for _ in range(300)])
    for nrows, dtype in ((200, np.uint8), (300, np.uint16)):
        points = rows[:nrows][rng.integers(0, nrows, size=5000)]
        groups = _RowGroups(f, points)
        assert groups.inverse.dtype == dtype
        assert np.array_equal(groups.rows[groups.inverse], points)


@pytest.mark.parametrize(
    "kind, modulus, npts, nsys",
    [
        ("prime", 5, 3, 500),  # 125 keys <= 500 systems: presence table
        ("prime", 13, 4, 30_000),  # 28,561 keys, the universal codes' shape
        ("prime", 13, 4, 2_000),  # more keys than systems: sort
        ("binary", 8, 3, 4_000),  # uint32 keys, sort
        ("binary", 16, 5, 300),  # keys beyond int64: row-wise sort
    ],
)
@pytest.mark.parametrize("wide", [False, True])
def test_row_grouping_matches_a_lexicographic_unique(kind, modulus, npts, nsys, wide):
    f = make_field(kind, modulus)
    rng = np.random.default_rng(modulus + npts)
    # few enough distinct rows that some repeat, and some keys never occur
    pool = rng.integers(0, f.order, size=(max(2, nsys // 7), npts))
    points = pool[rng.integers(0, len(pool), size=nsys)]
    points = points if wide else f.as_symbols(points)
    want_rows, want_inverse = np.unique(points, axis=0, return_inverse=True)
    groups = _RowGroups(f, points)
    assert np.array_equal(groups.rows, want_rows)
    assert np.array_equal(groups.inverse, want_inverse.ravel())
    assert groups.inverse.dtype == np.min_scalar_type(len(want_rows) - 1)


def test_grs_keeps_no_cache_of_its_own(monkeypatch):
    import coopmds.grs as grs

    state = [
        name
        for name, value in vars(grs).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert state == []
    assert "threading" not in vars(grs) and "weakref" not in vars(grs)
    built = []
    init = _RowGroups.__init__

    def counting_init(self, field, points):
        built.append(points.shape)
        init(self, field, points)

    monkeypatch.setattr(_RowGroups, "__init__", counting_init)
    f = make_field("prime", 13)
    points = np.array([[1, 2, 3], [4, 5, 6]])
    points.setflags(write=False)
    for _ in range(2):
        recover_batched(f, points, 1, [0, 1], np.array([[1, 2], [3, 4]]))
    assert len(built) == 2


# ---- gather and multiply paths ---------------------------------------------------


@pytest.mark.parametrize("shape", ["many-stripes", "gather", "multiply"])
@pytest.mark.parametrize("spec", NARROW_FIELDS, ids=lambda spec: f"{spec[0]}-{spec[1]}")
def test_both_completion_paths_match_the_oracle_in_every_dtype(spec, shape, monkeypatch):
    f = make_field(*spec)
    rng = np.random.default_rng(f.order)
    distinct = np.stack([rng.choice(f.order, size=5, replace=False) for _ in range(2)])
    # row 0's systems are consecutive (views), row 1's are not (gathers)
    points = distinct[[0, 0, 1, 0, 1]]
    groups = _RowGroups(f, points)
    # the tables of both rows hold 2 x order entries: no more than the
    # stripes (a file's shape; over GF(2^16) a ragged second block of 3
    # stripes), or only than 5 systems x stripes; more on the multiply path
    stripes = {"many-stripes": 2 * f.order + 3, "gather": f.order, "multiply": 5}[shape]
    path = "multiply" if shape == "multiply" else "gather"
    taken = spy_completion_paths(monkeypatch)
    known_pos = [0, 2, 3]
    vals = rng.integers(0, f.order, size=(len(points), len(known_pos), stripes))
    vals[:, :, 0] = f.order - 1  # the top of the field, where narrow sums wrap
    expect = complete_by_elimination(f, points, 2, known_pos, vals)
    for dtype in (np.uint8, np.uint16, np.int64):
        if f.order > np.iinfo(dtype).max + 1:
            continue
        got = groups.complete(2, known_pos, vals.astype(dtype))
        assert got.dtype == f.symbol_dtype
        assert np.array_equal(got, expect), dtype
    assert {t[0] for t in taken} == {path}
    assert {t[4] for t in taken} == ({1} if path == "gather" else {None})


def test_a_stray_symbol_raises_on_a_many_stripe_gather(monkeypatch):
    f = make_field("prime", 13)
    row = f.scale_table(5)
    assert len(row) == 13
    with pytest.raises(IndexError):
        row[np.array([14], dtype=np.uint8)]  # no padded entry to alias it
    groups = _RowGroups(f, np.array([[1, 2, 3, 4]]))
    vals = np.ones((1, 2, 13), dtype=np.uint8)
    taken = spy_completion_paths(monkeypatch)
    good = groups.complete(2, [0, 1], vals)
    assert taken == [("gather", 1, 1, 13, 1)]
    for stray, dtype in ((14, np.uint8), (13, np.uint8), (-1, np.int64)):
        bad = vals.astype(dtype)
        bad[0, 1, 7] = stray
        with pytest.raises(ValueError, match=rf"symbol {stray} is outside GF\(13\)"):
            groups.complete(2, [0, 1], bad)
    assert np.array_equal(groups.complete(2, [0, 1], vals), good)


@pytest.mark.parametrize("spec", [("binary", 8), ("binary", 16), ("prime", 13)])
def test_threads_sharing_one_grouping_build_its_lookup_rows_safely(spec, monkeypatch):
    import sys
    import threading

    f = make_field(*spec)
    rng = np.random.default_rng(53)
    # the binary fields read per-term rows over 2 x order stripes; GF(13) over 400
    # systems of one stripe reads both knowns through one joint table
    # (2 x 13^2 entries), as a round-1 solve of the universal codes does
    systems, stripes = (400, 1) if f.order == 13 else (3, 2 * f.order)
    points = np.stack([rng.choice(f.order, size=4, replace=False) for _ in range(2)])[np.arange(systems) % 2]
    vals = rng.integers(0, f.order, size=(systems, 2, stripes), dtype=f.symbol_dtype)
    expect = complete_by_elimination(f, points, 2, [1, 3], vals)
    groups = _RowGroups(f, points)
    taken = spy_completion_paths(monkeypatch)
    errors = []
    start = threading.Barrier(8)  # every thread finds the tables unbuilt

    def work():
        try:
            start.wait(timeout=60)
            if not np.array_equal(groups.complete(2, [1, 3], vals), expect):
                errors.append("wrong completion")
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(groups.maps) == 1
    assert len(taken) == 8 and len(set(taken)) == 1
    assert taken[0][4] == (2 if f.order == 13 else 1)


@pytest.mark.parametrize("stripes", [1, 12])
@pytest.mark.parametrize("spec", NARROW_FIELDS, ids=lambda spec: f"{spec[0]}-{spec[1]}")
def test_many_row_completion_matches_the_oracle_on_tables_and_multiplies(spec, stripes, monkeypatch):
    f = make_field(*spec)
    rng = np.random.default_rng(f.order + stripes)
    distinct = np.unique([rng.choice(f.order, size=5, replace=False) for _ in range(200)], axis=0)
    points = distinct[rng.integers(0, len(distinct), size=5000)]
    known_pos, parity = [0, 2, 3], 2
    vals = rng.integers(0, f.order, size=(len(points), len(known_pos), stripes))
    vals[:3] = f.order - 1  # the top of the field, where narrow sums wrap
    expect = complete_row_by_row(f, points, parity, known_pos, vals)
    groups = _RowGroups(f, points)
    taken = spy_completion_paths(monkeypatch)
    for dtype in (np.uint8, np.uint16, np.int64):
        if f.order > np.iinfo(dtype).max + 1:
            continue
        got = groups.complete(parity, known_pos, vals.astype(dtype))
        assert got.dtype == f.symbol_dtype
        assert np.array_equal(got, expect), dtype
    # a term's tables hold rows x order entries: read when no more than the
    # systems x stripes they serve, as for GF(13) and, over 12 stripes, the
    # byte fields; wider fields multiply
    path = "gather" if len(distinct) * f.order <= len(points) * stripes else "multiply"
    assert path == ("gather" if f.order == 13 or (f.order <= 256 and stripes == 12) else "multiply")
    assert {t[0] for t in taken} == {path}
    assert len(groups.maps) == 1 and (not groups.maps[(parity, (0, 2, 3))][1]) == (path == "multiply")


# (field, points a row, known positions, distinct rows, systems, stripes,
# group size): the largest t with rows x order^t <= systems x stripes.  An
# entry packs the parity unknowns into the next power of two of lanes, so
# it is a word of lanes x symbol bytes: 2 bytes in the cases without a
# width in their name
GATHER_CASES = {
    "binary-8-1-byte": (("binary", 8), 3, [0, 2], 3, 1000, 1, 1),
    "prime-13-4-bytes": (("prime", 13), 6, [1, 4], 5, 1000, 1, 2),
    "binary-8-8-bytes": (("binary", 8), 7, [2, 5], 3, 1000, 1, 1),
    "binary-16-4-bytes": (("binary", 16), 4, [0, 3], 1, 100, 700, 1),
    "binary-16-8-bytes": (("binary", 16), 5, [2, 1], 1, 100, 700, 1),
    "binary-16-16-bytes": (("binary", 16), 7, [0, 6], 1, 100, 700, 1),
    # uint16 residues near 65521 in every lane, two groups summed by Field.add
    "prime-65521-8-bytes": (("prime", 65521), 5, [3, 0], 1, 100, 700, 1),
    "prime-65521-16-bytes": (("prime", 65521), 7, [1, 5], 1, 100, 700, 1),
    # 700 stripes make blocks of 46 systems: 21 whole ones and a ragged end
    "prime-13": (("prime", 13), 4, [1, 3], 120, 1000, 700, 2),
    "binary-8": (("binary", 8), 4, [1, 3], 120, 1000, 700, 1),
    "prime-13-t1": (("prime", 13), 4, [1, 3], 40, 1000, 1, 1),
    "prime-13-t2": (("prime", 13), 4, [1, 3], 1, 1000, 1, 2),  # one row
    "prime-13-t2-rows": (("prime", 13), 4, [1, 3], 5, 1000, 1, 2),
    "prime-13-t3": (("prime", 13), 5, [0, 2, 4], 2, 5000, 1, 3),
    "prime-13-t3-700": (("prime", 13), 5, [4, 0, 2], 120, 1000, 700, 3),
    "prime-13-ragged": (("prime", 13), 5, [0, 2, 3], 5, 1000, 1, 2),
    "binary-8-t1": (("binary", 8), 4, [1, 3], 3, 1000, 1, 1),
    "binary-8-t2": (("binary", 8), 4, [3, 1], 1, 1 << 16, 1, 2),
    "binary-8-ragged-700": (("binary", 8), 5, [0, 2, 3], 4, 400, 700, 2),
    # a file chunk's shape: stripes outnumber a term's 3 x order entries, so
    # each known is read on its own, in blocks of 2^15 stripes of a system,
    # 70,000 = 2 x 32,768 + a ragged 4,464
    "binary-8-stripe-blocks": (("binary", 8), 5, [0, 2], 3, 3, 70_000, 1),
    "prime-251-stripe-blocks": (("prime", 251), 5, [4, 1], 3, 3, 70_000, 1),
}


@pytest.mark.parametrize("case", GATHER_CASES.values(), ids=GATHER_CASES.keys())
def test_the_gather_path_in_blocks_matches_the_multiply_path(case, monkeypatch):
    spec, npts, known_pos, nrows, nsys, stripes, group = case
    f = make_field(*spec)
    rng = np.random.default_rng(f.order + nsys + stripes)
    distinct = np.unique([rng.choice(f.order, size=npts, replace=False) for _ in range(nrows)], axis=0)
    which = rng.permutation(nsys) % len(distinct)
    points = distinct[which]
    vals = rng.integers(0, f.order, size=(nsys, len(known_pos), stripes)).astype(f.symbol_dtype)
    # the top of the field, where narrow sums wrap; on half the last row's
    # systems every joint table is read at its last entry, rows x order^t - 1
    top = (which == len(distinct) - 1) & (np.arange(nsys) % 2 == 0)
    vals[::5] = vals[top] = f.order - 1
    if stripes > 1 << 15:  # every stripe block of every system, the ragged last one too
        vals[:, :, ::3] = f.order - 1
    groups = _RowGroups(f, points)
    taken = spy_completion_paths(monkeypatch)
    parity = npts - len(known_pos)
    got = groups.complete(parity, known_pos, vals)
    assert taken == [("gather", len(distinct), nsys, stripes, group)]
    unknown_pos = np.setdiff1d(np.arange(npts), known_pos)
    maps = groups.map_for(parity, np.array(known_pos), unknown_pos)[0]
    expect = np.empty((parity, stripes, nsys), dtype=f.symbol_dtype)
    groups._apply_by_multiply(maps, vals, expect)
    assert np.array_equal(got, expect.transpose(2, 0, 1))
    assert np.array_equal(got, complete_row_by_row(f, points, parity, known_pos, vals))


def test_a_wide_field_file_chunk_keeps_one_product_table_per_term(monkeypatch):
    """A (5,2,2,3) GF(2^16) encode chunk reads one known coordinate at a
    time through the packed scale_table rows themselves: the 3 unknowns of
    an entry side by side in 4 lanes (an 8-byte word), the pad lane zero,
    and lanes x known x rows x order symbols in one allocation."""
    f = make_field("binary", 16)
    spec = make_code("fixed_subset", 5, 2, 2, 3, f)
    p = spec.params
    groups = _RowGroups(f, spec.coeff_matrix())
    vals = np.random.default_rng(16).integers(0, f.order, size=(p.l, p.k, 116_508), dtype=np.uint16)
    taken = spy_completion_paths(monkeypatch)
    got = groups.complete(p.r, np.arange(p.k), vals)
    assert taken == [("gather", 3, p.l, 116_508, 1)]
    ((maps, by_group),) = groups.maps.values()
    (tables,) = by_group.values()
    owner = tables[0].base
    assert len(tables) == p.k and all(t.base is owner for t in tables)
    assert owner.size == sum(t.size for t in tables) == 4 * p.k * 3 * f.order
    x = np.arange(f.order)
    for j, table in enumerate(tables):
        assert table.shape == (3, f.order, 4) and not table[:, :, 3].any()
        for u, i in itertools.product(range(3), range(p.r)):
            assert np.array_equal(table[u, :, i], f.mul(maps[u, i, j], x))
    expect = np.empty((p.r, 116_508, p.l), dtype=f.symbol_dtype)
    groups._apply_by_multiply(maps, vals, expect)
    assert np.array_equal(got, expect.transpose(2, 0, 1))


@pytest.mark.parametrize(
    "spec, held, group",
    [(("binary", 16), "scale_table", 1), (("prime", 13), "add", 2)],
    ids=["rows", "joint"],
)
def test_a_completion_while_another_thread_is_inside_the_table_build_is_exact(spec, held, group, monkeypatch):
    """One thread is held inside the build of a map's product tables, at the
    step that fills them (the per-term rows at t = 1, the joint sums at
    t = 2), while a second completes on the same map: it must not read
    tables published before they are filled.  Both results are exact."""
    import threading

    f = Field(FieldSpec(*spec))  # a field of its own: the patch reaches no cached one
    rng = np.random.default_rng(59)
    # GF(13) over 400 systems of one stripe reads knowns 1 and 3 through one
    # joint table and known 4 on its own; GF(2^16) over 2 systems of 65,536
    # stripes reads every known coordinate on its own
    npts, known_pos, systems, stripes = (5, [1, 3, 4], 400, 1) if f.order == 13 else (5, [1, 3], 2, 1 << 16)
    points = np.stack([rng.choice(f.order, size=npts, replace=False) for _ in range(2)])[np.arange(systems) % 2]
    vals = rng.integers(0, f.order, size=(systems, len(known_pos), stripes), dtype=f.symbol_dtype)
    expect = complete_by_elimination(f, points, npts - len(known_pos), known_pos, vals)
    groups = _RowGroups(f, points)
    groups.map_for(npts - len(known_pos), np.array(known_pos), np.setdiff1d(np.arange(npts), known_pos))
    taken = spy_completion_paths(monkeypatch)
    inside, release = threading.Event(), threading.Event()
    real, results = getattr(f, held), {}

    def hold(*args):
        if threading.current_thread().name == "first" and not inside.is_set():
            inside.set()
            assert release.wait(timeout=60)
        return real(*args)

    monkeypatch.setattr(f, held, hold)

    def work():
        try:
            results[threading.current_thread().name] = groups.complete(npts - len(known_pos), known_pos, vals)
        except Exception as exc:  # reported below
            results[threading.current_thread().name] = exc

    first = threading.Thread(target=work, name="first")
    first.start()
    try:
        assert inside.wait(timeout=60)
        second = threading.Thread(target=work, name="second")
        second.start()
        second.join(timeout=60)
        assert not second.is_alive()
    finally:
        release.set()
        first.join(timeout=60)
    assert not first.is_alive()
    for name in ("first", "second"):
        assert isinstance(results[name], np.ndarray), results[name]
        assert np.array_equal(results[name], expect), name
    assert taken == [("gather", 2, systems, stripes, group)] * 2


# ---- properties ----------------------------------------------------------------

PROPERTY_FIELDS = {spec: make_field(*spec) for spec in [("prime", 13), ("prime", 251), ("binary", 8)]}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    spec=st.sampled_from(list(PROPERTY_FIELDS)),
    npts=st.integers(2, 7),
    nrows=st.integers(1, 4),
    nsys=st.integers(1, 40),
    stripes=st.integers(1, 5),
    data=st.data(),
)
def test_recover_batched_matches_the_oracle_on_drawn_inputs(spec, npts, nrows, nsys, stripes, data):
    """Any field, point rows (drawn from a few distinct ones, so that rows
    repeat), parity, known positions in any order and stripes: recover_batched
    gives the elimination oracle's symbols, and so does every kernel forced
    onto the same inputs, the gather path at every group size whose joint
    tables stay small, whatever path the shape would choose."""
    f = PROPERTY_FIELDS[spec]
    parity = data.draw(st.integers(1, min(5, npts - 1)), label="parity")  # words of 1 to 8 bytes
    known_pos = data.draw(st.permutations(range(npts)), label="order")[: npts - parity]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    distinct = np.stack([rng.choice(f.order, size=npts, replace=False) for _ in range(nrows)])
    points = distinct[rng.integers(0, nrows, size=nsys)]
    vals = rng.integers(0, f.order, size=(nsys, len(known_pos), stripes))
    vals[rng.random(vals.shape) < data.draw(st.sampled_from([0, 0.5, 1]), label="top")] = f.order - 1
    expect = complete_by_elimination(f, points, parity, known_pos, vals)
    got = recover_batched(f, points, parity, known_pos, vals)
    assert got.dtype == f.symbol_dtype
    assert np.array_equal(got, expect)
    groups = _RowGroups(f, points)
    entry = groups.map_for(parity, np.array(known_pos), np.setdiff1d(np.arange(npts), known_pos))
    kernels = [partial(groups._apply_by_multiply, entry[0])]
    for group in range(1, len(known_pos) + 1):
        if len(groups.rows) * f.order**group <= 1 << 18:
            kernels.append(partial(groups._apply_by_gather, entry, group=group))
    for kernel in kernels:
        out = np.empty((parity, stripes, nsys), dtype=f.symbol_dtype)
        kernel(vals.astype(f.symbol_dtype), out)
        assert np.array_equal(out.transpose(2, 0, 1), expect), kernel
