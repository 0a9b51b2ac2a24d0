"""Encoding, any-k decoding, and the parity verifier."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from coopmds.codec import (
    CodewordArray,
    decode_cells,
    decode_from_columns,
    encode_parity,
    encode_systematic,
    parity_witness,
    verify_parity,
)
from coopmds.codespec import concat, make_code, universal_code
from coopmds.field import FieldSpec, make_field
from lib_helpers import grs_erasure_recover
from oracles import dual_vandermonde_codewords, powered_sweep_witness

GF7 = FieldSpec("prime", 7)
GF11 = FieldSpec("prime", 11)
GF13 = FieldSpec("prime", 13)


def random_codeword(spec, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, spec.field.order, size=(spec.params.l, spec.params.k))
    return encode_systematic(spec, data)


def columns_of(cw, nodes):
    return {i: cw.column(i) for i in nodes}


# ---- encoding ---------------------------------------------------------------


def test_zero_data_gives_zero_codeword():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = encode_systematic(spec, np.zeros((3, 2), dtype=np.int64))
    assert not cw.cells.any()
    assert verify_parity(cw)


def test_single_row_matches_scalar_recovery():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=3)
    coeff = spec.coeff_matrix()
    for a in range(spec.params.l):
        points = [int(v) for v in coeff[a]]
        known = {0: int(cw.cells[a, 0]), 1: int(cw.cells[a, 1])}
        expect = grs_erasure_recover(spec.field, points, spec.params.r, known)
        assert cw.cells[a].tolist() == expect


def test_random_encode_verifies():
    spec = make_code("fixed_subset", 4, 2, 1, 3, GF7)
    assert verify_parity(random_codeword(spec, seed=1))


def test_encoded_rows_are_brute_force_codewords():
    # every encoded row must appear in the exhaustively filtered codeword set
    # of its own row's point tuple
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    coeff = spec.coeff_matrix()
    sets = [
        {tuple(v) for v in dual_vandermonde_codewords(spec.field, list(coeff[a]), spec.params.r).tolist()}
        for a in range(spec.params.l)
    ]
    for d0, d1 in itertools.product(range(7), repeat=2):
        data = np.full((spec.params.l, 2), (d0, d1), dtype=np.int64)
        cw = encode_systematic(spec, data)
        for a in range(spec.params.l):
            assert tuple(cw.cells[a].tolist()) in sets[a]


def test_encode_rejects_bad_shape():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    with pytest.raises(ValueError):
        encode_systematic(spec, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        encode_systematic(spec, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        encode_systematic(spec, np.full((3, 2), 7, dtype=np.int64))


def test_encode_is_row_local():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    rng = np.random.default_rng(5)
    data = rng.integers(0, 8, size=(spec.params.l, 1))
    base = encode_systematic(spec, data)
    touched = 17
    changed = data.copy()
    changed[touched, 0] = (changed[touched, 0] + 1) % 8
    other = encode_systematic(spec, changed)
    diff = np.nonzero((base.cells != other.cells).any(axis=1))[0]
    assert diff.tolist() == [touched]


# ---- decoding ---------------------------------------------------------------


@pytest.mark.parametrize(
    "spec_builder",
    [
        lambda: make_code("fixed_subset", 5, 2, 2, 3, GF7),
        lambda: make_code("fixed_subset", 6, 2, 3, 3, GF11),
        lambda: make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3)),
        lambda: make_code("any_subset", 5, 2, 2, 3, GF11),
        lambda: concat(
            [make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]
        ),
    ],
)
def test_mds_all_k_subsets(spec_builder):
    spec = spec_builder()
    cw = random_codeword(spec, seed=11)
    n, k = spec.params.n, spec.params.k
    for subset in itertools.combinations(range(1, n + 1), k):
        assert decode_from_columns(spec, columns_of(cw, subset)) == cw


def test_decode_identity_with_all_columns():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=2)
    assert decode_from_columns(spec, columns_of(cw, range(1, 6))) == cw


def test_overdetermined_decode_ignores_extra_columns():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=7)
    cols = columns_of(cw, range(1, 6))
    corrupted = cols[5].copy()
    corrupted[0] = (corrupted[0] + 1) % 7
    cols[5] = corrupted
    # nodes 1..2 are the first k; node 5 never enters the solve
    assert decode_from_columns(spec, cols) == cw


def test_reencode_from_decoded_data_columns():
    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    cw = random_codeword(spec, seed=13)
    back = decode_from_columns(spec, columns_of(cw, (4, 5)))
    assert encode_systematic(spec, back.cells[:, :2]) == cw


def test_decode_errors():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=4)
    with pytest.raises(ValueError):
        decode_from_columns(spec, columns_of(cw, (3,)))
    with pytest.raises(ValueError):
        decode_from_columns(spec, {0: cw.column(1), 2: cw.column(2)})
    with pytest.raises(ValueError):
        decode_from_columns(spec, {1: cw.column(1), 6: cw.column(2)})
    with pytest.raises(ValueError):
        decode_from_columns(spec, {1: cw.column(1)[:-1], 2: cw.column(2)})


def test_decode_universal_spot_check():
    spec = universal_code(4, 1)
    cw = random_codeword(spec, seed=21)
    assert decode_from_columns(spec, columns_of(cw, (3,))) == cw


# ---- verification -----------------------------------------------------------


def test_verify_zero_array():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    zero = CodewordArray(spec, np.zeros((spec.params.l, 4), dtype=np.int64))
    res = verify_parity(zero)
    assert res and res.ok and res.t is None and res.row is None


def test_verify_flip_reports_first_row():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=8)
    cells = cw.cells.copy()
    cells[2, 3] = (cells[2, 3] + 1) % 7
    res = verify_parity(CodewordArray(spec, cells))
    assert not res
    assert (res.t, res.row) == (0, 2)


def test_verify_witness_smallest_t_first():
    # cancel the t=0 check with two opposite edits in one row; t=1 still
    # fails because the two nodes have distinct coefficients
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=9)
    cells = cw.cells.copy()
    cells[1, 3] = (cells[1, 3] + 1) % 7
    cells[1, 4] = (cells[1, 4] - 1) % 7
    res = verify_parity(CodewordArray(spec, cells))
    assert (res.ok, res.t, res.row) == (False, 1, 1)


def test_verify_row_order_within_t():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=10)
    cells = cw.cells.copy()
    cells[1, 2] = (cells[1, 2] + 3) % 7
    cells[2, 2] = (cells[2, 2] + 3) % 7
    res = verify_parity(CodewordArray(spec, cells))
    assert (res.t, res.row) == (0, 1)


GF256 = FieldSpec("binary", 8)
GF65536 = FieldSpec("binary", 16)

WITNESS_SPECS = [
    lambda: make_code("fixed_subset", 5, 2, 2, 3, GF13),
    lambda: make_code("any_subset", 4, 1, 2, 2, GF13),
    lambda: concat(
        [make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]
    ),
    lambda: make_code("fixed_subset", 5, 2, 2, 3, GF256),
    lambda: make_code("any_subset", 4, 1, 2, 2, GF256),
    lambda: make_code("fixed_subset", 5, 2, 2, 3, GF65536),
    lambda: make_code("any_subset", 4, 1, 2, 2, GF65536),
]


def _edits(spec, rng):
    """Corruptions as lists of (row, column, delta): one symbol, two symbols
    in different rows, and two opposite edits in one row that cancel the
    t=0 check."""
    l, n, q = spec.params.l, spec.params.n, spec.field.order
    f = spec.field
    rows = rng.choice(l, size=2, replace=False)
    cols = rng.choice(n, size=2, replace=False)
    delta = int(rng.integers(1, q))
    return [
        [(rows[0], cols[0], delta)],
        [(rows[0], cols[0], delta), (rows[1], cols[1], int(rng.integers(1, q)))],
        [(rows[0], cols[0], delta), (rows[0], cols[1], f.neg(delta))],
    ]


def _corrupt(spec, cells, edits, stripe=None):
    cells = cells.copy()
    for row, col, delta in edits:
        at = (row, col) if stripe is None else (row, col, stripe)
        cells[at] = spec.field.add(int(cells[at]), delta)
    return cells


@pytest.mark.parametrize("spec_builder", WITNESS_SPECS)
def test_verify_matches_powered_sweep_oracle(spec_builder):
    spec = spec_builder()
    cw = random_codeword(spec, seed=21)
    assert powered_sweep_witness(spec, cw.cells) == (True, None, None)
    rng = np.random.default_rng(22)
    for _ in range(3):
        for edits in _edits(spec, rng):
            cells = _corrupt(spec, cw.cells, edits)
            res = verify_parity(CodewordArray(spec, cells))
            expect = powered_sweep_witness(spec, cells)
            assert expect[0] is False
            assert (res.ok, res.t, res.row) == expect


@pytest.mark.parametrize("spec_builder", WITNESS_SPECS)
def test_parity_witness_over_stripes_matches_oracle(spec_builder):
    spec = spec_builder()
    stripes = 4
    cells = np.stack([random_codeword(spec, seed=30 + s).cells for s in range(stripes)], axis=2)
    assert parity_witness(spec, cells) is None
    rng = np.random.default_rng(23)
    for edits in _edits(spec, rng):
        bad = _corrupt(spec, cells, edits, stripe=int(rng.integers(stripes)))
        ok, t, row = powered_sweep_witness(spec, bad)
        assert not ok
        assert parity_witness(spec, bad) == (t, row)


@pytest.mark.parametrize("spec_builder", WITNESS_SPECS)
def test_verify_names_one_witness_in_either_cell_layout(spec_builder):
    """Row-major and column-major cells give the same witness for one
    corrupted symbol in a data or a parity column, one stripe or several."""
    spec = spec_builder()
    p = spec.params
    cw = random_codeword(spec, seed=25)
    striped = np.stack([random_codeword(spec, seed=26 + s).cells for s in range(3)], axis=2)
    rng = np.random.default_rng(27)
    for col in (0, p.n - 1):
        row = int(rng.integers(p.l))
        one = _corrupt(spec, cw.cells, [(row, col, 1)])
        expect = powered_sweep_witness(spec, one)
        assert expect[0] is False
        results = set()
        for layout in (np.ascontiguousarray, np.asfortranarray):
            cells = layout(one)
            res = verify_parity(CodewordArray(spec, cells))
            results.add((res.ok, res.t, res.row))
            results.add((False,) + parity_witness(spec, cells))
        assert results == {expect}
        many = _corrupt(spec, striped, [(row, col, 1)], stripe=1)
        want = powered_sweep_witness(spec, many)[1:]
        assert parity_witness(spec, np.ascontiguousarray(many)) == want
        assert parity_witness(spec, np.asfortranarray(many)) == want


def test_verify_cancelled_t0_edit_matches_oracle():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cells = random_codeword(spec, seed=9).cells.copy()
    cells[1, 3] = (cells[1, 3] + 1) % 7
    cells[1, 4] = (cells[1, 4] - 1) % 7
    res = verify_parity(CodewordArray(spec, cells))
    assert (res.ok, res.t, res.row) == powered_sweep_witness(spec, cells) == (False, 1, 1)


@pytest.mark.parametrize("make_spec", WITNESS_SPECS)
def test_striped_kernels_match_one_codeword_per_stripe(make_spec):
    spec = make_spec()
    p = spec.params
    cells = np.stack([random_codeword(spec, seed=40 + s).cells for s in range(3)], axis=2)
    assert np.array_equal(encode_parity(spec, cells[:, : p.k]), cells[:, p.k :])
    for nodes in itertools.combinations(range(1, p.n + 1), p.k):
        for order in (nodes, nodes[::-1]):
            known = cells[:, np.asarray(order) - 1]
            assert np.array_equal(decode_cells(spec, order, known), cells)


# ---- container --------------------------------------------------------------


def test_codeword_array_validation():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    with pytest.raises(ValueError):
        CodewordArray(spec, np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        CodewordArray(spec, np.full((3, 5), 7, dtype=np.int64))
    with pytest.raises(ValueError):
        CodewordArray(spec, np.full((3, 5), -1, dtype=np.int64))


def test_codeword_array_is_frozen_and_detached():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    src = np.zeros((3, 5), dtype=np.int64)
    cw = CodewordArray(spec, src)
    src[0, 0] = 3
    assert cw.cells[0, 0] == 0
    with pytest.raises(ValueError):
        cw.cells[0, 0] = 1


@pytest.mark.parametrize("field", [GF13, FieldSpec("binary", 8)])
def test_encode_and_decode_results_are_frozen_and_detached(field):
    """encode_systematic and decode_from_columns wrap the arrays they build
    without a copy; the result still shares no memory with its inputs."""
    spec = make_code("any_subset", 4, 1, 2, 2, field)
    data = np.random.default_rng(31).integers(0, field.order, (spec.params.l, 1))
    data = data.astype(spec.field.symbol_dtype)  # as_symbols passes it through uncopied
    cw = encode_systematic(spec, data)
    columns = {i: np.array(cw.column(i)) for i in (2, 3)}
    decoded = decode_from_columns(spec, columns)
    assert decoded == cw
    for out, inputs in ((cw, [data]), (decoded, list(columns.values()))):
        assert out.cells.dtype == spec.field.symbol_dtype
        assert out.cells.shape == (spec.params.l, spec.params.n)
        assert not out.cells.flags.writeable
        assert not any(np.shares_memory(out.cells, x) for x in inputs)
        with pytest.raises(ValueError):
            out.cells[0, 0] = 0


def test_column_accessor():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=12)
    assert np.array_equal(cw.column(1), cw.cells[:, 0])
    assert np.array_equal(cw.column(5), cw.cells[:, 4])
    with pytest.raises(ValueError):
        cw.column(0)
    with pytest.raises(ValueError):
        cw.column(6)


# ---- the completion maps live with the spec ----------------------------------


def test_one_spec_builds_one_grouping_of_its_coefficients(monkeypatch):
    from coopmds.grs import _RowGroups

    built = []
    init = _RowGroups.__init__

    def counting_init(self, field, points):
        built.append(points.shape)
        init(self, field, points)

    monkeypatch.setattr(_RowGroups, "__init__", counting_init)
    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    data = np.random.default_rng(71).integers(0, 11, size=(spec.params.l, spec.params.k, 3))
    parity = encode_parity(spec, data)
    assert len(built) == 1
    cells = np.concatenate([data, parity], axis=1)
    for _ in range(2):
        assert np.array_equal(encode_parity(spec, data), parity)
        assert parity_witness(spec, cells) is None
        assert np.array_equal(decode_cells(spec, [4, 5], cells[:, 3:]), cells)
    assert built == [spec.coeff_matrix().shape]
    # an equal spec built afresh keeps its own tables
    assert np.array_equal(encode_parity(make_code("any_subset", 5, 2, 2, 3, GF11), data), parity)
    assert len(built) == 2
