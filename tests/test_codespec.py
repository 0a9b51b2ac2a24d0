"""Index sets, subset ranking, masks, λ tables, and family constructors."""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc
from math import comb

import numpy as np
import pytest

from coopmds.cli import ShardHeader
from coopmds.codespec import (
    CodeParams,
    CodeSpec,
    InadmissibleError,
    build_A,
    card_A,
    concat,
    make_code,
    min_field_order,
    subset_rank,
    universal_code,
)
from coopmds.field import FieldSpec, make_field
from lib_helpers import (
    MultiIndex,
    build_A0,
    build_Bi,
    lambdas_flat,
    mask_f,
    multiindex,
    row_coeff,
    row_of,
    subset_unrank,
)
from oracles import indicator_mask, pair_digit_mask, pair_rank, parity_count_mask, row_masks

GF7 = FieldSpec("prime", 7)
GF13 = FieldSpec("prime", 13)


# ---- index sets -------------------------------------------------------------


def test_build_A_examples():
    assert build_A(2, 2).tolist() == [[0, 0], [0, 1], [1, 0]]
    assert len(build_A(3, 3)) == 20
    assert build_A(1, 4).tolist() == [[0], [1], [2], [3]]


@pytest.mark.parametrize("h,s", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)])
def test_build_A_cardinality_and_membership(h, s):
    a = build_A(h, s)
    assert len(a) == card_A(h, s)
    assert len({tuple(row) for row in a.tolist()}) == len(a)
    for row in a:
        assert (row == s - 1).sum() <= 1
    # lexicographic order
    as_tuples = [tuple(r) for r in a.tolist()]
    assert as_tuples == sorted(as_tuples)


def test_build_A_rejects_bad_params():
    with pytest.raises(ValueError):
        build_A(0, 2)
    with pytest.raises(ValueError):
        build_A(2, 1)


def test_build_Bi_examples():
    assert build_Bi(2, 2, 1).tolist() == [[0, 0], [1, 0]]
    assert build_A0(2, 2).tolist() == [[0, 0]]
    assert len(build_Bi(3, 3, 2)) == 12


@pytest.mark.parametrize("h,s", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_Bi_union_intersection(h, s):
    a = {tuple(r) for r in build_A(h, s).tolist()}
    bis = [{tuple(r) for r in build_Bi(h, s, i).tolist()} for i in range(1, h + 1)]
    for b in bis:
        assert len(b) == s * (s - 1) ** (h - 1)
    assert set.union(*bis) == a
    assert set.intersection(*bis) == {tuple(r) for r in build_A0(h, s).tolist()}


def test_build_Bi_rejects_bad_index():
    with pytest.raises(ValueError):
        build_Bi(3, 2, 0)
    with pytest.raises(ValueError):
        build_Bi(3, 2, 4)


# ---- subset ranking ---------------------------------------------------------


def test_subset_rank_pairs():
    assert subset_rank((1, 2)) == 1
    assert subset_rank((1, 3)) == 2
    assert subset_rank((2, 3)) == 3
    for i2 in range(2, 9):
        for i1 in range(1, i2):
            assert subset_rank((i1, i2)) == pair_rank(i1, i2)


def test_subset_rank_smallest_triple():
    assert subset_rank((1, 2, 3)) == 1


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_subset_rank_bijective(h):
    n = 8
    subsets = list(itertools.combinations(range(1, n + 1), h))
    ranks = [subset_rank(f) for f in subsets]
    assert sorted(ranks) == list(range(1, comb(n, h) + 1))
    for f, r in zip(subsets, ranks):
        assert subset_unrank(r, h) == f


def test_subset_rank_rejects_malformed():
    with pytest.raises(ValueError):
        subset_rank((2, 2))
    with pytest.raises(ValueError):
        subset_rank((3, 1))
    with pytest.raises(ValueError):
        subset_rank((0, 1))
    with pytest.raises(ValueError):
        subset_rank(())
    with pytest.raises(ValueError):
        subset_unrank(0, 2)


# ---- masks ------------------------------------------------------------------


def _pair_block_rows(spec: CodeSpec, paper_rows: np.ndarray) -> np.ndarray:
    """Map two-failure row indices in per-digit base (s^2-1) onto the block
    row convention: digit x becomes the A-block (x mod s, x div s), whose
    apos key x mod s + s·(x div s) is x itself."""
    s, m, ca = spec.params.s, spec.params.m, card_A(spec.params.h, spec.params.s)
    rows, rest = np.zeros_like(paper_rows), paper_rows
    for j in range(m):
        rest, x = np.divmod(rest, s * s - 1)
        rows += spec.apos[x] * ca**j
    return rows


def _virtual_pair_digit_spec() -> CodeSpec:
    # h=2 with s=3 exists at n=4 only as a parameter-level mask (no valid k),
    # which is all a mask comparison needs
    params = CodeParams(n=4, k=1, r=3, h=2, d=3, s=3, l=card_A(2, 3) ** 6, m=6)
    return CodeSpec("any_subset", params, GF13, np.arange(12, dtype=np.int64).reshape(4, 3))


def _virtual_indicator_spec() -> CodeSpec:
    params = CodeParams(n=4, k=1, r=3, h=3, d=2, s=2, l=card_A(3, 2) ** 4, m=4)
    return CodeSpec("any_subset", params, GF13, np.arange(8, dtype=np.int64).reshape(4, 2))


def test_mask_zero_row_is_zero():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    for i in range(1, 5):
        assert mask_f(spec, i, 0) == 0
        assert mask_f(spec, i, MultiIndex((0,) * (2 * 6))) == 0


def test_mask_matches_parity_count_rule_exhaustive_n4():
    # h=2, s=2: every row, every node
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    paper_rows = np.arange(spec.params.l)
    got = spec.mask_columns(_pair_block_rows(spec, paper_rows))
    for i in range(1, 5):
        assert np.array_equal(got[:, i - 1], parity_count_mask(4, i, paper_rows))


def test_mask_matches_pair_digit_rule_virtual_n4_s3():
    spec = _virtual_pair_digit_spec()
    paper_rows = np.arange(spec.params.l)
    got = spec.mask_columns(_pair_block_rows(spec, paper_rows))
    for i in range(1, 5):
        assert np.array_equal(got[:, i - 1], pair_digit_mask(4, 3, i, paper_rows))


def test_mask_matches_indicator_rule_n4_h3():
    spec = _virtual_indicator_spec()
    h, ca = 3, card_A(3, 2)
    # digit u of the published rule is the block with a single one at
    # position u (u=0: the zero block)
    unit_pos = [0] + [spec.apos_of(tuple(int(p == u) for p in range(1, h + 1))) for u in range(1, h + 1)]
    paper_rows = np.arange(spec.params.l)
    mapped = np.zeros_like(paper_rows)
    for j in range(spec.params.m):
        digit = (paper_rows // (h + 1) ** j) % (h + 1)
        mapped += np.asarray(unit_pos)[digit] * ca**j
    got = spec.mask_columns(mapped)
    for i in range(1, 5):
        assert np.array_equal(got[:, i - 1], indicator_mask(4, 3, i, paper_rows))


# every family, the virtual specs and concatenations, by name
STRUCTURE_SPECS = {
    "fixed_5_2_2_3_gf256": lambda: make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("binary", 8)),
    "fixed_5_2_2_3_gf65536": lambda: make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("binary", 16)),
    "any_4_1_2_2_gf13": lambda: make_code("any_subset", 4, 1, 2, 2, GF13),
    "any_5_2_2_3_gf13": lambda: make_code("any_subset", 5, 2, 2, 3, GF13),
    "virtual_n4_h2_s3": _virtual_pair_digit_spec,
    "virtual_n4_h3_s2": _virtual_indicator_spec,
    "concat_22_12": lambda: concat([make_code("any_subset", 4, 1, h, d, GF13) for h, d in ((2, 2), (1, 2))]),
    "universal_3_1": lambda: universal_code(3, 1),
    "universal_4_1": lambda: universal_code(4, 1),
    "universal_4_2": lambda: universal_code(4, 2),
}


@pytest.mark.parametrize("name", list(STRUCTURE_SPECS))
def test_structural_masks_match_the_per_row_rule_on_every_row(name):
    spec = STRUCTURE_SPECS[name]()
    rows = np.arange(spec.params.l)
    want = row_masks(spec, rows)
    assert np.array_equal(spec.mask_columns(rows), want)
    n = spec.params.n
    assert np.array_equal(spec.coeff_matrix(), spec.lam[np.arange(n), want])


# SHA-256 of coeff_matrix().astype("<u2").tobytes(), recorded from the per-row
# construction that came before the structural one
GOLDEN_COEFF_SHA256 = {
    "universal_4_1": "a3f7a748cd88af10efe1b92c41bafbcd30c652b1388f52e3d883f1e9ca604b03",
    "any_5_2_2_3_gf13": "c54d7ae738a5a643d5f2be8bbb513264b9105de4aec5c000cf009dfef09fea61",
    "fixed_5_2_2_3_gf256": "71e2ea8b8503fd8d2bafa1bd6f5c87ad17639ab76f97f0a7d9b143de892220da",
    "fixed_5_2_2_3_gf65536": "71e2ea8b8503fd8d2bafa1bd6f5c87ad17639ab76f97f0a7d9b143de892220da",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COEFF_SHA256))
def test_coeff_matrix_matches_its_golden_hash(name):
    spec = STRUCTURE_SPECS[name]()
    coeff = spec.coeff_matrix()
    assert coeff.dtype == spec.field.symbol_dtype
    assert not coeff.flags.writeable
    assert hashlib.sha256(coeff.astype("<u2").tobytes()).hexdigest() == GOLDEN_COEFF_SHA256[name]


def test_universal_coeff_matrix_makes_no_l_sized_int64_array():
    spec = universal_code(4, 1)
    tracemalloc.start()
    try:
        coeff = spec.coeff_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result itself plus one int64 row index would already reach this
    assert peak < coeff.nbytes + 8 * spec.params.l
    assert peak <= 16 << 20


def test_mask_f_validates_inputs():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    with pytest.raises(ValueError):
        mask_f(spec, 5, 0)
    with pytest.raises(ValueError):
        mask_f(spec, 1, spec.params.l)
    fixed = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    with pytest.raises(ValueError):
        mask_f(fixed, 1, 0)


# ---- coefficients -----------------------------------------------------------


def test_row_coeff_fixed_subset():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    # λ assignment: masked (1,0),(1,1),(2,0),(2,1) then λ_3, λ_4, λ_5
    assert lambdas_flat(spec) == [0, 1, 2, 3, 4, 5, 6]
    for row in range(spec.params.l):
        a1, a2 = spec.A[row]
        assert row_coeff(spec, 1, row) == a1
        assert row_coeff(spec, 2, row) == 2 + a2
        for i in (3, 4, 5):
            assert row_coeff(spec, i, row) == i + 1  # constant per node


def test_row_coeff_rejects_out_of_range():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    with pytest.raises(ValueError):
        row_coeff(spec, 0, 0)
    with pytest.raises(ValueError):
        row_coeff(spec, 1, 99)


@pytest.mark.parametrize(
    "family,n,k,h,d,field",
    [
        ("fixed_subset", 5, 2, 2, 3, GF7),
        ("fixed_subset", 6, 2, 3, 3, FieldSpec("prime", 11)),
        ("fixed_subset", 6, 2, 2, 4, FieldSpec("prime", 13)),
        ("any_subset", 4, 1, 2, 2, FieldSpec("binary", 3)),
        ("any_subset", 5, 2, 2, 3, FieldSpec("prime", 11)),
    ],
)
def test_row_coefficients_pairwise_distinct(family, n, k, h, d, field):
    spec = make_code(family, n, k, h, d, field)
    coeff = spec.coeff_matrix()
    srt = np.sort(coeff, axis=1)
    assert (np.diff(srt, axis=1) > 0).all()


def test_block_substitution_shift_rule():
    # replacing block g(F) shifts the masks of F's members by the block's
    # digits and leaves every other node's mask unchanged
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    s, ca, m = spec.params.s, card_A(2, 2), spec.params.m
    rng = np.random.default_rng(2)
    rows = rng.integers(0, spec.params.l, size=40)
    for F in itertools.combinations(range(1, 5), 2):
        g = subset_rank(F)
        stride = ca ** (g - 1)
        for row in rows:
            base = int(row) - (int(row) // stride % ca) * stride  # block g -> position 0
            m0 = spec.mask_columns(np.array([base]))[0]
            for bpos in range(ca):
                b = spec.A[bpos]
                got = spec.mask_columns(np.array([base + bpos * stride]))[0]
                for i in range(1, 5):
                    if i in F:
                        u = 1 if i == min(F) else 2
                        assert got[i - 1] == (m0[i - 1] + b[u - 1]) % s
                    else:
                        assert got[i - 1] == m0[i - 1]


# ---- constructors -----------------------------------------------------------


def test_make_code_fixed_example():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    p = spec.params
    assert (p.s, p.l, p.m) == (2, 3, 1)
    assert min_field_order("fixed_subset", 5, 2, 2) == 7
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 5))


def test_make_code_any_subset_example():
    spec = make_code("any_subset", 4, 1, 2, 2, FieldSpec("binary", 3))
    assert spec.params.l == 3**6 == 729
    assert spec.params.m == 6
    # 8^15 rows, past the 2^24 cap before any table is built
    with pytest.raises(InadmissibleError, match="exceeds"):
        make_code("any_subset", 6, 1, 2, 3, GF7)


def test_make_code_inadmissible():
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 2, 3, 3, GF7)  # h + d > n
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 2, 2, 2, GF7)  # d = k
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 5, 2, 3, GF7)  # k = n
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 0, 1, 2, GF7)
    with pytest.raises(ValueError):
        make_code("mystery", 5, 2, 2, 3, GF7)


def test_make_code_h1_families():
    single = make_code("fixed_subset", 5, 2, 1, 3, GF7)
    assert single.params.l == 2
    chain = make_code("any_subset", 4, 1, 1, 2, FieldSpec("binary", 3))
    assert chain.params.l == 2**4  # one two-valued digit per node
    # the h=1 mask is just the digit of the node's own block
    for i in range(1, 5):
        for row in range(chain.params.l):
            assert mask_f(chain, i, row) == (row >> (i - 1)) & 1


def test_lambda_counts_and_distinctness():
    fixed = make_code("fixed_subset", 6, 2, 3, 3, FieldSpec("prime", 11))
    flat = lambdas_flat(fixed)
    assert len(flat) == 6 + 3 * 1 and len(set(flat)) == len(flat)
    any_spec = make_code("any_subset", 5, 2, 2, 3, FieldSpec("prime", 11))
    flat = lambdas_flat(any_spec)
    assert len(flat) == 10 and len(set(flat)) == len(flat)


# ---- concatenation ----------------------------------------------------------


def test_concat_single_behaves_identically():
    base = make_code("any_subset", 4, 1, 2, 2, GF13)
    wrapped = concat([base])
    assert wrapped.params.l == base.params.l
    assert np.array_equal(wrapped.coeff_matrix(), base.coeff_matrix())


def test_concat_two_codes_multiplies_l():
    c22 = make_code("any_subset", 4, 1, 2, 2, GF13)
    c12 = make_code("any_subset", 4, 1, 1, 2, GF13)
    both = concat([c12, c22])
    assert both.params.l == 16 * 729
    assert both.components == (c12, c22)
    # flattening
    again = concat([both, make_code("any_subset", 4, 1, 1, 3, GF13)])
    assert [c.params.h for c in again.components] == [1, 2, 1]


def test_two_failure_universal_l_formula():
    # product over d of ((d-k+1)^2 - 1)^C(n,2)
    n, k = 4, 1
    codes = [make_code("any_subset", n, k, 2, d, GF13) for d in range(k + 1, n - 1)]
    two_universal = concat(codes)
    expect = 1
    for d in range(k + 1, n - 1):
        expect *= ((d - k + 1) ** 2 - 1) ** comb(n, 2)
    assert two_universal.params.l == expect == 729


def test_concat_validation():
    c22 = make_code("any_subset", 4, 1, 2, 2, GF13)
    other_nk = make_code("any_subset", 5, 2, 2, 3, GF13)
    other_field = make_code("any_subset", 4, 1, 2, 2, FieldSpec("prime", 17))
    fixed = make_code("fixed_subset", 4, 1, 2, 2, GF7)
    with pytest.raises(InadmissibleError):
        concat([c22, other_nk])
    with pytest.raises(InadmissibleError):
        concat([c22, other_field])
    with pytest.raises(InadmissibleError):
        concat([fixed])
    with pytest.raises(ValueError):
        concat([])
    # 729^3 rows, past the 2^24 cap before any table is built
    with pytest.raises(InadmissibleError, match="exceeds"):
        concat([c22, c22, c22])


def test_universal_code_n4():
    uni = universal_code(4, 1)
    assert [(c.params.h, c.params.d) for c in uni.components] == [(1, 2), (1, 3), (2, 2)]
    assert uni.params.l == 16 * 81 * 729 == 944784
    assert uni.fieldspec == GF13  # smallest supported order >= s_max * n = 12
    assert uni.admissible_pairs() == [(1, 2), (1, 3), (2, 2)]
    comp, stride = uni.component_for(2, 2)
    assert comp.params.h == 2 and stride == 16 * 81
    with pytest.raises(InadmissibleError):
        uni.component_for(2, 3)
    with pytest.raises(InadmissibleError):
        universal_code(2, 1)


def test_component_for_non_concatenated():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    assert spec.component_for(2, 3) == (spec, 1)
    with pytest.raises(InadmissibleError):
        spec.component_for(2, 2)


# ---- row labels and serialization --------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_code("fixed_subset", 6, 2, 3, 3, FieldSpec("prime", 11)),
        lambda: make_code("any_subset", 4, 1, 2, 2, GF13),
        lambda: concat(
            [make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]
        ),
    ],
)
def test_multiindex_round_trip(build):
    spec = build()
    step = max(1, spec.params.l // 257)
    for row in range(0, spec.params.l, step):
        mi = multiindex(spec, row)
        assert row_of(spec, mi) == row
    with pytest.raises(ValueError):
        multiindex(spec, spec.params.l)


def test_multiindex_rejects_invalid_block():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    with pytest.raises(ValueError):
        row_of(spec, MultiIndex((1, 1)))  # two digits equal to s-1


def test_spec_serialization_round_trip():
    """Through canonical JSON, as a shard header stores the code, and
    through a whole format-2 header."""
    specs = [
        make_code("fixed_subset", 5, 2, 2, 3, GF7),
        make_code("any_subset", 4, 1, 2, 2, GF13),
        universal_code(4, 1),
    ]
    for spec in specs:
        text = json.dumps(spec.descriptor(), sort_keys=True, separators=(",", ":"))
        back = CodeSpec.from_descriptor(json.loads(text))
        assert back == spec and back.descriptor() == spec.descriptor()
        assert np.array_equal(back.coeff_matrix(), spec.coeff_matrix())
        header = ShardHeader(spec, 1, 4, 24, tuple(range(spec.params.n)))
        parsed, off = ShardHeader.parse(header.to_bytes())
        assert parsed == header and off == len(header.to_bytes())


def test_mask_columns_matches_scalar_mask_f():
    spec = make_code("any_subset", 5, 2, 2, 3, FieldSpec("prime", 11))
    rng = np.random.default_rng(9)
    rows = rng.integers(0, spec.params.l, size=25)
    table = spec.mask_columns(rows)
    for ridx, row in enumerate(rows):
        for i in range(1, 6):
            assert table[ridx, i - 1] == mask_f(spec, i, int(row))
