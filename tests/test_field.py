"""Field layer: axioms, canonical enumeration, table-vs-reference oracles."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from coopmds.field import (
    FieldSpec,
    _REDUCTION_POLY,
    _clmul_reduce,
    make_field,
    smallest_field_spec,
)
from coopmds.codespec import CodeSpec, InadmissibleError, make_code, universal_code
from lib_helpers import field_div, field_pow, lambdas_flat
from oracles import log_exp_tables

SMALL_FIELDS = [
    FieldSpec("prime", 2),
    FieldSpec("prime", 3),
    FieldSpec("prime", 5),
    FieldSpec("prime", 7),
    FieldSpec("prime", 11),
    FieldSpec("binary", 1),
    FieldSpec("binary", 2),
    FieldSpec("binary", 3),
]


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=str)
def test_axioms_exhaustive_small(spec):
    f = make_field(spec)
    q = f.order
    els = range(q)
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert field_div(f, a, a) == 1


@pytest.mark.parametrize("spec", [FieldSpec("prime", 257), FieldSpec("binary", 8)], ids=str)
def test_axioms_larger_orders(spec):
    f = make_field(spec)
    q = f.order
    # inverses exhaustively, associativity/distributivity on seeded triples
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    rng = np.random.default_rng(7)
    t = rng.integers(0, q, size=(20000, 3))
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))


@pytest.mark.parametrize("w", sorted(_REDUCTION_POLY))
def test_binary_tables_match_carryless_reference(w):
    f = make_field("binary", w)
    q = f.order
    poly = _REDUCTION_POLY[w]
    if q <= 64:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = np.random.default_rng(w)
        pairs = rng.integers(0, q, size=(4000, 2)).tolist()
    for a, b in pairs:
        assert f.mul(int(a), int(b)) == _clmul_reduce(int(a), int(b), poly, w)


def test_gf256_product_table_matches_carryless_reference_on_all_pairs():
    f = make_field("binary", 8)
    a, b = np.divmod(np.arange(1 << 16, dtype=np.int64), 256)
    expect = [_clmul_reduce(int(x), int(y), _REDUCTION_POLY[8], 8) for x, y in zip(a, b)]
    got = f.mul(a, b)
    assert got.dtype == f.symbol_dtype
    assert got.tolist() == expect


@pytest.mark.parametrize("w", range(9, 17))
def test_wide_binary_array_mul_matches_carryless_reference(w):
    f = make_field("binary", w)
    q, poly = f.order, _REDUCTION_POLY[w]
    rng = np.random.default_rng(100 + w)
    a = rng.integers(0, q, size=3000)
    b = rng.integers(0, q, size=3000)
    a[:40] = 0  # zero on the left, then on the right, then both
    b[20:60] = 0
    got = f.mul(a, b)
    assert got.dtype == f.symbol_dtype
    assert got.tolist() == [_clmul_reduce(int(x), int(y), poly, w) for x, y in zip(a, b)]
    # a per-row coefficient against a row of stripes, as the codec multiplies
    coef = rng.integers(0, q, size=(6, 1))
    coef[0, 0] = 0
    stripes = rng.integers(0, q, size=(6, 50))
    stripes[1, :5] = 0
    got = f.mul(coef, stripes)
    assert got.shape == (6, 50) and got.dtype == f.symbol_dtype
    expect = [[_clmul_reduce(int(c[0]), int(x), poly, w) for x in row] for c, row in zip(coef, stripes)]
    assert got.tolist() == expect


@pytest.mark.parametrize("w", range(2, 17))
def test_log_exp_tables_match_the_stepwise_build(w):
    f = make_field("binary", w)
    q = f.order
    generator, exp, log = log_exp_tables(w)
    assert f.generator == generator
    assert f._exp.dtype == f.symbol_dtype and f._exp.shape == (4 * (q - 1) + 1,)
    assert np.array_equal(f._exp[: 2 * (q - 1)], exp)
    assert not f._exp[2 * (q - 1) :].any()
    assert f._log.dtype == np.int32
    assert np.array_equal(f._log[1:], log[1:])
    assert f._log[0] == 2 * (q - 1)


@pytest.mark.parametrize("w", sorted(_REDUCTION_POLY))
def test_binary_exp_table_covers_all_nonzero(w):
    # a generator of full multiplicative order exists iff the reduction
    # polynomial is irreducible, so table completeness doubles as that check
    f = make_field("binary", w)
    q = f.order
    assert sorted(f._exp[: q - 1].tolist()) == list(range(1, q))


def test_pow_examples():
    f7 = make_field("prime", 7)
    assert field_pow(f7, 3, 2) == f7.mul(3, 3) == 2
    for spec in SMALL_FIELDS:
        f = make_field(spec)
        for a in range(f.order):
            assert field_pow(f, a, 0) == 1  # includes 0^0 = 1
            assert field_pow(f, a, 1) == a
            assert field_pow(f, a, 5) == f.mul(a, f.mul(a, f.mul(a, f.mul(a, a))))


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        field_pow(make_field("prime", 7), 3, -1)


def test_enumerate_elements():
    # codes take the first min_field_order elements in ascending value order
    assert lambdas_flat(make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7))) == list(range(7))
    uni = universal_code(4, 1, FieldSpec("binary", 8))
    assert uni.lam.ravel().tolist() == list(range(12))
    with pytest.raises(InadmissibleError):
        make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 5))
    with pytest.raises(InadmissibleError):
        universal_code(4, 1, FieldSpec("prime", 11))


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("prime", 9)
    with pytest.raises(ValueError):
        FieldSpec("prime", 1)
    with pytest.raises(ValueError):
        FieldSpec("binary", 0)
    with pytest.raises(ValueError):
        FieldSpec("binary", 17)
    with pytest.raises(ValueError):
        FieldSpec("ternary", 3)
    with pytest.raises(ValueError):
        make_field("prime")


def test_field_spec_serialization_round_trip():
    """The field object of a code descriptor, through canonical JSON as a
    shard header stores it."""
    for spec in [FieldSpec("prime", 65521), FieldSpec("binary", 16), FieldSpec("prime", 2)]:
        doc = json.loads(json.dumps({"kind": spec.kind, "modulus": spec.modulus}, sort_keys=True))
        assert FieldSpec(doc["kind"], doc["modulus"]) == spec
    code = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7))
    assert code.descriptor()["field"] == {"kind": "prime", "modulus": 7}
    for field in ({"kind": "ternary", "modulus": 1}, {"kind": "prime", "modulus": 9}):
        with pytest.raises(ValueError):
            CodeSpec.from_descriptor(dict(code.descriptor(), field=field))


def test_zero_division():
    for spec in [FieldSpec("prime", 7), FieldSpec("binary", 4)]:
        f = make_field(spec)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            field_div(f, 3, 0)
        with pytest.raises(ZeroDivisionError):
            f.inv(np.array([1, 0, 2]))


@pytest.mark.parametrize("spec", [FieldSpec("prime", 11), FieldSpec("binary", 8), FieldSpec("prime", 257)], ids=str)
def test_array_ops_match_scalar(spec):
    f = make_field(spec)
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.order, size=500)
    b = rng.integers(0, f.order, size=500)
    bnz = np.where(b == 0, 1, b)
    vec = {
        "add": f.add(a, b),
        "sub": f.sub(a, b),
        "mul": f.mul(a, b),
        "div": field_div(f, a, bnz),
        "neg": f.neg(a),
        "pow3": field_pow(f, a, 3),
    }
    for i in range(len(a)):
        ai, bi, bz = int(a[i]), int(b[i]), int(bnz[i])
        assert int(vec["add"][i]) == f.add(ai, bi)
        assert int(vec["sub"][i]) == f.sub(ai, bi)
        assert int(vec["mul"][i]) == f.mul(ai, bi)
        assert int(vec["div"][i]) == field_div(f, ai, bz)
        assert int(vec["neg"][i]) == f.neg(ai)
        assert int(vec["pow3"][i]) == field_pow(f, ai, 3)
    assert f.sum(a) == _fold(f, a)
    m = a.reshape(50, 10)
    bycol = f.sum(m, axis=0)
    for j in range(10):
        assert int(bycol[j]) == _fold(f, m[:, j])


NARROW_FIELDS = [
    FieldSpec("prime", 13),
    FieldSpec("prime", 251),
    FieldSpec("prime", 65521),
    FieldSpec("binary", 8),
    FieldSpec("binary", 16),
]


def test_prime_field_ops_do_not_wrap_narrow_operands():
    f, u8 = make_field("prime", 251), np.uint8
    assert f.add(np.array([200], u8), np.array([100], u8))[0] == 49
    assert f.sub(np.array([3], u8), np.array([5], u8))[0] == 249
    assert f.neg(np.array([200], u8))[0] == 51
    assert f.add(u8(200), u8(100)) == 49
    g, u16 = make_field("prime", 65521), np.uint16
    assert g.add(np.array([60000], u16), np.array([10000], u16))[0] == 4479
    assert g.mul(np.array([60000], u16), np.array([10000], u16))[0] == 24203


@pytest.mark.parametrize("spec", NARROW_FIELDS, ids=str)
def test_array_ops_on_narrow_operands_match_int64(spec):
    f = make_field(spec)
    rng = np.random.default_rng(f.order)
    a = rng.integers(0, f.order, size=(40, 50))
    b = rng.integers(0, f.order, size=(40, 50))
    a[0, :5] = b[0, :5] = f.order - 1  # the top of the field, where narrow sums wrap
    expect = {
        "add": f.add(a, b),
        "sub": f.sub(a, b),
        "mul": f.mul(a, b),
        "neg": f.neg(a),
        "sum": f.sum(a),
        "sum0": f.sum(a, axis=0),
    }
    for dtype in (np.uint8, np.uint16, np.int64):
        if f.order > np.iinfo(dtype).max + 1:
            continue
        an, bn = a.astype(dtype), b.astype(dtype)
        got = {
            "add": f.add(an, bn),
            "sub": f.sub(an, bn),
            "mul": f.mul(an, bn),
            "neg": f.neg(an),
            "sum": f.sum(an),
            "sum0": f.sum(an, axis=0),
        }
        for op, value in got.items():
            assert np.array_equal(value, expect[op]), (dtype, op)
        assert f.add(dtype(a[0, 0]), dtype(b[0, 0])) == int(expect["add"][0, 0])
        assert f.mul(dtype(a[0, 0]), dtype(b[0, 0])) == int(expect["mul"][0, 0])


# primes on each side of every dtype boundary of the narrow prime ops: their
# sums fit uint8 up to p = 127, uint16 up to 32749 and uint32 above, and
# their symbols are uint8 up to 251 and uint16 from 257
BOUNDARY_PRIMES = [127, 131, 251, 257, 32749, 32771, 65521]


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_prime_ops_match_integer_arithmetic_at_every_dtype_boundary(p):
    f = make_field("prime", p)
    if p <= 257:  # every pair
        a, b = (x.ravel() for x in np.meshgrid(np.arange(p), np.arange(p)))
    else:  # the top of the field, then random pairs
        rng = np.random.default_rng(p)
        a = np.concatenate([[p - 1, p - 1, 0, 0, 1], rng.integers(0, p, 20_000)])
        b = np.concatenate([[p - 1, 0, p - 1, 0, p - 1], rng.integers(0, p, 20_000)])
    expect = {"add": (a + b) % p, "sub": (a - b) % p, "neg": -a % p}
    for dtype in (np.uint8, np.uint16, np.int64):
        if p > np.iinfo(dtype).max + 1:
            continue
        an, bn = a.astype(dtype), b.astype(dtype)
        got = {"add": f.add(an, bn), "sub": f.sub(an, bn), "neg": f.neg(an)}
        for op, value in got.items():
            assert value.dtype == f.symbol_dtype and np.array_equal(value, expect[op]), (dtype, op)
        # a numpy or Python scalar against an array, and scalars alone
        top = dtype(p - 1)
        assert np.array_equal(f.add(top, bn), (p - 1 + b) % p)
        assert np.array_equal(f.sub(an, p - 1), (a - (p - 1)) % p)
        assert np.array_equal(f.sub(p - 1, bn), (p - 1 - b) % p)
        assert f.add(top, top) == f.add(p - 1, p - 1) == p - 2
        assert f.sub(dtype(0), top) == f.sub(0, p - 1) == f.neg(top) == 1
        assert f.add(top, bn).dtype == f.symbol_dtype
    # sums whose accumulators are uint8, uint16, uint32 and uint64 wide
    rng = np.random.default_rng(p + 1)
    for count in (1, 2, 3, 257, 70_000):
        m = rng.integers(0, p, size=(count, 3))
        m[0] = p - 1
        if count > 2:
            m[:, 0] = p - 1
        for dtype in (np.uint16, np.int64):
            got0, got = f.sum(m.astype(dtype), axis=0), f.sum(m.T.astype(dtype), axis=1)
            assert got0.dtype == got.dtype == f.symbol_dtype
            assert np.array_equal(got0, m.sum(axis=0) % p) and np.array_equal(got, m.sum(axis=0) % p)
            assert f.sum(m.astype(dtype)) == m.sum() % p


def test_prime_add_allocates_no_wide_temporaries():
    import tracemalloc

    f = make_field("prime", 13)
    rng = np.random.default_rng(13)
    a = rng.integers(0, 13, 1 << 20, dtype=np.uint8)
    b = rng.integers(0, 13, 1 << 20, dtype=np.uint8)
    for op in (f.add, f.sub):
        tracemalloc.start()
        try:
            got = op(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an int64 temporary of 1M symbols alone would take 8 MB
        assert peak < 3_000_000, f"{op.__name__} peaked at {peak} bytes"
        assert got.dtype == np.uint8
    tracemalloc.start()
    try:
        f.sum(a.reshape(-1, 4), axis=1)
        f.neg(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("spec", NARROW_FIELDS, ids=str)
def test_scale_table_is_one_read_only_row_of_products(spec):
    f = make_field(spec)
    x = np.arange(f.order)
    for c in (0, 1, 2, f.order - 1):
        row = f.scale_table(c)
        assert row.dtype == (np.uint8 if f.order <= 256 else np.uint16) == f.symbol_dtype
        assert row.shape == (f.order,) and not row.flags.writeable
        assert np.array_equal(row, f.mul(c, x))
    # the last axis of constants becomes lanes: entry x holds every lane's
    # product side by side, each lane the row of its own constant
    cs = np.array([[0, 1, 2], [2, f.order - 1, 0]])
    rows = f.scale_table(cs)
    assert rows.shape == (2, f.order, 3) and rows.dtype == f.symbol_dtype
    assert not rows.flags.writeable
    for (a, b), c in np.ndenumerate(cs):
        assert np.array_equal(rows[a, :, b], f.scale_table(c)) and np.array_equal(rows[a, :, b], f.mul(int(c), x))
    assert f.scale_table(np.zeros((2, 0), dtype=np.int64)).shape == (2, f.order, 0)
    with pytest.raises(ValueError):
        f.scale_table(f.order)
    with pytest.raises(ValueError):
        f.scale_table(np.array([1, f.order]))


@pytest.mark.parametrize("w", sorted(_REDUCTION_POLY))
def test_scale_table_rows_built_by_doubling_match_carryless_reference(w):
    """Binary rows come from c·(x + 2^b) = c·x + c·2^b, pass by pass over
    whole entries: every constant side by side up to w = 8, sampled
    constants above, in lane counts whose entries are words of 1 to 16
    bytes or of no power-of-two width (3 lanes)."""
    f = make_field("binary", w)
    q, poly = f.order, _REDUCTION_POLY[w]
    rng = np.random.default_rng(200 + w)
    if w <= 8:
        rows = f.scale_table(np.arange(q))  # (order, order): entry x, lane c
        assert rows.tolist() == [[_clmul_reduce(c, x, poly, w) for c in range(q)] for x in range(q)]
    xs = np.unique(np.r_[0, 1, q - 1, rng.integers(0, q, size=200)])
    for lanes in (1, 2, 3, 4, 8):
        consts = rng.integers(0, q, size=(2, lanes))
        consts[0, 0], consts[-1, -1] = 0, q - 1
        rows = f.scale_table(consts)
        assert rows.shape == (2, q, lanes) and rows.dtype == f.symbol_dtype
        for (a, b), c in np.ndenumerate(consts):
            assert rows[a, xs, b].tolist() == [_clmul_reduce(int(c), int(x), poly, w) for x in xs], (lanes, c)


def _fold(f, xs):
    acc = 0
    for x in xs:
        acc = f.add(acc, int(x))
    return acc


def test_smallest_field_spec():
    assert smallest_field_spec(7) == FieldSpec("prime", 7)
    assert smallest_field_spec(12) == FieldSpec("prime", 13)
    assert smallest_field_spec(25) == FieldSpec("prime", 29)
    assert smallest_field_spec(255) == FieldSpec("binary", 8)
    assert smallest_field_spec(256) == FieldSpec("binary", 8)
    assert smallest_field_spec(65536) == FieldSpec("binary", 16)
    with pytest.raises(ValueError):
        smallest_field_spec(65537)


def test_make_field_caches():
    assert make_field("prime", 7) is make_field(FieldSpec("prime", 7))
