"""One symbol format: every symbol array that field, grs, codec, repair and
cluster return or store is in ``Field.symbol_dtype``, whatever integer dtype
came in, and a symbol outside the field raises ValueError at every entry
point."""

from __future__ import annotations

import numpy as np
import pytest

import coopmds.cluster as cluster
from coopmds.cluster import ClusterConfig, run_scenario
from coopmds.codec import (
    CodewordArray,
    decode_cells,
    decode_from_columns,
    encode_parity,
    encode_systematic,
    parity_witness,
    verify_parity,
)
from coopmds.codespec import make_code
from coopmds.field import FieldSpec, make_field
from coopmds.grs import recover_batched
from coopmds.repair import (
    RepairContext,
    cooperative_repair,
    repair_columns,
    round1_helper_payload,
    round1_solve,
    round2_exchange_and_finish,
)

FIELDS = [("prime", 13), ("prime", 251), ("prime", 65521), ("binary", 8), ("binary", 16)]
GF13 = FieldSpec("prime", 13)


def _as_each_dtype(f, values):
    """values in uint8, uint16 and int64, wherever the dtype holds the field."""
    for dtype in (np.uint8, np.uint16, np.int64):
        if f.order <= np.iinfo(dtype).max + 1:
            yield dtype, values.astype(dtype)


# ---- Field ---------------------------------------------------------------------


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_as_symbols_checks_the_range_and_returns_the_symbol_dtype(spec):
    f = make_field(*spec)
    values = np.array([[0, 1], [f.order - 1, f.order // 2]], dtype=np.int64)
    for dtype, given in _as_each_dtype(f, values):
        got = f.as_symbols(given)
        assert got.dtype == f.symbol_dtype and np.array_equal(got, values), dtype
    assert f.as_symbols([3, 1]).dtype == f.symbol_dtype
    assert f.as_symbols(np.empty((0, 4))).dtype == f.symbol_dtype
    for stray in (f.order, -1, 1 << 40):
        with pytest.raises(ValueError, match=f"symbol {stray} is outside GF"):
            f.as_symbols(np.array([0, stray, 1], dtype=np.int64))
    if f.order < 1 << 16:
        with pytest.raises(ValueError, match=f"symbol {f.order} is outside GF"):
            f.as_symbols(np.array([f.order], dtype=np.uint16))
    with pytest.raises(ValueError, match="integers"):
        f.as_symbols(np.array([1.0]))


def test_as_symbols_keeps_an_array_already_in_the_symbol_dtype():
    f = make_field("binary", 16)
    x = np.arange(10, dtype=np.uint16)
    assert f.as_symbols(x) is x


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_every_field_op_returns_the_symbol_dtype(spec):
    f = make_field(*spec)
    rng = np.random.default_rng(f.order)
    a = rng.integers(0, f.order, size=(6, 7))
    b = rng.integers(1, f.order, size=(6, 7))
    expect = {
        "add": f.add(a, b), "sub": f.sub(a, b), "neg": f.neg(a), "mul": f.mul(a, b),
        "inv": f.inv(b), "sum": f.sum(a, axis=0),
    }
    for dtype, an in _as_each_dtype(f, a):
        bn = b.astype(dtype)
        got = {
            "add": f.add(an, bn), "sub": f.sub(an, bn), "neg": f.neg(an), "mul": f.mul(an, bn),
            "inv": f.inv(bn), "sum": f.sum(an, axis=0),
            "scalar-mul": f.mul(3, an), "scalar-add": f.add(an, 1),
        }
        for op, value in got.items():
            assert value.dtype == f.symbol_dtype, (dtype, op)
            if op in expect:
                assert np.array_equal(value, expect[op]), (dtype, op)
    assert f.scale_table(2).dtype == f.symbol_dtype


# ---- codec -----------------------------------------------------------------------


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_codec_kernels_and_codeword_cells_are_in_the_symbol_dtype(spec):
    code = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec(*spec))
    f, p = code.field, code.params
    rng = np.random.default_rng(f.order + 1)
    data = rng.integers(0, f.order, size=(p.l, p.k, 4))
    truth = encode_systematic(code, data[:, :, 0])
    for dtype, given in _as_each_dtype(f, data):
        parity = encode_parity(code, given)
        assert parity.dtype == f.symbol_dtype, dtype
        cells = np.concatenate([given, parity.astype(dtype)], axis=1)
        assert parity_witness(code, cells) is None
        decoded = decode_cells(code, [3, 5], cells[:, [2, 4]])
        assert decoded.dtype == f.symbol_dtype and np.array_equal(decoded, cells), dtype
        cw = encode_systematic(code, given[:, :, 0])
        assert cw.cells.dtype == f.symbol_dtype and cw == truth, dtype
        assert CodewordArray(code, cw.cells.astype(dtype)).cells.dtype == f.symbol_dtype
        back = decode_from_columns(code, {i: cw.column(i).astype(dtype) for i in (4, 5)})
        assert back.cells.dtype == f.symbol_dtype and back == truth, dtype
        assert verify_parity(back)


# ---- repair and the simulator ----------------------------------------------------


@pytest.mark.parametrize("spec", [("prime", 13), ("binary", 8), ("binary", 16)], ids=str)
def test_restored_columns_and_every_payload_are_in_the_symbol_dtype(spec):
    code = make_code("any_subset", 4, 1, 2, 2, FieldSpec(*spec))
    f, p = code.field, code.params
    truth = encode_systematic(code, np.random.default_rng(3).integers(0, f.order, size=(p.l, p.k)))
    ctx = RepairContext((1, 3), (2, 4))
    for dtype, cells in _as_each_dtype(f, truth.cells.astype(np.int64)):
        for stripes in (None, 3):
            cols = {j: cells[:, j - 1] for j in ctx.helpers}
            if stripes:
                cols = {j: np.repeat(col[:, None], stripes, axis=1) for j, col in cols.items()}
            for mode in ("cooperative", "centralized"):
                restored, transcript = repair_columns(code, ctx, cols, mode=mode)
                for i, col in restored.items():
                    assert col.dtype == f.symbol_dtype, (dtype, mode)
                    want = truth.column(i) if stripes is None else truth.column(i)[:, None]
                    assert np.all(col == want)
                assert transcript.messages
                for msg in transcript.messages:
                    assert msg.payload.dtype == f.symbol_dtype, (dtype, mode, msg.round)
        payloads = [round1_helper_payload(code, ctx, j, 1, cells[:, j - 1]) for j in ctx.helpers]
        state = round1_solve(code, ctx, 1, payloads)
        assert state.column.dtype == f.symbol_dtype
        other = round1_solve(
            code, ctx, 3, [round1_helper_payload(code, ctx, j, 3, cells[:, j - 1]) for j in ctx.helpers]
        )
        column = round2_exchange_and_finish(code, ctx, 1, state, other.outgoing)
        assert column.dtype == f.symbol_dtype and np.array_equal(column, truth.column(1))
        damaged = CodewordArray(code, cells)
        repaired, _ = cooperative_repair(code, damaged, ctx)
        assert repaired.cells.dtype == f.symbol_dtype and repaired == truth


def test_run_scenario_keeps_node_columns_in_the_symbol_dtype(monkeypatch):
    code = make_code("any_subset", 4, 1, 2, 2, GF13)
    seen = []

    run_rounds = cluster._run_rounds

    def recording(spec, ctx, helper_columns, mode, pool_map=map):
        restored, transcript = run_rounds(spec, ctx, helper_columns, mode, pool_map)
        seen.extend(col.dtype for col in [*helper_columns.values(), *restored.values()])
        return restored, transcript

    monkeypatch.setattr(cluster, "_run_rounds", recording)
    events = (
        {"type": "fail", "nodes": [1, 3]},
        {"type": "repair", "helpers": [2, 4]},
        {"type": "verify"},
        {"type": "fail", "nodes": [2, 4]},
        {"type": "repair", "helpers": [1, 3], "mode": "centralized"},
        {"type": "verify"},
    )
    report = run_scenario(ClusterConfig(code, 5, events))
    assert report.verified
    # two helper columns in, two restored columns out, per repair
    assert len(seen) == 8
    assert set(seen) == {code.field.symbol_dtype}


# ---- symbols outside the field ---------------------------------------------------


def test_codeword_array_rejects_a_symbol_outside_the_field():
    code = make_code("fixed_subset", 5, 2, 2, 3, GF13)
    cells = np.zeros((code.params.l, code.params.n), dtype=np.uint8)
    cells[1, 4] = 20
    with pytest.raises(ValueError, match="symbol 20 is outside GF"):
        CodewordArray(code, cells)


def test_encode_systematic_rejects_a_symbol_outside_the_field():
    code = make_code("fixed_subset", 5, 2, 2, 3, GF13)
    data = np.ones((code.params.l, code.params.k), dtype=np.int64)
    data[2, 1] = 14
    with pytest.raises(ValueError, match="symbol 14 is outside GF"):
        encode_systematic(code, data)


def test_decode_from_columns_rejects_a_symbol_outside_the_field():
    code = make_code("fixed_subset", 5, 2, 2, 3, GF13)
    cw = encode_systematic(code, np.ones((code.params.l, code.params.k), dtype=np.int64))
    columns = {i: cw.column(i).astype(np.int64) for i in (3, 4)}
    columns[4][0] = 20
    with pytest.raises(ValueError, match="symbol 20 is outside GF"):
        decode_from_columns(code, columns)


@pytest.mark.parametrize("stray", [lambda x: 20, lambda x: x + 13], ids=["20", "x+13"])
def test_repair_columns_rejects_a_helper_symbol_outside_the_field(stray):
    code = make_code("any_subset", 4, 1, 2, 2, GF13)
    p = code.params
    cw = encode_systematic(code, np.random.default_rng(8).integers(0, 13, size=(p.l, p.k)))
    ctx = RepairContext((1, 3), (2, 4))
    columns = {j: cw.column(j).astype(np.int64) for j in ctx.helpers}
    columns[4][5] = stray(columns[4][5])
    with pytest.raises(ValueError, match="is outside GF"):
        repair_columns(code, ctx, columns)


def test_round1_helper_payload_rejects_a_symbol_outside_the_field():
    code = make_code("any_subset", 4, 1, 2, 2, GF13)
    ctx = RepairContext((1, 3), (2, 4))
    column = np.zeros(code.params.l, dtype=np.uint8)
    column[-1] = 20
    with pytest.raises(ValueError, match="symbol 20 is outside GF"):
        round1_helper_payload(code, ctx, 2, 1, column)


@pytest.mark.parametrize("shape", ["gather", "many-stripes"])
@pytest.mark.parametrize(
    "spec,stray",
    [(("binary", 8), 300), (("prime", 13), 14), (("prime", 13), 20)],
    ids=["gf256-300", "gf13-14", "gf13-20"],
)
def test_recover_batched_rejects_a_symbol_outside_the_field(spec, stray, shape):
    f = make_field(*spec)
    # one row's tables against the stripes: fewer (a file's shape) or more
    stripes = f.order if shape == "many-stripes" else 1
    vals = np.ones((1, 2, stripes), dtype=np.int64)
    vals[0, 0, -1] = stray
    with pytest.raises(ValueError, match=f"symbol {stray} is outside GF"):
        recover_batched(f, [[1, 2, 3]], 1, [0, 1], vals if stripes > 1 else vals[:, :, 0])
