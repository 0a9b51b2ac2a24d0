"""Cut-set bounds, the two repair rounds, and bandwidth accounting."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from coopmds.codec import CodewordArray, encode_systematic, verify_parity
from coopmds.codespec import InadmissibleError, concat, make_code
from coopmds.field import FieldSpec, make_field
from coopmds.repair import (
    RepairContext,
    RepairMessage,
    centralized_repair_from_round1,
    cooperative_repair,
    cutset_centralized,
    cutset_cooperative,
    repair_columns,
    round1_helper_payload,
    round1_solve,
    round2_exchange_and_finish,
)

from lib_helpers import cell_rows

GF7 = FieldSpec("prime", 7)
GF11 = FieldSpec("prime", 11)
GF13 = FieldSpec("prime", 13)


def random_codeword(spec, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, spec.field.order, size=(spec.params.l, spec.params.k))
    return encode_systematic(spec, data)


def erased(cw, failed, fill=0):
    cells = cw.cells.copy()
    for i in failed:
        cells[:, i - 1] = fill
    return CodewordArray(cw.spec, cells)


def assert_ledger_shape(transcript, ctx, spec):
    h, d = ctx.h, ctx.d
    k, l = spec.params.k, spec.params.l
    quota = l // (h + d - k)
    links = transcript.ledger.link_counts()
    assert all(c == quota for c in links.values())
    assert transcript.ledger.round_subtotal(1) == d * h * quota
    if transcript.mode == "cooperative":
        assert transcript.ledger.round_subtotal(2) == h * (h - 1) * quota
        assert transcript.ledger.total == cutset_cooperative(h, d, k, l)
    else:
        assert transcript.ledger.round_subtotal(2) == 0
        assert transcript.ledger.total == cutset_centralized(h, d, k, l)
    assert transcript.optimal


# ---- bounds -----------------------------------------------------------------


def test_cutset_values():
    assert cutset_centralized(1, 2, 2, 5) == 10  # d=k: download everything
    assert cutset_centralized(2, 3, 2, 3) == 6
    assert cutset_centralized(3, 2, 2, 4) == 8  # h=r,d=k corner: k*l
    assert cutset_cooperative(2, 3, 2, 3) == 8
    assert cutset_cooperative(2, 4, 2, 8) == 20
    assert cutset_cooperative(2, 3, 2, 4) == Fraction(32, 3)
    for d, k, l in [(3, 2, 6), (4, 1, 10), (2, 2, 3)]:
        assert cutset_cooperative(1, d, k, l) == cutset_centralized(1, d, k, l)


def test_cutset_rejects_bad_params():
    with pytest.raises(InadmissibleError):
        cutset_cooperative(0, 3, 2, 3)
    with pytest.raises(InadmissibleError):
        cutset_centralized(2, 1, 2, 3)
    with pytest.raises(InadmissibleError):
        cutset_cooperative(2, 3, 2, 0)


# ---- context ----------------------------------------------------------------


def test_context_normalizes_and_validates():
    ctx = RepairContext((2, 1), (5, 3, 4))
    assert ctx.failed == (1, 2) and ctx.helpers == (3, 4, 5)
    assert ctx.h == 2 and ctx.d == 3
    with pytest.raises(ValueError):
        RepairContext((1, 1), (2, 3))
    with pytest.raises(ValueError):
        RepairContext((1,), (1, 2))
    with pytest.raises(ValueError):
        RepairContext((), (1, 2))
    with pytest.raises(ValueError):
        RepairContext((0,), (1, 2))


# ---- round 1 ----------------------------------------------------------------


def test_helper_payload_fixed_example():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=1)
    msg = round1_helper_payload(spec, ctx, 3, 1, cw.column(3))
    # rows of A: (0,0)=0, (0,1)=1, (1,0)=2; node 1's digit varies over rows 0,2
    assert len(msg) == 1 == spec.params.l // (ctx.h + ctx.d - spec.params.k)
    assert msg.payload[0] == (cw.cells[0, 2] + cw.cells[2, 2]) % 7
    assert msg.tags.tolist() == [[0, 1]]
    other = round1_helper_payload(spec, ctx, 3, 2, cw.column(3))
    assert other.payload[0] == (cw.cells[0, 2] + cw.cells[1, 2]) % 7
    assert other.tags.tolist() == [[0, 2]]


def test_helper_payload_zero_codeword():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    msg = round1_helper_payload(spec, ctx, 4, 1, np.zeros(3, dtype=np.int64))
    assert not msg.payload.any()


def test_helper_payload_role_errors():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    col = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        round1_helper_payload(spec, ctx, 1, 2, col)
    with pytest.raises(ValueError):
        round1_helper_payload(spec, ctx, 3, 4, col)
    with pytest.raises(ValueError):
        round1_helper_payload(spec, ctx, 3, 1, col[:-1])


def round1_messages(spec, ctx, cw, failed):
    return [round1_helper_payload(spec, ctx, j, failed, cw.column(j)) for j in ctx.helpers]


def test_round1_solve_recovers_b_set_and_cross_sums():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=2)
    st = round1_solve(spec, ctx, 1, round1_messages(spec, ctx, cw, 1))
    assert st.entries() == {0: int(cw.cells[0, 0]), 2: int(cw.cells[2, 0])}
    assert len(st.outgoing) == 1
    out = st.outgoing[0]
    assert (out.round, out.sender, out.receiver) == (2, 1, 2)
    # cross-sum oracle: node 2's symbols summed over node 1's digit
    assert out.payload[0] == (cw.cells[0, 1] + cw.cells[2, 1]) % 7
    assert out.tags.tolist() == [[0, 1]]


def test_round1_solve_zero_codeword():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    zero = CodewordArray(spec, np.zeros((3, 5), dtype=np.int64))
    st = round1_solve(spec, ctx, 2, round1_messages(spec, ctx, zero, 2))
    assert not st.column.any() and not st.outgoing[0].payload.any()


def test_round1_solve_payload_validation():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=3)
    msgs = round1_messages(spec, ctx, cw, 1)
    with pytest.raises(ValueError):
        round1_solve(spec, ctx, 1, msgs[:2])
    with pytest.raises(ValueError):
        round1_solve(spec, ctx, 1, msgs + [msgs[0]])
    with pytest.raises(ValueError):
        round1_solve(spec, ctx, 2, msgs)  # addressed to node 1
    bad = RepairMessage(1, 3, 1, msgs[0].payload, [[1, 1]])
    with pytest.raises(ValueError):
        round1_solve(spec, ctx, 1, [bad] + msgs[1:])
    with pytest.raises(ValueError):
        round1_solve(spec, ctx, 3, msgs)


# ---- round 2 ----------------------------------------------------------------


def test_round2_completes_column():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=4)
    st1 = round1_solve(spec, ctx, 1, round1_messages(spec, ctx, cw, 1))
    st2 = round1_solve(spec, ctx, 2, round1_messages(spec, ctx, cw, 2))
    col1 = round2_exchange_and_finish(spec, ctx, 1, st1, st2.outgoing)
    col2 = round2_exchange_and_finish(spec, ctx, 2, st2, st1.outgoing)
    assert np.array_equal(col1, cw.column(1))
    assert np.array_equal(col2, cw.column(2))


def test_round2_missing_message():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=5)
    st1 = round1_solve(spec, ctx, 1, round1_messages(spec, ctx, cw, 1))
    with pytest.raises(ValueError):
        round2_exchange_and_finish(spec, ctx, 1, st1, [])
    st2 = round1_solve(spec, ctx, 2, round1_messages(spec, ctx, cw, 2))
    with pytest.raises(ValueError):
        round2_exchange_and_finish(spec, ctx, 2, st1, st2.outgoing)  # wrong state


# ---- full cooperative runs ---------------------------------------------------


def run_and_check(spec, ctx, seed=0):
    cw = random_codeword(spec, seed=seed)
    restored, transcript = cooperative_repair(spec, erased(cw, ctx.failed), ctx)
    assert restored == cw
    assert verify_parity(restored)
    assert_ledger_shape(transcript, ctx, spec)
    return transcript


def test_cooperative_fixed_small():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    transcript = run_and_check(spec, ctx, seed=6)
    assert transcript.ledger.total == 8
    assert [(m.round, m.sender, m.receiver) for m in transcript.messages] == [
        (1, 3, 1), (1, 3, 2), (1, 4, 1), (1, 4, 2), (1, 5, 1), (1, 5, 2),
        (2, 1, 2), (2, 2, 1),
    ]


def test_cooperative_fixed_three_failures():
    spec = make_code("fixed_subset", 6, 2, 3, 3, GF11)
    transcript = run_and_check(spec, RepairContext((1, 2, 3), (4, 5, 6)), seed=7)
    assert transcript.ledger.total == 15


def test_cooperative_fixed_with_idle_node():
    spec = make_code("fixed_subset", 6, 2, 2, 3, GF11)
    run_and_check(spec, RepairContext((1, 2), (3, 4, 6)), seed=8)
    run_and_check(spec, RepairContext((1, 2), (4, 5, 6)), seed=9)


def test_cooperative_any_subset_every_failed_pair():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    for failed in itertools.combinations(range(1, 5), 2):
        helpers = tuple(sorted(set(range(1, 5)) - set(failed)))
        transcript = run_and_check(spec, RepairContext(failed, helpers), seed=10)
        assert transcript.ledger.total == 1458


def test_cooperative_any_subset_n5():
    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    for failed in itertools.combinations(range(1, 6), 2):
        helpers = tuple(sorted(set(range(1, 6)) - set(failed)))
        transcript = run_and_check(spec, RepairContext(failed, helpers), seed=11)
        assert transcript.ledger.total == 157464


def test_cooperative_any_subset_with_idle():
    spec = make_code("any_subset", 5, 1, 2, 2, GF11)
    for helpers in [(3, 4), (3, 5), (4, 5)]:
        run_and_check(spec, RepairContext((1, 2), helpers), seed=12)
    run_and_check(spec, RepairContext((2, 4), (1, 5)), seed=13)


def test_concatenated_repair_each_component():
    spec = concat(
        [make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]
    )
    t1 = run_and_check(spec, RepairContext((3,), (1, 2)), seed=14)
    assert t1.ledger.total == 11664
    t2 = run_and_check(spec, RepairContext((2, 4), (1, 3)), seed=15)
    assert t2.ledger.total == 23328
    with pytest.raises(InadmissibleError):
        cooperative_repair(
            spec, erased(random_codeword(spec), (4,)), RepairContext((4,), (1, 2, 3))
        )


def test_h1_repair_has_no_round2_and_matches_centralized():
    spec = make_code("any_subset", 4, 1, 1, 2, make_field("binary", 3))
    ctx = RepairContext((2,), (3, 4))
    cw = random_codeword(spec, seed=16)
    coop, t_coop = cooperative_repair(spec, erased(cw, ctx.failed), ctx)
    cent, t_cent = centralized_repair_from_round1(spec, erased(cw, ctx.failed), ctx)
    assert coop == cw == cent
    assert t_coop.ledger == t_cent.ledger
    assert t_coop.ledger.round_subtotal(2) == 0
    assert t_coop.ledger.total == 16 == cutset_cooperative(1, 2, 1, 16)


def test_failed_columns_are_never_read():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    ctx = RepairContext((1, 3), (2, 4))
    cw = random_codeword(spec, seed=17)
    rng = np.random.default_rng(18)
    garbage = erased(cw, ctx.failed)
    noisy = garbage.cells.copy()
    for i in ctx.failed:
        noisy[:, i - 1] = rng.integers(0, 8, size=spec.params.l)
    a, _ = cooperative_repair(spec, garbage, ctx)
    b, _ = cooperative_repair(spec, CodewordArray(spec, noisy), ctx)
    assert a == b == cw


# ---- centralized ------------------------------------------------------------


def test_centralized_fixed_example():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=19)
    restored, transcript = centralized_repair_from_round1(spec, erased(cw, ctx.failed), ctx)
    assert restored == cw
    assert transcript.ledger.total == 6
    assert_ledger_shape(transcript, ctx, spec)


def test_centralized_uses_exact_round1_multiset():
    spec = make_code("any_subset", 4, 1, 2, 2, make_field("binary", 3))
    ctx = RepairContext((1, 2), (3, 4))
    cw = random_codeword(spec, seed=20)
    _, t_coop = cooperative_repair(spec, erased(cw, ctx.failed), ctx)
    _, t_cent = centralized_repair_from_round1(spec, erased(cw, ctx.failed), ctx)
    coop_r1 = [
        (m.sender, m.receiver, m.payload.tolist()) for m in t_coop.messages if m.round == 1
    ]
    cent_all = [(m.sender, m.receiver, m.payload.tolist()) for m in t_cent.messages]
    assert coop_r1 == cent_all


def test_centralized_total_in_every_trial():
    for spec, ctx in [
        (make_code("fixed_subset", 6, 2, 3, 3, GF11), RepairContext((1, 2, 3), (4, 5, 6))),
        (make_code("any_subset", 5, 2, 2, 3, GF11), RepairContext((2, 5), (1, 3, 4))),
    ]:
        cw = random_codeword(spec, seed=21)
        restored, transcript = centralized_repair_from_round1(spec, erased(cw, ctx.failed), ctx)
        assert restored == cw
        assert_ledger_shape(transcript, ctx, spec)


# ---- admissibility errors ----------------------------------------------------


def test_fixed_subset_requires_leading_failed_set():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=22)
    with pytest.raises(InadmissibleError, match="relabel"):
        cooperative_repair(spec, erased(cw, (2, 3)), RepairContext((2, 3), (1, 4, 5)))


def test_wrong_helper_count():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=23)
    with pytest.raises(InadmissibleError):
        cooperative_repair(spec, erased(cw, (1, 2)), RepairContext((1, 2), (3, 4)))


def test_node_out_of_range_and_too_many_failures():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=24)
    with pytest.raises(InadmissibleError):
        cooperative_repair(spec, erased(cw, (1, 2)), RepairContext((1, 2), (3, 4, 7)))
    narrow = make_code("fixed_subset", 6, 4, 1, 5, GF13)
    cw2 = random_codeword(narrow, seed=25)
    with pytest.raises(InadmissibleError):
        cooperative_repair(narrow, erased(cw2, (1, 2, 3)), RepairContext((1, 2, 3), (4, 5, 6)))


# ---- transcripts and striped columns ------------------------------------------


def test_transcript_json_is_deterministic_and_complete():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=26)
    outputs = set()
    for _ in range(2):
        _, transcript = cooperative_repair(spec, erased(cw, ctx.failed), ctx)
        outputs.add(transcript.to_json())
    assert len(outputs) == 1
    doc = json.loads(outputs.pop())
    assert doc["total"] == 8
    assert doc["bounds"] == {"cooperative": 8, "centralized": 6}
    assert doc["optimal"] is True
    assert doc["links"]["3->1"] == 1 and doc["links"]["1->2"] == 1
    assert doc["rounds"] == {"1": 6, "2": 2}


def test_repair_columns_striped():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    stripes = [random_codeword(spec, seed=s) for s in range(4)]
    helper_columns = {
        j: np.stack([cw.column(j) for cw in stripes], axis=1) for j in ctx.helpers
    }
    restored, transcript = repair_columns(spec, ctx, helper_columns)
    for i in ctx.failed:
        assert restored[i].shape == (3, 4)
        for w, cw in enumerate(stripes):
            assert np.array_equal(restored[i][:, w], cw.column(i))
    assert transcript.stripes == 4
    assert transcript.ledger.total == 8 * 4
    assert transcript.optimal


def test_repair_columns_validates_helpers():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cw = random_codeword(spec, seed=27)
    with pytest.raises(ValueError):
        repair_columns(spec, ctx, {j: cw.column(j) for j in (3, 4)})
    with pytest.raises(ValueError):
        repair_columns(spec, ctx, {j: cw.column(j) for j in (2, 3, 4)})


def test_repeat_repair_reuses_the_round1_grouping(monkeypatch):
    import coopmds.repair as repair_module

    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    cw = random_codeword(spec, seed=41)
    ctx = RepairContext((1, 3), (2, 4))
    helpers = {j: cw.column(j) for j in ctx.helpers}
    first, transcript = repair_columns(spec, ctx, helpers)

    def rebuilt(*args):
        raise AssertionError("round-1 points rebuilt for a repeat repair")

    monkeypatch.setattr(repair_module, "_round1_points", rebuilt)
    again, again_transcript = repair_columns(spec, ctx, helpers)
    for i in ctx.failed:
        assert np.array_equal(first[i], cw.column(i))
        assert np.array_equal(again[i], first[i])
    assert again_transcript.ledger == transcript.ledger
    # another failed/helper pattern of the same code builds its own grouping
    with pytest.raises(AssertionError, match="rebuilt"):
        repair_columns(spec, RepairContext((1, 2), (3, 4)), {3: cw.column(3), 4: cw.column(4)})


def test_concurrent_repairs_share_one_round1_grouping():
    import sys
    import threading

    from coopmds.repair import _Geometry, _round1_groups

    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    cw = random_codeword(spec, seed=43)
    ctx = RepairContext((1, 3), (2, 4))
    helpers = {j: cw.column(j) for j in ctx.helpers}
    seen, errors = [], []

    def work():
        try:
            seen.append(_round1_groups(spec, _Geometry(spec, ctx), 1))
            restored, _ = repair_columns(spec, ctx, helpers)
            if not all(np.array_equal(restored[i], cw.column(i)) for i in ctx.failed):
                errors.append("wrong column")
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
    assert len(seen) == 8 and all(g is seen[0] for g in seen)


def test_geometry_builds_node_tables_once_and_derives_tags():
    from coopmds.repair import _geometry

    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    ctx = RepairContext((1, 3), (2, 4))
    geom = _geometry(spec, ctx)
    assert _geometry(spec, RepairContext((3, 1), (4, 2))) is geom
    assert _geometry(spec, RepairContext((1, 2), (3, 4))) is not geom
    for i in ctx.failed:
        assert not geom.node_table[i].flags.writeable
        tags = geom.node_tags(i)
        assert tags.dtype == np.int64 and tags.shape == (geom.quota, 2)
        assert not tags.flags.writeable
        assert np.array_equal(tags[:, 0], cell_rows(geom, i)[:, 0])
        assert (tags[:, 1] == i).all()
        # derived on each read, not kept
        assert geom.node_tags(i) is not tags and np.array_equal(geom.node_tags(i), tags)
    assert not np.array_equal(geom.node_table[1], geom.node_table[3])


def _arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays_in(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays_in(v)


@pytest.mark.parametrize(
    "spec, failed, helpers",
    [
        (make_code("any_subset", 4, 1, 2, 2, GF13), (1, 3), (2, 4)),
        (make_code("any_subset", 5, 2, 2, 3, GF11), (2, 5), (1, 3, 4)),
        (
            concat([make_code("any_subset", 4, 1, 1, 2, GF13), make_code("any_subset", 4, 1, 2, 2, GF13)]),
            (2, 4),
            (1, 3),
        ),
    ],
)
def test_geometry_keeps_no_array_as_long_as_its_cells(spec, failed, helpers):
    """A geometry holds node tables and scalars only: nothing it keeps grows
    with the number of cells, as per-cell tags did."""
    from coopmds.repair import _geometry

    ctx = RepairContext(failed, helpers)
    repair_columns(spec, ctx, {j: np.zeros(spec.params.l, dtype=np.uint8) for j in helpers})
    geom = _geometry(spec, ctx)
    assert geom.quota > 1
    arrays = [a for v in vars(geom).values() for a in _arrays_in(v)]
    assert arrays and all(a.shape[0] < geom.quota for a in arrays)


def test_threads_repairing_one_pattern_share_one_geometry():
    import sys
    import threading

    from coopmds.repair import _geometry, _run_rounds

    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    cw = random_codeword(spec, seed=47)
    ctx = RepairContext((2, 5), (1, 3, 4))
    helpers = {j: cw.column(j) for j in ctx.helpers}
    seen, errors = [], []
    start = threading.Barrier(8, timeout=60)

    def work():
        try:
            start.wait()
            geom = _geometry(spec, ctx)
            seen.append(geom)
            restored, _ = _run_rounds(spec, ctx, helpers, "cooperative")
            if not all(np.array_equal(restored[i], cw.column(i)) for i in ctx.failed):
                errors.append("wrong column")
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
    assert len(seen) == 8 and all(geom is _geometry(spec, ctx) for geom in seen)


def _view_cases():
    """ncls = 2 with stride 1, then stride 3, then stride 48 behind a first component."""
    pair = [make_code("any_subset", 4, 1, h, 2, GF13) for h in (1, 2)]
    return [
        (make_code("fixed_subset", 6, 2, 2, 4, GF11), RepairContext((1, 2), (3, 4, 5, 6))),
        (pair[1], RepairContext((1, 3), (2, 4))),
        (concat(pair), RepairContext((1, 3), (2, 4))),
    ]


@pytest.mark.parametrize("case", range(3))
def test_strided_views_gather_and_scatter_the_cell_rows(case):
    from coopmds.repair import _geometry

    spec, ctx = _view_cases()[case]
    geom = _geometry(spec, ctx)
    l, s = spec.params.l, geom.s
    assert (geom.ncls, geom.stride > 1) == [(2, False), (1, True), (1, True)][case]
    rng = np.random.default_rng(71 + case)
    for shape in ((l,), (l, 3)):
        col = rng.integers(0, spec.field.order, size=shape)
        for i in ctx.failed:
            rows, table = cell_rows(geom, i), geom.node_table[i]
            gathered = geom.blocks(col)[:, table]  # (block, class, u, offset[, stripes])
            assert np.array_equal(np.moveaxis(gathered, 2, 3).reshape(rows.shape + shape[1:]), col[rows])
            msg = round1_helper_payload(spec, ctx, ctx.helpers[0], i, col)
            assert np.array_equal(msg.payload, spec.field.sum(col[rows], axis=1))
            for u in range(s):
                vals = rng.integers(0, spec.field.order, size=(geom.quota,) + shape[1:])
                by_view, by_index = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
                geom.blocks(by_view)[:, table[:, u]] = geom.by_cell(vals)
                by_index[rows[:, u]] = vals
                assert np.array_equal(by_view, by_index)


def test_views_restore_a_concatenated_code_with_a_wide_stride():
    spec, ctx = _view_cases()[2]
    cw = random_codeword(spec, seed=79)
    for mode in ("cooperative", "centralized"):
        restored, transcript = repair_columns(spec, ctx, {j: cw.column(j) for j in ctx.helpers}, mode=mode)
        assert all(np.array_equal(restored[i], cw.column(i)) for i in ctx.failed)
        assert_ledger_shape(transcript, ctx, spec)


def test_one_pattern_builds_one_geometry(monkeypatch):
    import coopmds.repair as repair_module
    from coopmds.cluster import ClusterConfig, run_scenario

    built = []

    class Counted(repair_module._Geometry):
        def __init__(self, spec, ctx):
            built.append(ctx)
            super().__init__(spec, ctx)

    monkeypatch.setattr(repair_module, "_Geometry", Counted)
    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    cw = random_codeword(spec, seed=83)
    ctx = RepairContext((1, 3), (2, 4))
    helpers = {j: cw.column(j) for j in ctx.helpers}
    for _ in range(2):
        repair_columns(spec, ctx, helpers)
    states = _round1_states(spec, ctx, cw)
    (msg,) = states[3].outgoing
    assert np.array_equal(round2_exchange_and_finish(spec, ctx, 1, states[1], [msg]), cw.column(1))
    events = ({"type": "fail", "nodes": [1, 3]}, {"type": "repair", "helpers": [2, 4]}, {"type": "verify"})
    assert run_scenario(ClusterConfig(spec, 5, events), workers=2).verified
    assert built == [ctx]


# ---- one inbox rule, one tags array per cell table ---------------------------


def _round1_states(spec, ctx, cw):
    return {i: round1_solve(spec, ctx, i, round1_messages(spec, ctx, cw, i)) for i in ctx.failed}


def test_round2_rejects_mislabelled_cross_sums():
    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    ctx = RepairContext((1, 3), (2, 4))
    cw = random_codeword(spec, seed=53)
    states = _round1_states(spec, ctx, cw)
    (msg,) = states[3].outgoing  # node 3's cross-sums for node 1
    assert np.array_equal(round2_exchange_and_finish(spec, ctx, 1, states[1], [msg]), cw.column(1))
    wrong_node = msg.tags.copy()
    wrong_node[:, 1] = 1
    mislabelled = [
        (RepairMessage(2, 3, 1, msg.payload, np.roll(msg.tags, 1, axis=0)), "tags"),  # rotated
        (RepairMessage(2, 3, 1, msg.payload, wrong_node), "tags"),  # names node 1 as varied
        (RepairMessage(2, 2, 1, msg.payload, msg.tags), "not a round-2"),  # 2 is a helper
    ]
    for bad, why in mislabelled:
        with pytest.raises(ValueError, match=why):
            round2_exchange_and_finish(spec, ctx, 1, states[1], [bad])


def test_every_message_about_a_node_carries_its_derived_tags():
    from coopmds.repair import _geometry, _run_rounds

    spec = make_code("any_subset", 5, 2, 2, 3, GF11)
    cw = random_codeword(spec, seed=59)
    ctx = RepairContext((2, 5), (1, 3, 4))
    geom = _geometry(spec, ctx)
    _, transcript = _run_rounds(spec, ctx, {j: cw.column(j) for j in ctx.helpers}, "cooperative")
    messages = list(transcript.messages)
    states = _round1_states(spec, ctx, cw)
    messages += [m for st in states.values() for m in st.outgoing]
    messages.append(round1_helper_payload(spec, ctx, 1, 2, cw.column(1)))
    assert {m.round for m in messages} == {1, 2}
    for msg in messages:
        varied = msg.receiver if msg.round == 1 else msg.sender
        assert msg.cells == (geom, varied)
        tags = msg.tags
        assert tags.dtype == np.int64 and not tags.flags.writeable
        assert np.array_equal(tags[:, 0], cell_rows(geom, varied)[:, 0])
        assert (tags[:, 1] == varied).all()


# SHA-256 of tags.tobytes() per (round, sender, receiver), recorded when each
# geometry still kept its tags as arrays: the cluster_universal cycle's three
# patterns on universal_code(4, 1)
_GOLDEN_UNIVERSAL_TAGS = {
    ((1, 3), (2, 4), "cooperative"): {
        (1, 2, 1): "4fffe2d0f1e92e9966fd83183ba935bbc8603d6e050819923d5d3baf81b8e59e",
        (1, 2, 3): "b99ce951d5b01386e55a3a57612a7bb694e487e4ad99f83315e5f5552405617e",
        (1, 4, 1): "4fffe2d0f1e92e9966fd83183ba935bbc8603d6e050819923d5d3baf81b8e59e",
        (1, 4, 3): "b99ce951d5b01386e55a3a57612a7bb694e487e4ad99f83315e5f5552405617e",
        (2, 1, 3): "4fffe2d0f1e92e9966fd83183ba935bbc8603d6e050819923d5d3baf81b8e59e",
        (2, 3, 1): "b99ce951d5b01386e55a3a57612a7bb694e487e4ad99f83315e5f5552405617e",
    },
    ((2,), (1, 3, 4), "cooperative"): {
        (1, 1, 2): "af44e43f67ba91ca40291898462ddac31ee3156ff72fb99ec7a7d46f39c1b976",
        (1, 3, 2): "af44e43f67ba91ca40291898462ddac31ee3156ff72fb99ec7a7d46f39c1b976",
        (1, 4, 2): "af44e43f67ba91ca40291898462ddac31ee3156ff72fb99ec7a7d46f39c1b976",
    },
    ((4,), (1, 2), "centralized"): {
        (1, 1, 4): "6892fa6916a1ce807b7a1f0e40bfefad6da588e39e5822bcaed1c38613f8c5c4",
        (1, 2, 4): "6892fa6916a1ce807b7a1f0e40bfefad6da588e39e5822bcaed1c38613f8c5c4",
    },
}


def test_universal_code_message_tags_are_golden():
    import hashlib

    from coopmds.codespec import universal_code

    spec = universal_code(4, 1)
    zero = np.zeros(spec.params.l, dtype=spec.field.symbol_dtype)
    for (failed, helpers, mode), want in _GOLDEN_UNIVERSAL_TAGS.items():
        ctx = RepairContext(failed, helpers)
        _, transcript = repair_columns(spec, ctx, {j: zero for j in helpers}, mode=mode)
        got = {
            (m.round, m.sender, m.receiver): hashlib.sha256(m.tags.tobytes()).hexdigest()
            for m in transcript.messages
        }
        assert got == want


def test_inbox_accepts_an_equal_copy_of_the_tags():
    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    ctx = RepairContext((1, 3), (2, 4))
    cw = random_codeword(spec, seed=89)
    copied = [
        RepairMessage(1, m.sender, 1, m.payload, m.tags.copy())
        for m in round1_messages(spec, ctx, cw, 1)
    ]
    assert all(not np.shares_memory(c.tags, m.tags) for c, m in zip(copied, round1_messages(spec, ctx, cw, 1)))
    state = round1_solve(spec, ctx, 1, copied)
    (msg,) = _round1_states(spec, ctx, cw)[3].outgoing
    msg = RepairMessage(2, 3, 1, msg.payload, msg.tags.copy())
    assert np.array_equal(round2_exchange_and_finish(spec, ctx, 1, state, [msg]), cw.column(1))


def test_inbox_checks_cell_references_against_the_formula():
    """A protocol message names its cells by (geometry, varied node).  One
    readdressed to another failed node keeps that reference and is refused;
    one built on an equal spec's own geometry is checked by its tags."""
    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    ctx = RepairContext((1, 3), (2, 4))
    cw = random_codeword(spec, seed=97)
    for_3 = round1_messages(spec, ctx, cw, 3)
    readdressed = [RepairMessage(1, m.sender, 1, m.payload, cells=m.cells) for m in for_3]
    with pytest.raises(ValueError, match="tags"):
        round1_solve(spec, ctx, 1, readdressed)
    twin = make_code("any_subset", 4, 1, 2, 2, GF13)
    assert twin == spec and twin is not spec
    foreign = round1_messages(twin, ctx, cw, 1)
    assert foreign[0].cells[0] is not round1_messages(spec, ctx, cw, 1)[0].cells[0]
    state = round1_solve(spec, ctx, 1, foreign)
    assert np.array_equal(state.column, round1_solve(twin, ctx, 1, foreign).column)


def test_a_width_one_stripe_axis_is_kept_through_both_rounds():
    from coopmds.repair import _run_rounds

    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    cw = random_codeword(spec, seed=61)
    ctx = RepairContext((1, 3), (2, 4))
    l, quota = spec.params.l, spec.params.l // 3
    for shape in ((l,), (l, 1)):
        helpers = {j: cw.column(j).reshape(shape) for j in ctx.helpers}
        restored, transcript = repair_columns(spec, ctx, helpers)
        assert transcript.stripes == 1
        for i in ctx.failed:
            assert restored[i].shape == shape
            assert np.array_equal(restored[i].reshape(l), cw.column(i))
        _, transcript = _run_rounds(spec, ctx, helpers, "cooperative")
        assert {m.payload.shape for m in transcript.messages} == {(quota,) + shape[1:]}


def test_repair_columns_rejects_helper_columns_of_differing_shapes():
    spec = make_code("any_subset", 4, 1, 2, 2, GF13)
    cw = random_codeword(spec, seed=67)
    ctx = RepairContext((1, 3), (2, 4))
    l = spec.params.l
    wide = {2: np.tile(cw.column(2)[:, None], (1, 2)), 4: np.tile(cw.column(4)[:, None], (1, 3))}
    with pytest.raises(ValueError, match="helper 4"):
        repair_columns(spec, ctx, wide)
    with pytest.raises(ValueError, match="helper 4"):
        repair_columns(spec, ctx, {2: cw.column(2), 4: cw.column(4).reshape(l, 1)})


def test_round2_rejects_cross_sums_whose_stripes_do_not_fit_the_state():
    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    ctx = RepairContext((1, 2), (3, 4, 5))
    cws = [random_codeword(spec, seed=73 + w) for w in range(3)]
    cols = {j: np.stack([cw.column(j) for cw in cws], axis=1) for j in range(1, 6)}
    wide = [round1_helper_payload(spec, ctx, j, 1, cols[j]) for j in ctx.helpers]
    st1 = round1_solve(spec, ctx, 1, wide)
    # node 2 solved stripe 0 alone, so its cross-sums are 1-D
    one = [round1_helper_payload(spec, ctx, j, 2, cols[j][:, 0]) for j in ctx.helpers]
    st2 = round1_solve(spec, ctx, 2, one)
    with pytest.raises(ValueError, match="do not fit"):
        round2_exchange_and_finish(spec, ctx, 1, st1, st2.outgoing)
    with pytest.raises(ValueError, match="do not fit"):
        round2_exchange_and_finish(spec, ctx, 2, st2, st1.outgoing)


def test_a_spec_that_has_repaired_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    spec = make_code("fixed_subset", 5, 2, 2, 3, GF7)
    cw = random_codeword(spec, seed=83)
    ctx = RepairContext((1, 2), (3, 4, 5))
    restored, _ = repair_columns(spec, ctx, {j: cw.column(j) for j in ctx.helpers})
    assert all(np.array_equal(restored[i], cw.column(i)) for i in ctx.failed)
    ref = weakref.ref(spec)
    gc.disable()
    try:
        del spec, cw  # the codeword holds the spec too
        assert ref() is None
    finally:
        gc.enable()
