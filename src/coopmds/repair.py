"""Two-round cooperative repair, the centralized comparison, cut-set bounds,
and bandwidth accounting.

The repair unit is one (instance, class) cell.  An instance pins every row
digit except the A-block of the failed set F; a class b further pins the
block digits at the surviving F-positions to values below s-1.  The s rows
of a cell differ only in failed node i's own digit u, so node i's
coefficients there are s distinct table entries while every other node's
coefficient is constant.  Summing the parity checks over u therefore yields,
for each exponent t, one dual-Vandermonde equation on n+s-1 points: node i's
s entries, one per-node sum for everyone else.  d helper sums are downloaded
(round 1), leaving exactly r = n-k unknowns: the s entries, the h-1 sums
over the other failed columns, and the idle-node sums.  Solving recovers the
entries of B_z plus cross-sums that round 2 turns into the rows with digit
s-1 at another failed position, which completes A.

All of that is index arithmetic against spec.coeff_matrix(): fixed_subset
codes have one instance, any_subset codes one per assignment of the other
blocks, and concatenated codes one per assignment of the other components'
digits as well.  The rows of a cell are affine in it: with the F-block's
stride and span = |A|·stride, node i's cell (block b, class c, offset L)
holds rows b·span + table_i[c, u]·stride + L.  So a column reshaped to
(l // span, |A|, stride) and indexed by table_i on axis 1 yields every cell
with no row-index array.  Columns may carry a trailing stripe axis.  Each
cell's points are passed once: the round-1 completion map is built once per
distinct point row and then applied to every cell and stripe that shares it,
which is how whole-file repair stays fast.  The spec keeps one geometry per
failed and helper set, and the grouping of each failed node's cell points,
so a repeat repair of the same pattern rebuilds neither.  Message tags are
derived from the cell formula when read, not stored.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from coopmds.codec import CodewordArray
from coopmds.codespec import CodeSpec, InadmissibleError, card_A, subset_rank
from coopmds.grs import _RowGroups


# ---- bounds -----------------------------------------------------------------


def _check_bound_params(h: int, d: int, k: int, l: int) -> None:
    if h < 1 or k < 0 or d < k or l < 1:
        raise InadmissibleError(f"inadmissible bound parameters h={h} d={d} k={k} l={l}")


def cutset_centralized(h: int, d: int, k: int, l: int) -> Fraction:
    """Minimum symbol count to rebuild h columns at one data center from d
    helpers: h*d*l/(h+d-k)."""
    _check_bound_params(h, d, k, l)
    return Fraction(h * d * l, h + d - k)


def cutset_cooperative(h: int, d: int, k: int, l: int) -> Fraction:
    """Minimum total symbol count for h new nodes repairing cooperatively
    from d helpers: h*(h+d-1)*l/(h+d-k)."""
    _check_bound_params(h, d, k, l)
    return Fraction(h * (h + d - 1) * l, h + d - k)


# ---- protocol types ---------------------------------------------------------


@dataclass(frozen=True)
class RepairContext:
    """Failed node set F and helper set R, 1-based and disjoint."""

    failed: tuple[int, ...]
    helpers: tuple[int, ...]

    def __post_init__(self):
        f, r = tuple(self.failed), tuple(self.helpers)
        if len(set(f)) != len(f) or len(set(r)) != len(r):
            raise ValueError("duplicate node indices")
        f, r = tuple(sorted(f)), tuple(sorted(r))
        if not f or not r:
            raise ValueError("failed and helper sets must be nonempty")
        if f[0] < 1 or r[0] < 1:
            raise ValueError("node indices are 1-based")
        if set(f) & set(r):
            raise ValueError(f"failed and helper sets overlap: {set(f) & set(r)}")
        object.__setattr__(self, "failed", f)
        object.__setattr__(self, "helpers", r)

    @property
    def h(self) -> int:
        return len(self.failed)

    @property
    def d(self) -> int:
        return len(self.helpers)


class RepairMessage:
    """One protocol message.

    payload[t] is the sum over u of the column symbols at the rows whose
    varied-node block digit is u; tags[t] = (base row, varied node) names the
    u=0 row and the failed node whose digit varies, making each symbol
    self-describing.  Round 1 varies the receiver's digit, round 2 the
    sender's.  A trailing payload axis, when present, spans stripes that
    share tags.  The protocol's payloads are in the field's symbol dtype.

    The protocol's own messages store cells = (geometry, varied node) in place
    of tags, and tags is then derived from the cell formula on each read.
    """

    def __init__(self, round: int, sender: int, receiver: int, payload, tags=None, *, cells=None):
        self.round, self.sender, self.receiver = round, sender, receiver
        self.payload, self.cells = np.asarray(payload), cells
        self._tags = None if cells is not None else np.asarray(tags, dtype=np.int64)
        shape = self._tags.shape if cells is None else (cells[0].quota, 2)
        if shape != (self.payload.shape[0], 2):
            raise ValueError("need one (base row, varied node) tag per payload entry")

    @property
    def tags(self) -> np.ndarray:
        return self._tags if self.cells is None else self.cells[0].node_tags(self.cells[1])

    def __len__(self) -> int:
        return self.payload.shape[0]

    @property
    def symbols(self) -> int:
        return self.payload.size


class BandwidthLedger:
    """Symbol counts per (round, sender, receiver)."""

    def __init__(self):
        self._counts: dict[tuple[int, int, int], int] = {}

    def add(self, message: RepairMessage) -> None:
        key = (message.round, message.sender, message.receiver)
        self._counts[key] = self._counts.get(key, 0) + message.symbols

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def round_subtotal(self, rnd: int) -> int:
        return sum(c for (r, _, _), c in self._counts.items() if r == rnd)

    def link_counts(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (_, snd, rcv), c in self._counts.items():
            out[(snd, rcv)] = out.get((snd, rcv), 0) + c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, BandwidthLedger) and self._counts == other._counts

    def __repr__(self) -> str:
        return f"BandwidthLedger(total={self.total}, links={len(self.link_counts())})"


def _fraction_json(x: Fraction) -> "int | str":
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class RepairTranscript:
    """Messages plus accounting for one repair run."""

    mode: str
    messages: tuple[RepairMessage, ...]
    ledger: BandwidthLedger
    cooperative_bound: Fraction
    centralized_bound: Fraction
    stripes: int = 1

    @property
    def bound(self) -> Fraction:
        return self.cooperative_bound if self.mode == "cooperative" else self.centralized_bound

    @property
    def optimal(self) -> bool:
        return self.ledger.total == self.bound * self.stripes

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "stripes": self.stripes,
            "links": {
                f"{snd}->{rcv}": c for (snd, rcv), c in sorted(self.ledger.link_counts().items())
            },
            "rounds": {"1": self.ledger.round_subtotal(1), "2": self.ledger.round_subtotal(2)},
            "total": self.ledger.total,
            "bounds": {
                "cooperative": _fraction_json(self.cooperative_bound),
                "centralized": _fraction_json(self.centralized_bound),
            },
            "optimal": self.optimal,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class Round1State:
    """A failed node's private state after its round-1 solve: the B-set rows
    of its own column plus the cross-sum messages owed to the other failed
    nodes."""

    node: int
    column: np.ndarray
    filled: np.ndarray
    outgoing: tuple[RepairMessage, ...]

    def entries(self) -> dict[int, int]:
        rows = np.nonzero(self.filled)[0]
        return {int(rw): int(self.column[rw]) for rw in rows}


# ---- geometry ---------------------------------------------------------------


def _validate_context(spec: CodeSpec, ctx: RepairContext) -> tuple[CodeSpec, int]:
    p = spec.params
    if max(ctx.failed[-1], ctx.helpers[-1]) > p.n:
        raise InadmissibleError(f"node index beyond n={p.n}")
    if ctx.h > p.r:
        raise InadmissibleError(f"cannot repair {ctx.h} failures with r={p.r} parity columns")
    if spec.family == "fixed_subset" and ctx.failed != tuple(range(1, ctx.h + 1)):
        raise InadmissibleError(
            f"fixed_subset specs repair F={{1..h}} only; relabel columns to move "
            f"{set(ctx.failed)} there or use an any_subset spec"
        )
    return spec.component_for(ctx.h, ctx.d)


class _Geometry:
    """The cells of one (spec, ctx), built once per pattern by _geometry.
    Node i's cell (block b, class c, offset L) holds rows b·span +
    node_table[i][c, u]·stride + L, so each gather and scatter indexes axis 1
    of blocks(col), and node i's message tags follow from the same formula
    (node_tags) rather than being stored.  The spec keeps the geometry, so
    the geometry does not keep the spec: callers pass it alongside."""

    def __init__(self, spec: CodeSpec, ctx: RepairContext):
        comp, scale = _validate_context(spec, ctx)
        self.ctx = ctx
        self.s, h = comp.params.s, comp.params.h
        self.ca = card_A(h, self.s)
        self.stride = scale * self.ca ** (subset_rank(ctx.failed) - 1)
        self.nblk = spec.params.l // (self.ca * self.stride)
        self.ncls = (self.s - 1) ** (h - 1)
        self.quota = self.nblk * self.ncls * self.stride
        self.idle = tuple(
            sorted(set(range(1, spec.params.n + 1)) - set(ctx.failed) - set(ctx.helpers))
        )
        self.node_table: dict[int, np.ndarray] = {}
        for z, i in enumerate(ctx.failed):
            # table[c, u] = A-position of the block with digit u at node i's
            # F-position and the class-c digits (all below s-1) elsewhere
            table = np.empty((self.ncls, self.s), dtype=np.int64)
            for c, b in enumerate(itertools.product(range(self.s - 1), repeat=h - 1)):
                for u in range(self.s):
                    table[c, u] = comp.apos_of(b[:z] + (u,) + b[z:])
            table.setflags(write=False)
            self.node_table[i] = table

    def node_tags(self, i: int) -> np.ndarray:
        """Failed node i's read-only (quota, 2) tags: (base row, i) per cell,
        the base row being the cell's row with digit 0 at node i."""
        span = np.arange(self.nblk, dtype=np.int64)[:, None, None] * (self.ca * self.stride)
        base = span + self.node_table[i][:, :1] * self.stride + np.arange(self.stride)
        tags = np.stack([base.ravel(), np.full(self.quota, i, dtype=np.int64)], axis=1)
        tags.setflags(write=False)
        return tags

    def blocks(self, col: np.ndarray) -> np.ndarray:
        """col (l[, stripes]) as (l // span, |A|, stride[, stripes]): axis 1 is
        the A-position of the F-block."""
        return col.reshape((self.nblk, self.ca, self.stride) + col.shape[1:])

    def by_cell(self, vals: np.ndarray) -> np.ndarray:
        """Per-cell vals (quota[, stripes]) as (l // span, ncls, stride[,
        stripes]), the shape of blocks(col)[:, node_table[i][:, u]]."""
        return vals.reshape((self.nblk, self.ncls, self.stride) + vals.shape[1:])


def _geometry(spec: CodeSpec, ctx: RepairContext) -> _Geometry:
    """The one geometry of this failed and helper set, kept by the spec."""
    return spec._derived(("geometry", ctx.failed, ctx.helpers), lambda: _Geometry(spec, ctx))


def _inbox(
    geom: _Geometry, rnd: int, receiver: int, senders: tuple[int, ...], received: Iterable
) -> tuple[list[np.ndarray], set]:
    """One (quota, stripes) payload per sender in order, and the set of their
    shapes (one at most).  Each sender sends once, tagged with the cells its
    sums cover: the receiver's in round 1, its own in round 2."""
    msgs = received.values() if isinstance(received, Mapping) else received
    by_sender: dict[int, RepairMessage] = {}
    for msg in msgs:
        if msg.round != rnd or msg.receiver != receiver or msg.sender not in senders:
            raise ValueError(f"message {msg.round}:{msg.sender}->{msg.receiver} is not a "
                             f"round-{rnd} message for node {receiver}")
        if msg.sender in by_sender:
            raise ValueError(f"duplicate round-{rnd} message from node {msg.sender}")
        # this geometry's own messages pass by reference, others by their tags
        varied = receiver if rnd == 1 else msg.sender
        if msg.cells != (geom, varied) and not np.array_equal(msg.tags, geom.node_tags(varied)):
            raise ValueError(f"round-{rnd} tags from node {msg.sender} do not name its cells")
        by_sender[msg.sender] = msg
    if len(by_sender) != len(senders):
        raise ValueError(f"need round-{rnd} messages from {senders}, got {sorted(by_sender)}")
    shapes = {msg.payload.shape for msg in by_sender.values()}
    if len(shapes) > 1:
        raise ValueError(f"round-{rnd} payloads for node {receiver} differ in shape: {shapes}")
    return [by_sender[j].payload.reshape(geom.quota, -1) for j in senders], shapes


# ---- round 1 ----------------------------------------------------------------


def round1_helper_payload(
    spec: CodeSpec, ctx: RepairContext, helper: int, failed: int, column: np.ndarray
) -> RepairMessage:
    """The round-1 download from one helper for one failed node: per repair
    cell, the sum of the helper's symbols over the failed node's digit."""
    if helper not in ctx.helpers:
        raise ValueError(f"node {helper} is not a helper in this context")
    if failed not in ctx.failed:
        raise ValueError(f"node {failed} is not failed in this context")
    geom = _geometry(spec, ctx)
    col = spec.field.as_symbols(column)
    if col.ndim not in (1, 2) or col.shape[0] != spec.params.l:
        raise ValueError(f"column must have {spec.params.l} rows")
    sums = spec.field.sum(geom.blocks(col)[:, geom.node_table[failed]], axis=2)
    payload = sums.reshape((geom.quota,) + col.shape[1:])
    return RepairMessage(1, helper, failed, payload, cells=(geom, failed))


def _round1_points(spec: CodeSpec, geom: _Geometry, i: int) -> np.ndarray:
    """Per-cell points of node i's round-1 systems, shape (quota, r + d):
    node i's s entries, one per other failed node, one per idle node, then
    one per helper."""
    s, ctx = geom.s, geom.ctx
    cross = [ip for ip in ctx.failed if ip != i]
    npts = s + len(cross) + len(geom.idle) + ctx.d
    assert npts - ctx.d == spec.params.r

    table, coeff = geom.node_table[i], geom.blocks(spec.coeff_matrix())
    pts = np.empty((geom.nblk, geom.ncls, geom.stride, npts), dtype=spec.field.symbol_dtype)
    # node i's coefficient depends on its own digit only, so class 0 serves all
    pts[..., :s] = np.moveaxis(coeff[..., i - 1][:, table[0]], 1, 2)[:, None]
    for idx, ip in enumerate(cross):
        pts[..., s + idx] = coeff[..., ip - 1][:, table[:, 0]]
    # the other nodes' coefficients are constant over the F-block
    for idx, j in enumerate(geom.idle + ctx.helpers):
        pts[..., s + len(cross) + idx] = coeff[..., j - 1][:, :1]
    return pts.reshape(geom.quota, npts)


def _round1_groups(spec: CodeSpec, geom: _Geometry, i: int) -> _RowGroups:
    """The grouping of node i's round-1 points, kept by the spec so that a
    repeat repair of the same failed and helper sets skips building and
    grouping the per-cell points."""
    ctx = geom.ctx
    return spec._derived(
        ("round1", ctx.failed, ctx.helpers, i),
        lambda: _RowGroups(spec.field, _round1_points(spec, geom, i)),
    )


def round1_solve(
    spec: CodeSpec,
    ctx: RepairContext,
    failed: int,
    payloads: "Iterable[RepairMessage] | Mapping[int, RepairMessage]",
) -> Round1State:
    """Solve the per-cell (n+s-1)-point systems from the d helper payloads.

    Recovers the failed node's B-set entries (own digit anywhere, other
    F-digits below s-1) and the cross-sums for round 2; idle-node sums are
    solved and discarded.
    """
    if failed not in ctx.failed:
        raise ValueError(f"node {failed} is not failed in this context")
    geom = _geometry(spec, ctx)
    s, r = geom.s, spec.params.r
    known, shapes = _inbox(geom, 1, failed, ctx.helpers, payloads)
    flat = shapes == {(geom.quota,)}
    groups = _round1_groups(spec, geom, failed)
    vals = groups.complete(r, np.arange(r, r + ctx.d), np.stack(known, axis=1))

    l, stripes, table = spec.params.l, vals.shape[2], geom.node_table[failed]
    column = np.zeros((l, stripes), dtype=vals.dtype)
    filled = np.zeros(l, dtype=bool)
    for u in range(s):
        geom.blocks(column)[:, table[:, u]] = geom.by_cell(vals[:, u])
    geom.blocks(filled)[:, table] = True
    cross = [ip for ip in ctx.failed if ip != failed]
    sums = vals[:, s:, 0] if flat else vals[:, s:]
    outgoing = tuple(
        RepairMessage(2, failed, ip, sums[:, idx], cells=(geom, failed))
        for idx, ip in enumerate(cross)
    )
    return Round1State(failed, column[:, 0] if flat else column, filled, outgoing)


# ---- round 2 ----------------------------------------------------------------


def round2_exchange_and_finish(
    spec: CodeSpec,
    ctx: RepairContext,
    failed: int,
    state: Round1State,
    received: Iterable[RepairMessage],
) -> np.ndarray:
    """Fold the cross-sums from the other failed nodes into the round-1
    state: subtracting the s-1 already-known entries of each sum isolates the
    row with digit s-1 at the sender's position, completing the column."""
    if failed != state.node:
        raise ValueError("state belongs to a different node")
    geom, field = _geometry(spec, ctx), spec.field
    senders = tuple(ip for ip in ctx.failed if ip != failed)
    sums, shapes = _inbox(geom, 2, failed, senders, received)
    if shapes - {(geom.quota,) + state.column.shape[1:]}:
        raise ValueError(f"round-2 payloads {shapes} do not fit state {state.column.shape}")
    l = spec.params.l
    column = state.column.reshape(l, -1).copy()
    filled = state.filled.copy()
    cols, done = geom.blocks(column), geom.blocks(filled)
    for ip, acc in zip(senders, sums):
        # each of ip's cells sums s rows; round 1 knew all but the digit-(s-1) one
        table = geom.node_table[ip]
        acc = geom.by_cell(acc)
        for u in range(geom.s - 1):
            if not done[:, table[:, u]].all():
                raise ValueError("round-1 state is missing entries the exchange relies on")
            acc = field.sub(acc, cols[:, table[:, u]])
        cols[:, table[:, geom.s - 1]] = acc
        done[:, table[:, geom.s - 1]] = True
    if not filled.all():
        raise ValueError("repair incomplete: rows remain uncovered")
    return column.reshape(state.column.shape)


# ---- full protocol ----------------------------------------------------------


def _run_rounds(
    spec: CodeSpec,
    ctx: RepairContext,
    helper_columns: Mapping[int, np.ndarray],
    mode: str,
    pool_map=map,
) -> tuple[dict[int, np.ndarray], RepairTranscript]:
    """The one run of the protocol that the library, the CLI and the
    simulator share: both rounds through the public round functions, the
    round-1 solves through pool_map.

    helper_columns holds one column per helper of ctx, all of one shape, and
    mode is "cooperative" or "centralized"; repair_columns checks both.
    Returns the restored failed columns and a transcript of the metered
    messages in (round, sender, receiver) order, their ledger, both cut-set
    bounds and the stripe count.  In centralized mode the round-2 arithmetic
    happens at the pooling point, so only round-1 messages are metered.
    """
    messages: list[RepairMessage] = []
    inbox1: dict[int, list[RepairMessage]] = {i: [] for i in ctx.failed}
    for j in ctx.helpers:
        for i in ctx.failed:
            msg = round1_helper_payload(spec, ctx, j, i, helper_columns[j])
            inbox1[i].append(msg)
            messages.append(msg)
    solved = pool_map(lambda i: round1_solve(spec, ctx, i, inbox1[i]), ctx.failed)
    states = dict(zip(ctx.failed, solved))
    inbox2: dict[int, list[RepairMessage]] = {i: [] for i in ctx.failed}
    for state in states.values():
        for msg in state.outgoing:
            inbox2[msg.receiver].append(msg)
            if mode == "cooperative":
                messages.append(msg)
    restored = {
        i: round2_exchange_and_finish(spec, ctx, i, states[i], inbox2[i]) for i in ctx.failed
    }
    messages.sort(key=lambda m: (m.round, m.sender, m.receiver))
    ledger = BandwidthLedger()
    for msg in messages:
        ledger.add(msg)
    k, l = spec.params.k, spec.params.l
    coop, cent = cutset_cooperative(ctx.h, ctx.d, k, l), cutset_centralized(ctx.h, ctx.d, k, l)
    shape = np.shape(helper_columns[ctx.helpers[0]])
    stripes = shape[1] if len(shape) == 2 else 1
    return restored, RepairTranscript(mode, tuple(messages), ledger, coop, cent, stripes=stripes)


def repair_columns(
    spec: CodeSpec,
    ctx: RepairContext,
    helper_columns: Mapping[int, np.ndarray],
    *,
    mode: str = "cooperative",
) -> tuple[dict[int, np.ndarray], RepairTranscript]:
    """Run the protocol on raw columns (each (l,) or (l, stripes)) and return
    the restored failed columns plus a transcript.

    In centralized mode the round-2 arithmetic happens at the pooling point,
    so only round-1 messages are sent or metered.
    """
    if mode not in ("cooperative", "centralized"):
        raise ValueError(f"unknown mode {mode!r}")
    _geometry(spec, ctx)  # checks ctx against spec first
    if sorted(helper_columns) != list(ctx.helpers):
        raise ValueError(f"need columns for helpers {ctx.helpers}, got {sorted(helper_columns)}")
    shape = np.shape(helper_columns[ctx.helpers[0]])
    for j, col in helper_columns.items():
        if np.shape(col) != shape:
            raise ValueError(f"helper {j}'s column has shape {np.shape(col)}, not {shape}")
    return _run_rounds(spec, ctx, helper_columns, mode)


def _repair_array(
    spec: CodeSpec, damaged: CodewordArray, ctx: RepairContext, mode: str
) -> tuple[CodewordArray, RepairTranscript]:
    if damaged.spec != spec:
        raise ValueError("codeword array belongs to a different spec")
    _validate_context(spec, ctx)
    helper_columns = {j: damaged.cells[:, j - 1] for j in ctx.helpers}
    restored, transcript = repair_columns(spec, ctx, helper_columns, mode=mode)
    cells = damaged.cells.copy()
    for i, col in restored.items():
        cells[:, i - 1] = col
    return CodewordArray(spec, cells), transcript


def cooperative_repair(
    spec: CodeSpec, damaged: CodewordArray, ctx: RepairContext
) -> tuple[CodewordArray, RepairTranscript]:
    """Repair the erased columns F of damaged (whose F-columns are ignored)
    using the two-round protocol; the ledger meets the cooperative cut-set
    bound exactly and every ordered link carries l/(h+d-k) symbols."""
    return _repair_array(spec, damaged, ctx, "cooperative")


def centralized_repair_from_round1(
    spec: CodeSpec, damaged: CodewordArray, ctx: RepairContext
) -> tuple[CodewordArray, RepairTranscript]:
    """Rebuild all failed columns from the round-1 payload multiset alone,
    pooled at one point; traffic meets the centralized cut-set bound."""
    return _repair_array(spec, damaged, ctx, "centralized")
