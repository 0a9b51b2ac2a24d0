"""Vandermonde solving and the generalized Reed-Solomon erasure kernel.

A vector y of length N is a codeword of the dual-Vandermonde code on distinct
points p_1..p_N with r parity rows when sum_j p_j^t y_j = 0 for t = 0..r-1.
Any N-r coordinates of such a codeword determine the rest: the r unknown
coordinates solve an r x r Vandermonde subsystem.  That completion step is the
single kernel every repair computation reduces to.

The unknowns are a fixed linear function of the knowns, so ``recover_batched``
builds one r x (N-r) map per distinct point row with ``solve_batched`` (plain
Gaussian elimination over a numpy stack of systems; r stays single-digit at
all supported scales) and applies it as a multiply-accumulate to every system
and stripe that shares the row.  ``recover_batched`` caches nothing: a
caller that reuses one points matrix keeps its ``_RowGroups`` (the grouping
plus the maps built so far), as ``CodeSpec`` does for ``coeff_matrix()`` and
for repair's round-1 points, so a code pays for them once per erasure
pattern rather than once per call or stripe.

Known symbols enter through ``Field.as_symbols``, which range-checks them,
and every step keeps them in the field's ``symbol_dtype``.  A map keeps
packed joint product tables for groups of t consecutive known coordinates:
on distinct row u, the entry whose base-order digits are v_t..v_1 holds
sum_m c_ij_m·v_m for every unknown i side by side in W lanes (W the next
power of two from parity, the pad lanes zero): at t = 1 the per-term
``Field.scale_table`` rows, extended a digit at a time by ``Field.add`` for
larger t.  Terms are summed on one of two paths, chosen by shape alone so
that the tables kept with a map never outgrow W x known x systems x stripes
symbols.  Both read cells = rows x order, the entries of one term's tables:

- cells <= systems x stripes (files, and one stripe over many distinct
  rows, as in the universal codes): a gather through the tables.  Terms
  share joint tables (t >= 2) only when cells > stripes, the largest t with
  rows x order^t <= systems x stripes entries (every known helper sum of a
  universal code's round-1 solve in one); a file chunk, whose stripes
  outnumber its cells, reads each coordinate through its own rows.  A block
  of at most max(2^15, cells) symbols of one or more systems, so that its
  index stays in cache without splitting a system's stripes more finely
  than its tables, reads every unknown of a group with one gather at
  row x order^t + digits (a word of up to 8 bytes, or a row of them), and
  groups are summed by XOR on words (binary) or ``Field.add`` (prime);
- otherwise (a wide field over few systems, where tables would cost more
  than the products): ``Field.mul`` on each term's gathered coefficients.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from coopmds.field import Field


def solve_batched(field: Field, mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B independent q x q systems mats[b] @ y[b] = rhs[b] over the field.

    mats has shape (B, q, q) and rhs (B, q); both are left untouched.  Raises
    ValueError if any system is singular.
    """
    mats, rhs = np.asarray(mats), np.asarray(rhs)
    nsys, q, q2 = mats.shape
    if q != q2 or rhs.shape != (nsys, q):
        raise ValueError("batch shape mismatch")
    # Gauss-Jordan on [mats | rhs], a fresh array
    aug = np.concatenate([mats, rhs[:, :, None]], axis=2)
    bidx = np.arange(nsys)
    for col in range(q):
        piv_row = col + (aug[:, col:, col] != 0).argmax(axis=1)
        pivot = aug[bidx, piv_row]
        if (pivot[:, col] == 0).any():
            raise ValueError("singular system in batch")
        aug[bidx, piv_row] = aug[:, col]
        aug[:, col] = field.mul(pivot, field.inv(pivot[:, col])[:, None])
        fac = aug[:, :, col].copy()
        fac[:, col] = 0
        aug = field.sub(aug, field.mul(fac[:, :, None], aug[:, col : col + 1, :]))
    return aug[:, :, q]


class _RowGroups:
    """The distinct rows of a points matrix, the inverse index mapping every
    system to its row (in the narrowest unsigned dtype that holds it), and
    the completion maps built so far per erasure pattern."""

    def __init__(self, field: Field, points: np.ndarray):
        nsys, npts = points.shape
        q = field.order
        if points.size and (points.min() < 0 or points.max() >= q):
            raise ValueError("points must be field elements")
        self.field = field
        cells = q**npts
        if cells <= np.iinfo(np.int64).max:
            # one mixed-radix integer per row, in the narrowest dtype that
            # holds it: a 1-D sort instead of a lexicographic one over the rows
            key = points[:, 0].astype(np.min_scalar_type(cells - 1))
            for col in range(1, npts):
                key *= q
                key += points[:, col].astype(key.dtype)
            if cells <= nsys:
                # no more keys than systems: a presence table, not a sort
                present = np.zeros(cells, dtype=bool)
                present[key] = True
                keys = np.flatnonzero(present)
                rank = np.empty(cells, dtype=np.min_scalar_type(max(len(keys) - 1, 0)))
                rank[keys] = np.arange(len(keys))
                inverse = rank[key]
            else:
                keys, inverse = np.unique(key, return_inverse=True)
            self.rows = np.empty((len(keys), npts), dtype=np.int64)
            for col in reversed(range(npts)):
                keys, self.rows[:, col] = np.divmod(keys, q)
        else:
            self.rows, inverse = np.unique(points, axis=0, return_inverse=True)
        narrow = np.min_scalar_type(max(len(self.rows) - 1, 0))
        self.inverse = inverse.reshape(nsys).astype(narrow, copy=False)
        # (parity, known positions) -> [map, its product tables once built]
        self.maps: dict[tuple[int, tuple[int, ...]], list] = {}

    def map_for(self, parity: int, known_pos: np.ndarray, unknown_pos: np.ndarray) -> list:
        """[maps, tables]: maps[u] with unknowns = maps[u] @ knowns on
        distinct row u, shape (rows, parity, len(known_pos)), and its product
        tables by group size once a path has built them."""
        key = (parity, tuple(known_pos.tolist()))
        if key not in self.maps:
            field, rows = self.field, self.rows
            nrows, nknown = len(rows), len(known_pos)
            pw = np.empty((nrows, parity, rows.shape[1]), dtype=np.int64)
            pw[:, 0] = 1
            for t in range(1, parity):
                pw[:, t] = field.mul(pw[:, t - 1], rows)
            # one system per (row, known coordinate): V_unknown x = -V_known[:, j]
            mats = np.broadcast_to(pw[:, None][..., unknown_pos], (nrows, nknown, parity, parity))
            rhs = field.neg(pw[:, :, known_pos]).transpose(0, 2, 1)
            sol = solve_batched(field, mats.reshape(-1, parity, parity), rhs.reshape(-1, parity))
            self.maps.setdefault(key, [sol.reshape(nrows, nknown, parity).transpose(0, 2, 1), {}])
        return self.maps[key]

    def _tables(self, entry: list, group: int) -> list:
        """The map's packed tables for its known coordinates taken ``group``
        at a time, in one allocation: one per group of t consecutive j_1..j_t
        (the last may be shorter), shape (rows, order^t, lanes), where
        tables[g][u, Σ v_m·order^(m-1), i] = Σ_m maps[u, i, j_m]·v_m."""
        tables = entry[1].get(group)
        if tables is None:  # threads that race build equal tables; either serves
            (nrows, parity, nknown), field, order = entry[0].shape, self.field, self.field.order
            lanes = 1 << (parity - 1).bit_length()
            consts = np.zeros((nknown, nrows, lanes), field.symbol_dtype)
            consts[..., :parity] = entry[0].transpose(2, 0, 1)
            terms = tables = list(field.scale_table(consts))
            if group > 1:  # digit m extends a joint table order^m entries at a time
                spans = [range(lo, min(lo + group, nknown)) for lo in range(0, nknown, group)]
                ends = np.cumsum([order ** len(js) * nrows * lanes for js in spans])
                packed = np.split(np.empty(ends[-1], consts.dtype), ends[:-1])  # one allocation
                tables = [flat.reshape(nrows, -1, lanes) for flat in packed]
                for joint, js in zip(tables, spans):
                    joint[:, :order] = terms[js[0]]
                    for m, j in enumerate(js[1:], 1):
                        sums = field.add(joint[:, None, : order**m], terms[j][:, 1:, None])
                        joint[:, order**m : order ** (m + 1)] = sums.reshape(nrows, -1, lanes)
            entry[1][group] = tables
        return tables

    def complete(self, parity: int, known_pos: Sequence[int], known_vals: np.ndarray) -> np.ndarray:
        """recover_batched on the grouped points matrix."""
        nsys, npts = len(self.inverse), self.rows.shape[1]
        known_pos = np.asarray(known_pos, dtype=np.int64)
        nknown = npts - parity
        if len(known_pos) != nknown:
            raise ValueError(f"expected {nknown} known coordinates, got {len(known_pos)}")
        if nknown < 1:
            raise ValueError("at least one coordinate must be known")
        unknown_pos = np.setdiff1d(np.arange(npts), known_pos)
        if len(unknown_pos) != parity:
            raise ValueError("known positions out of range or repeated")
        known_vals = self.field.as_symbols(known_vals)
        if known_vals.ndim not in (2, 3) or known_vals.shape[:2] != (nsys, nknown):
            raise ValueError(f"known_vals must have shape ({nsys}, {nknown}[, stripes])")
        vals = known_vals if known_vals.ndim == 3 else known_vals[:, :, None]
        stripes = vals.shape[2]
        # unknown-major, then stripe-major: each coordinate's (stripes,
        # systems) block is contiguous, the layout of a shard's payload
        out = np.empty((parity, stripes, nsys), dtype=vals.dtype)
        if parity:
            entry = self.map_for(parity, known_pos, unknown_pos)
            cells = len(self.rows) * self.field.order  # entries of W lanes in one term's tables
            if cells <= nsys * stripes:
                # joint tables only where a term's own outnumber the stripes (on
                # a file chunk their build, once a command, costs more than
                # they save), and no more entries than the systems x stripes
                group = 1
                while cells > stripes and group < nknown and cells * self.field.order**group <= nsys * stripes:
                    group += 1
                self._apply_by_gather(entry, vals, out, group)
            else:
                self._apply_by_multiply(entry[0], vals, out)
        out = out.transpose(2, 0, 1)
        return out if known_vals.ndim == 3 else out[:, :, 0]

    def _apply_by_gather(self, entry: list, vals: np.ndarray, out: np.ndarray, group: int) -> None:
        field, sym, (nknown, stripes) = self.field, self.field.symbol_dtype, vals.shape[1:]
        tables = self._tables(entry, group)
        size = tables[0].shape[2] * sym.itemsize
        # an entry is one word up to 8 bytes (one gather reads every unknown),
        # else a row of 8-byte words
        words = [t.view(f"u{min(size, 8)}").reshape((-1, size // 8) if size > 8 else -1) for t in tables]
        # blocks whose indices stay in cache, but no narrower than a term's tables
        span = max(1 << 15, len(self.rows) * field.order)
        step, width = max(1, span // stripes), min(stripes, span)
        for lo in range(0, len(vals), step):
            # row u's joint tables start at u·order^t; a native index gathers fastest
            base = self.inverse[lo : lo + step, None].astype(np.intp) * field.order
            for s in range(0, stripes, width):
                block, acc = vals[lo : lo + step, :, s : s + width], None
                for g, table in enumerate(words):
                    digits = range(g * group, min((g + 1) * group, nknown))
                    index = base + block[:, digits[-1]]
                    for j in reversed(digits[:-1]):  # Horner down to the group's first digit
                        index *= field.order
                        index += block[:, j]
                    term = np.take(table, index, axis=0)
                    if acc is None:
                        acc = term
                    elif field.spec.kind == "binary":
                        acc ^= term  # every lane at once
                    else:
                        acc = field.add(acc.view(sym), term.view(sym)).view(term.dtype)
                acc = acc.view(sym).reshape(*index.shape, -1)
                out[:, s : s + width, lo : lo + step] = acc[:, :, : len(out)].transpose(2, 1, 0)

    def _apply_by_multiply(self, maps: np.ndarray, vals: np.ndarray, out: np.ndarray) -> None:
        field, inverse = self.field, self.inverse.astype(np.intp)
        for i in range(maps.shape[1]):
            acc = None
            for j in range(maps.shape[2]):
                term = field.mul(maps[:, i, j][inverse][:, None], vals[:, j])
                acc = term if acc is None else field.add(acc, term)
            out[i] = acc.T


def recover_batched(
    field: Field,
    points: np.ndarray,
    parity: int,
    known_pos: Sequence[int],
    known_vals: np.ndarray,
) -> np.ndarray:
    """Complete B dual-Vandermonde codewords at their unknown coordinates.

    points: (B, N) per-system evaluation points (distinct within each row);
    known_pos: the N-parity coordinate indices shared by all systems;
    known_vals: (B, N-parity) symbols at those coordinates, or (B, N-parity, S)
    for S stripes that share each system's points.  Returns (B, parity), or
    (B, parity, S), symbols for the remaining coordinates in ascending
    position order, in the field's symbol dtype.  Raises ValueError for a
    known symbol outside the field.
    """
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2:
        raise ValueError("points must be a (systems, coordinates) matrix")
    return _RowGroups(field, points).complete(parity, known_pos, known_vals)
