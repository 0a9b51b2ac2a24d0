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
and the result is in the field's ``symbol_dtype``.  The multiply-accumulate
takes one of two paths, chosen by shape alone.  When the distinct rows'
lookup rows together hold no more entries than one stripe run (rows x order
<= stripes: whole files, few rows), each map coefficient c becomes
``Field.scale_table(c)`` and every term is one table lookup, summed by XOR or
by a narrow add with conditional subtract.  Otherwise (one stripe over many
distinct rows, as in the library's universal codes, or a file of few
stripes) each term gathers its per-system coefficient and multiplies through
``Field.mul``.  The rule bounds the lookup rows kept with each map to parity
x known x stripes symbols, no more than the stripes they serve.
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
    mats = np.array(mats, dtype=np.int64)
    rhs = np.array(rhs, dtype=np.int64)
    nsys, q, q2 = mats.shape
    if q != q2 or rhs.shape != (nsys, q):
        raise ValueError("batch shape mismatch")
    if q == 0:
        return rhs
    bidx = np.arange(nsys)
    for col in range(q):
        piv_off = (mats[:, col:, col] != 0).argmax(axis=1)
        piv_row = col + piv_off
        if (mats[bidx, piv_row, col] == 0).any():
            raise ValueError("singular system in batch")
        swap = piv_row != col
        if swap.any():
            tmp = mats[bidx, piv_row].copy()
            mats[bidx, piv_row] = mats[:, col]
            mats[:, col] = tmp
            tmp = rhs[bidx, piv_row].copy()
            rhs[bidx, piv_row] = rhs[:, col]
            rhs[:, col] = tmp
        ip = field.inv(mats[:, col, col])
        mats[:, col, :] = field.mul(mats[:, col, :], ip[:, None])
        rhs[:, col] = field.mul(rhs[:, col], ip)
        fac = mats[:, :, col].copy()
        fac[:, col] = 0
        mats = field.sub(mats, field.mul(fac[:, :, None], mats[:, col : col + 1, :]))
        rhs = field.sub(rhs, field.mul(fac, rhs[:, col][:, None]))
    return rhs


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
        if q**npts <= np.iinfo(np.int64).max:
            # one mixed-radix integer per row: a 1-D sort instead of a
            # lexicographic one over the rows
            key = np.zeros(nsys, dtype=np.int64)
            for col in range(npts):
                key = key * q + points[:, col]
            keys, inverse = np.unique(key, return_inverse=True)
            self.rows = np.empty((len(keys), npts), dtype=np.int64)
            for col in reversed(range(npts)):
                keys, self.rows[:, col] = np.divmod(keys, q)
        else:
            self.rows, inverse = np.unique(points, axis=0, return_inverse=True)
        self.inverse = inverse.reshape(nsys).astype(np.min_scalar_type(max(len(self.rows) - 1, 0)))
        # (parity, known positions) -> [map, its lookup rows once built]
        self.maps: dict[tuple[int, tuple[int, ...]], list] = {}

    def lookup_pays(self, stripes: int) -> bool:
        """Whether complete() over this many stripes uses lookup rows: only
        when all distinct rows' tables fit in one stripe run."""
        return len(self.rows) * self.field.order <= stripes

    def map_for(self, parity: int, known_pos: np.ndarray, unknown_pos: np.ndarray) -> list:
        """[maps, lookup rows]: maps[u] with unknowns = maps[u] @ knowns on
        distinct row u, shape (rows, parity, len(known_pos)), and the lookup
        rows of its coefficients once the lookup path has built them."""
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
            self.maps.setdefault(key, [sol.reshape(nrows, nknown, parity).transpose(0, 2, 1), None])
        return self.maps[key]

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
            if self.lookup_pays(stripes):
                self._apply_by_lookup(entry, vals, out)
            else:
                self._apply_by_gather(entry[0], vals, out)
        out = out.transpose(2, 0, 1)
        return out if known_vals.ndim == 3 else out[:, :, 0]

    def _apply_by_gather(self, maps: np.ndarray, vals: np.ndarray, out: np.ndarray) -> None:
        field = self.field
        # widened once: a 1-D gather with a native index is the fast one
        inverse = self.inverse.astype(np.intp)
        for i in range(maps.shape[1]):
            acc = None
            for j in range(maps.shape[2]):
                coef = np.ascontiguousarray(maps[:, i, j])[inverse]
                term = field.mul(coef[:, None], vals[:, j])
                acc = term if acc is None else field.add(acc, term)
            out[i] = acc.T

    def _apply_by_lookup(self, entry: list, vals: np.ndarray, out: np.ndarray) -> None:
        field = self.field
        bytewise = field.symbol_dtype == np.uint8

        def lookup_row(c):
            row = field.scale_table(c)
            # a 256-byte string for bytes.translate; no symbol reaches the pad
            return row.tobytes().ljust(256, b"\0") if bytewise else row

        if entry[1] is None:  # threads that race build equal rows; either serves
            entry[1] = [[[lookup_row(c) for c in row] for row in m] for m in entry[0]]
        for u, tables in enumerate(entry[1]):
            sel = np.flatnonzero(self.inverse == u)
            if sel[-1] - sel[0] + 1 == len(sel):
                sel = slice(sel[0], sel[-1] + 1)  # consecutive systems: views, no copies
            x = vals[sel]
            accs = []
            for j in range(x.shape[1]):
                index = x[:, j].tobytes() if bytewise else x[:, j]
                for i, row in enumerate(tables):
                    term = _take(row[j], index, x[:, j].shape)
                    if j:
                        accs[i] = _add(field, accs[i], term)
                    else:
                        accs.append(term)
            for i, acc in enumerate(accs):
                out[i][:, sel] = acc.T


def _take(row: "bytes | np.ndarray", index: "bytes | np.ndarray", shape: tuple) -> np.ndarray:
    """row[index] for one lookup row.  Byte symbols go through bytes.translate,
    one C pass over a 256-entry table and several times faster than a numpy
    gather; wider ones are a gather."""
    if isinstance(row, bytes):
        return np.frombuffer(index.translate(row), np.uint8).reshape(shape)
    return row[index]


def _add(field: Field, acc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """acc + term for narrow symbols of the field, as a new array."""
    if field.spec.kind == "binary":
        return acc ^ term
    p = field.order
    total = acc + term
    # take p off where the sum reached p, or wrapped past the dtype's top
    # (then total < term, and total - p wraps back into the field)
    np.subtract(total, p, out=total, where=(total >= p) | (total < term))
    return total


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
