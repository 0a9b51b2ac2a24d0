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
        self.maps: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def map_for(self, parity: int, known_pos: np.ndarray, unknown_pos: np.ndarray) -> np.ndarray:
        """maps[u] with unknowns = maps[u] @ knowns on distinct row u; shape
        (rows, parity, len(known_pos))."""
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
            self.maps.setdefault(key, sol.reshape(nrows, nknown, parity).transpose(0, 2, 1))
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
        known_vals = np.asarray(known_vals, dtype=np.int64)
        if known_vals.ndim not in (2, 3) or known_vals.shape[:2] != (nsys, nknown):
            raise ValueError(f"known_vals must have shape ({nsys}, {nknown}[, stripes])")
        vals = known_vals if known_vals.ndim == 3 else known_vals[:, :, None]
        # unknown-major, so each coordinate is written contiguously
        out = np.empty((parity, nsys, vals.shape[2]), dtype=np.int64)
        if parity:
            field = self.field
            maps = self.map_for(parity, known_pos, unknown_pos)
            # widened once: a 1-D gather with a native index is the fast one
            inverse = self.inverse.astype(np.intp)
            for i in range(parity):
                acc = None
                for j in range(nknown):
                    coef = np.ascontiguousarray(maps[:, i, j])[inverse]
                    term = field.mul(coef[:, None], vals[:, j])
                    acc = term if acc is None else field.add(acc, term)
                out[i] = acc
        out = out.transpose(1, 0, 2)
        return out if known_vals.ndim == 3 else out[:, :, 0]


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
    position order.
    """
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2:
        raise ValueError("points must be a (systems, coordinates) matrix")
    return _RowGroups(field, points).complete(parity, known_pos, known_vals)
