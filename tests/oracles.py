"""Independent reference implementations used to pin expected values.

Everything here is deliberately brute force and shares no code with the
library internals beyond basic field arithmetic: codeword sets are found by
filtering the full q^N cube against the parity definition, not by solving.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from coopmds.field import _REDUCTION_POLY, Field, _clmul_reduce


def all_vectors(q: int, n: int) -> np.ndarray:
    """Every length-n vector over [0, q), shape (q^n, n)."""
    idx = np.arange(q**n, dtype=np.int64)
    return np.stack([(idx // q**j) % q for j in range(n)], axis=1)


def dual_vandermonde_codewords(field: Field, points: list[int], parity: int) -> np.ndarray:
    """All y with sum_j points[j]^t y_j = 0 for t = 0..parity-1, by filtering
    the whole cube."""
    n = len(points)
    vecs = all_vectors(field.order, n)
    keep = np.ones(len(vecs), dtype=bool)
    pw = np.ones(n, dtype=np.int64)
    pts = np.asarray(points, dtype=np.int64)
    for _ in range(parity):
        checks = field.sum(field.mul(vecs, pw[None, :]), axis=1)
        keep &= checks == 0
        pw = field.mul(pw, pts)
    return vecs[keep]


def complete_by_elimination(field: Field, points, parity: int, known_pos, vals) -> np.ndarray:
    """The unknown coordinates (B, parity[, S]) of B dual-Vandermonde
    codewords as int64: per system, scalar Gauss-Jordan elimination of the
    unknowns' Vandermonde block gives the map from knowns to unknowns, which
    is then applied to every stripe with int64 field arithmetic."""
    points = np.asarray(points, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    nsys, npts = points.shape
    known_pos = list(known_pos)
    unknown = [c for c in range(npts) if c not in known_pos]
    out = np.empty((nsys, parity) + vals.shape[2:], dtype=np.int64)
    for b in range(nsys):
        pw = [[1] * npts]
        for _ in range(1, parity):
            pw.append([field.mul(v, int(x)) for v, x in zip(pw[-1], points[b])])
        # [V_unknown | -V_known], reduced until the left block is the identity
        rows = [[pw[t][c] for c in unknown] + [field.neg(pw[t][c]) for c in known_pos] for t in range(parity)]
        for col in range(parity):
            piv = next(r for r in range(col, parity) if rows[r][col])
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = field.inv(rows[col][col])
            rows[col] = [field.mul(inv, v) for v in rows[col]]
            for r in range(parity):
                if r != col and rows[r][col]:
                    fac = rows[r][col]
                    rows[r] = [field.sub(v, field.mul(fac, w)) for v, w in zip(rows[r], rows[col])]
        for i in range(parity):
            acc = np.zeros(vals.shape[2:], dtype=np.int64)
            for j in range(len(known_pos)):
                acc = field.add(acc, field.mul(rows[i][parity + j], vals[b, j]))
            out[b, i] = acc
    return out


def log_exp_tables(w: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(generator, exp, log) for GF(2^w) by stepping through the powers of
    each candidate generator in ascending order, one element at a time: exp
    has 2(q-1) entries (g^i, twice over) and log[0] is -1."""
    q, poly = 1 << w, _REDUCTION_POLY[w]
    if q == 2:
        return 1, np.array([1, 1], dtype=np.int64), np.array([-1, 0], dtype=np.int64)
    for g in range(2, q):
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            if log[v] != -1:
                break  # the period of g divides i < q-1
            exp[i] = v
            log[v] = i
            v = _clmul_reduce(v, g, poly, w)
        else:
            if v == 1:
                exp[q - 1 :] = exp[: q - 1]
                return g, exp, log
    raise ValueError(f"no generator for GF(2^{w})")


def powered_sweep_witness(spec, cells: np.ndarray) -> tuple[bool, "int | None", "int | None"]:
    """(ok, t, row) of the first nonzero parity check sum_j coeff[row, j]^t
    cells[row, j] in (t, row) order, evaluating all r checks on every row;
    cells is (l, n) or (l, n, stripes), and a row fails a check when any
    stripe does."""
    field, r = spec.field, spec.params.r
    coeff = spec.coeff_matrix()
    cells = np.asarray(cells, dtype=np.int64).reshape(spec.params.l, spec.params.n, -1)
    pw = np.ones_like(coeff)
    for t in range(r):
        checks = field.sum(field.mul(pw[:, :, None], cells), axis=1)
        bad = np.nonzero(checks)[0]
        if bad.size:
            return False, t, int(bad[0])
        pw = field.mul(pw, coeff)
    return True, None, None


def row_masks(spec, rows) -> np.ndarray:
    """The λ column per node of each given row, shape (len(rows), n), in
    int64, by the per-row rule: fixed_subset nodes 1..h take their own A-digit;
    an any_subset node sums, over the h-subsets F containing it, the block-g(F)
    digit at its position within F, mod s; a concatenation sums its
    components' masks of the component rows, mod s_max."""
    rows = np.asarray(rows, dtype=np.int64)
    p = spec.params
    if spec.family == "concatenated":
        acc = np.zeros((len(rows), p.n), dtype=np.int64)
        scale = 1
        for c in spec.components:
            acc += row_masks(c, (rows // scale) % c.params.l)
            scale *= c.params.l
        return acc % max(c.params.s for c in spec.components)
    # A: the h-digit vectors with at most one digit s-1, in lexicographic order
    a = [v for v in itertools.product(range(p.s), repeat=p.h) if v.count(p.s - 1) <= 1]
    a = np.array(a, dtype=np.int64)
    if spec.family == "fixed_subset":
        out = np.zeros((len(rows), p.n), dtype=np.int64)
        out[:, : p.h] = a[rows]
        return out
    ca = len(a)
    acc = np.zeros((len(rows), p.n), dtype=np.int64)
    for subset in itertools.combinations(range(1, p.n + 1), p.h):
        rank = sum(comb(v - 1, j + 1) for j, v in enumerate(subset)) + 1  # colexicographic
        apos = (rows // ca ** (rank - 1)) % ca
        for z, node in enumerate(subset, start=1):
            acc[:, node - 1] += a[apos, z - 1]
    return acc % p.s


# ---- published mask-rule variants, implemented from their own digit
# ---- conventions (integer row index in a per-variant base), not from the
# ---- block machinery under test.


def pair_rank(i1: int, i2: int) -> int:
    """Pair bijection (i1 < i2) -> [1, C(n,2)]."""
    return comb(i2 - 1, 2) + i1


def digits_of(a: "int | np.ndarray", base: int, count: int) -> np.ndarray:
    """Digit vectors (a_1..a_count) of a in the given base, least significant
    first; works on arrays (output shape (..., count))."""
    a = np.asarray(a, dtype=np.int64)
    # built digit-major, one contiguous write per digit, and returned as a
    # view with the digit axis last
    out = np.empty((count,) + a.shape, dtype=np.int64)
    rest = a.copy()
    for j in range(count):
        np.divmod(rest, base, out=(rest, out[j, ...]))
    return np.moveaxis(out, 0, -1)


def parity_count_mask(n: int, i: int, a: "int | np.ndarray") -> np.ndarray:
    """Two-failure mask over base-3 digits: parity of the count of digit
    value 2 at positions pairing (j, i), j < i, and of value 1 at positions
    pairing (i, j), j > i."""
    m = comb(n, 2)
    dig = digits_of(a, 3, m)
    total = np.zeros(dig.shape[:-1], dtype=np.int64)
    for j in range(1, i):
        total += dig[..., pair_rank(j, i) - 1] == 2
    for j in range(i + 1, n + 1):
        total += dig[..., pair_rank(i, j) - 1] == 1
    return total % 2


def pair_digit_mask(n: int, s: int, i: int, a: "int | np.ndarray") -> np.ndarray:
    """Two-failure mask over base-(s^2-1) digits: sum mod s of the high
    sub-digit at positions pairing (j, i), j < i, and the low sub-digit at
    positions pairing (i, j), j > i."""
    m = comb(n, 2)
    dig = digits_of(a, s * s - 1, m)
    total = np.zeros(dig.shape[:-1], dtype=np.int64)
    for j in range(1, i):
        total += dig[..., pair_rank(j, i) - 1] // s
    for j in range(i + 1, n + 1):
        total += dig[..., pair_rank(i, j) - 1] % s
    return total % s


def indicator_mask(n: int, h: int, i: int, a: "int | np.ndarray") -> np.ndarray:
    """General-h two-valued mask over base-(h+1) digits: parity of the count
    of subsets F containing i whose digit equals i's 1-based position in F."""
    m = comb(n, h)
    dig = digits_of(a, h + 1, m)
    total = np.zeros(dig.shape[:-1], dtype=np.int64)
    for subset in itertools.combinations(range(1, n + 1), h):
        if i in subset:
            rank = sum(comb(v - 1, j + 1) for j, v in enumerate(subset)) + 1
            z = sum(1 for j in subset if j <= i)
            total += dig[..., rank - 1] == z
    return total % 2
