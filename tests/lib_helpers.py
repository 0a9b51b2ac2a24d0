"""Small forms of library operations that only the tests use: field
division and powers, a record of the completion path taken, shard sets
rewritten and signed afresh, one Vandermonde system or erasure pattern at a
time, one node and row of a code, row labels as digit vectors, and the index
sets the repair argument is stated in.  Unlike oracles.py, these call
library code.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from coopmds.cli import ShardHeader
from coopmds.codespec import CodeSpec, build_A, card_A
from coopmds.field import Field
from coopmds.grs import _RowGroups, recover_batched, solve_batched


def spy_completion_paths(monkeypatch) -> list:
    """Make every _RowGroups completion record (path, distinct rows, systems,
    stripes, group) in the returned list, path being gather or multiply, and
    group the known coordinates one table read serves: the joint tables'
    group size on the gather path, None on the multiply path, which reads no
    tables."""
    taken = []
    for path in ("gather", "multiply"):
        method = getattr(_RowGroups, f"_apply_by_{path}")

        def spy(self, entry, vals, out, *group, path=path, method=method):
            size = group[0] if group else None
            taken.append((path, len(self.rows), len(self.inverse), vals.shape[2], size))
            return method(self, entry, vals, out, *group)

        monkeypatch.setattr(_RowGroups, f"_apply_by_{path}", spy)
    return taken


def rewrite_shards(shard_dir: Path, edit: Callable[[dict], None]) -> None:
    """Rewrite every shard in shard_dir after edit(shards) has changed them,
    signed as if one encode had written them.  shards maps each file name to
    a [header, payload] list, the payload a bytearray; edit may change the
    payload in place or replace either item.  Every header then carries the
    first shard's CRC list with each payload's CRC put under the node its
    header claimed before the edit, and a fresh header CRC."""
    shards, nodes = {}, {}
    for path in sorted(shard_dir.glob("shard_*.cmds")):
        raw = path.read_bytes()
        header, off = ShardHeader.parse(raw)
        shards[path.name], nodes[path.name] = [header, bytearray(raw[off:])], header.node
    edit(shards)
    crcs = list(next(iter(shards.values()))[0].crcs)
    for name, (_, payload) in shards.items():
        crcs[nodes[name] - 1] = zlib.crc32(payload)
    for name, (header, payload) in shards.items():
        signed = dataclasses.replace(header, crcs=tuple(crcs))
        (shard_dir / name).write_bytes(signed.to_bytes() + bytes(payload))


def field_div(field: Field, a, b):
    return field.mul(a, field.inv(b))


def field_pow(field: Field, a, t: int):
    """a^t by square-and-multiply; t is a non-negative plain integer, and
    0^0 = 1 so the t=0 parity row is all ones even when a coefficient is 0."""
    if t < 0:
        raise ValueError("negative exponent")
    result = np.ones_like(a) if isinstance(a, np.ndarray) else 1
    base = a
    while t:
        if t & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        t >>= 1
    return result


@dataclass(frozen=True)
class MultiIndex:
    """A row label: h·m digits forming m blocks of h, block 1 stored first
    (least significant)."""

    digits: tuple[int, ...]

    def blocks(self, h: int) -> tuple[tuple[int, ...], ...]:
        if len(self.digits) % h:
            raise ValueError("digit count not divisible by block size")
        return tuple(self.digits[j : j + h] for j in range(0, len(self.digits), h))


def multiindex(spec: CodeSpec, row: int) -> MultiIndex:
    if not 0 <= row < spec.params.l:
        raise ValueError(f"row {row} out of range")
    digits: list[int] = []
    rest = row
    if spec.family == "concatenated":
        for c in spec.components:
            rest, sub = divmod(rest, c.params.l)
            digits.extend(multiindex(c, sub).digits)
    else:
        for _ in range(spec.params.m):
            rest, pos = divmod(rest, card_A(spec.params.h, spec.params.s))
            digits.extend(int(x) for x in spec.A[pos])
    return MultiIndex(tuple(digits))


def row_of(spec: CodeSpec, mi: MultiIndex) -> int:
    if spec.family == "concatenated":
        row, scale = 0, 1
        offset = 0
        for c in spec.components:
            nd = c.params.h * c.params.m
            sub = row_of(c, MultiIndex(mi.digits[offset : offset + nd]))
            row += sub * scale
            scale *= c.params.l
            offset += nd
        if offset != len(mi.digits):
            raise ValueError("digit count mismatch")
        return row
    blocks = mi.blocks(spec.params.h)
    if len(blocks) != spec.params.m:
        raise ValueError("block count mismatch")
    row, scale = 0, 1
    for b in blocks:
        row += spec.apos_of(b) * scale
        scale *= card_A(spec.params.h, spec.params.s)
    return row


def lambdas_flat(spec: CodeSpec) -> list[int]:
    """All stored coefficients in assignment order."""
    p = spec.params
    if spec.family == "fixed_subset":
        masked = [int(spec.lam[i, j]) for i in range(p.h) for j in range(p.s)]
        return masked + [int(spec.lam[i, 0]) for i in range(p.h, p.n)]
    return [int(v) for v in spec.lam.ravel()]


def _check_distinct(points: Sequence[int]) -> None:
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")


def vandermonde_matrix(field: Field, points: Sequence[int], rows: int) -> np.ndarray:
    """Matrix V with V[t, j] = points[j]^t for t = 0..rows-1 (0^0 = 1)."""
    pts = np.asarray(points, dtype=np.int64)
    out = np.empty((rows, len(points)), dtype=np.int64)
    if rows == 0:
        return out
    row = np.ones(len(points), dtype=np.int64)
    for t in range(rows):
        out[t] = row
        row = field.mul(row, pts)
    return out


def solve_vandermonde(field: Field, points: Sequence[int], rhs: Sequence[int]) -> list[int]:
    """Solve sum_j points[j]^t y_j = rhs[t] for t = 0..q-1."""
    _check_distinct(points)
    if len(rhs) != len(points):
        raise ValueError("rhs length must match point count")
    q = len(points)
    if q == 0:
        return []
    mat = vandermonde_matrix(field, points, q)
    y = solve_batched(field, mat[None, :, :], np.asarray(rhs, dtype=np.int64)[None, :])
    return [int(v) for v in y[0]]


def grs_erasure_recover(
    field: Field, points: Sequence[int], parity: int, known: Mapping[int, int]
) -> list[int]:
    """Recover the full length-N codeword from N-parity known coordinates.

    ``known`` maps coordinate index (0-based) to symbol; the caller guarantees
    the knowns are consistent with some codeword (no cross-checking here, the
    codec has a separate verifier).
    """
    _check_distinct(points)
    npts = len(points)
    if not (0 <= parity <= npts):
        raise ValueError("parity out of range")
    for pos in known:
        if not 0 <= pos < npts:
            raise ValueError(f"known position {pos} out of range")
    known_pos = sorted(known)
    vals = recover_batched(
        field,
        np.asarray(points, dtype=np.int64)[None, :],
        parity,
        known_pos,
        np.asarray([known[p] for p in known_pos], dtype=np.int64)[None, :],
    )[0]
    out = [0] * npts
    for p in known_pos:
        out[p] = int(known[p])
    unknown_pos = [p for p in range(npts) if p not in known]
    for p, v in zip(unknown_pos, vals):
        out[p] = int(v)
    return out


def build_Bi(h: int, s: int, i: int) -> np.ndarray:
    """B_i: digit i ranges over [0, s-1], all other digits over [0, s-2]."""
    if not 1 <= i <= h:
        raise ValueError(f"i must be in [1, {h}]")
    a = build_A(h, s)
    others = [j for j in range(h) if j != i - 1]
    keep = np.ones(len(a), dtype=bool)
    for j in others:
        keep &= a[:, j] < s - 1
    return a[keep]


def build_A0(h: int, s: int) -> np.ndarray:
    """A_0 = [0, s-2]^h, the intersection of all B_i."""
    a = build_A(h, s)
    return a[(a < s - 1).all(axis=1)]


def subset_unrank(rank: int, h: int) -> tuple[int, ...]:
    """Inverse of subset_rank for subsets of size h."""
    if rank < 1 or h < 1:
        raise ValueError("rank and h must be positive")
    remaining = rank - 1
    out = []
    for j in range(h, 0, -1):
        v = j - 1
        while comb(v + 1, j) <= remaining:
            v += 1
        out.append(v + 1)
        remaining -= comb(v, j)
    return tuple(reversed(out))


def mask_f(spec: CodeSpec, i: int, a: "MultiIndex | int") -> int:
    """Coefficient index of node i at row a (any-subset and concatenated)."""
    if spec.family == "fixed_subset":
        raise ValueError("fixed_subset nodes are masked by their own digit, not by f")
    row = row_of(spec, a) if isinstance(a, MultiIndex) else int(a)
    if not 0 <= row < spec.params.l:
        raise ValueError(f"row {row} out of range")
    if not 1 <= i <= spec.params.n:
        raise ValueError(f"node {i} out of range")
    return int(spec.mask_columns(np.array([row]))[0, i - 1])


def row_coeff(spec: CodeSpec, i: int, a: "MultiIndex | int") -> int:
    """The λ multiplying c_{i,a} in every parity row t."""
    if not 1 <= i <= spec.params.n:
        raise ValueError(f"node {i} out of range")
    row = row_of(spec, a) if isinstance(a, MultiIndex) else int(a)
    if not 0 <= row < spec.params.l:
        raise ValueError(f"row {row} out of range")
    return int(spec.coeff_matrix()[row, i - 1])


def cell_rows(geom, i: int) -> np.ndarray:
    """Absolute rows of failed node i's repair cells as an index array, shape
    (quota, s) in cell order (block, class, offset): the formula base +
    stride·node_table that the geometry's strided views stand in for."""
    span = geom.ca * geom.stride
    bases = np.arange(geom.nblk)[:, None] * span + np.arange(geom.stride)[None, :]
    rows = bases[:, None, :, None] + geom.stride * geom.node_table[i][None, :, None, :]
    return rows.reshape(geom.quota, geom.s)
