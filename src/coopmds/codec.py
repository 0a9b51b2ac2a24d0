"""Systematic encoding, erasure decoding from any k columns, and parity
verification.

Every parity constraint couples only the n symbols of one row: row a of a
codeword is a dual-Vandermonde codeword on the points coeff_matrix()[a] with
r parity equations.  Encoding and decoding are therefore one batched
completion call each, through the grouping of coeff_matrix() rows that the
spec keeps: the completion map is built once per distinct row and erasure
pattern, then applied to every row that shares it.  Verification re-encodes:
a row is a codeword exactly when its parity columns equal the completion of
its data columns through the same cached map.
Only rows that differ go through the powered parity sweep, which names the
first failing check.

The striped kernels ``encode_parity``, ``decode_cells`` and ``parity_witness``
take integer columns of l rows with an optional trailing stripe axis (the
CLI's chunks of stripes).  Symbols are range-checked as they enter, and every
result, like ``CodewordArray`` cells, is in the field's ``symbol_dtype``:
uint8 up to order 256, uint16 above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from coopmds.codespec import CodeSpec
from coopmds.grs import _RowGroups


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a parity sweep.

    When ok is False, (t, row) locate the first failing check in (t, row)
    lexicographic order.
    """

    ok: bool
    t: int | None = None
    row: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class CodewordArray:
    """An l x n array of field symbols, one column per storage node.

    Node i lives in column i-1; rows follow the spec's row-label order.
    Cells are range-checked, copied into the field's symbol dtype and frozen
    on construction.
    """

    def __init__(self, spec: CodeSpec, cells: np.ndarray):
        cells = np.array(spec.field.as_symbols(cells))
        expect = (spec.params.l, spec.params.n)
        if cells.shape != expect:
            raise ValueError(f"cells must have shape {expect}, got {cells.shape}")
        cells.setflags(write=False)
        self.spec = spec
        self.cells = cells

    @classmethod
    def _of(cls, spec: CodeSpec, cells: np.ndarray) -> "CodewordArray":
        """Freeze and wrap cells this module has just built, no copy."""
        out = object.__new__(cls)
        out.spec, out.cells = spec, cells
        cells.setflags(write=False)
        return out

    def column(self, node: int) -> np.ndarray:
        if not 1 <= node <= self.spec.params.n:
            raise ValueError(f"node {node} out of range")
        return self.cells[:, node - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CodewordArray)
            and self.spec == other.spec
            and np.array_equal(self.cells, other.cells)
        )

    def __repr__(self) -> str:
        return f"CodewordArray({self.spec!r})"


def _coeff_groups(spec: CodeSpec) -> _RowGroups:
    """coeff_matrix()'s row grouping and completion maps, kept by the spec."""
    return spec._derived("coeff_groups", lambda: _RowGroups(spec.field, spec.coeff_matrix()))


def encode_parity(spec: CodeSpec, data: np.ndarray) -> np.ndarray:
    """The parity columns k+1..n, shape (l, r[, stripes]), of the data
    columns 1..k, shape (l, k[, stripes]), solved row by row."""
    p = spec.params
    return _coeff_groups(spec).complete(p.r, np.arange(p.k), data)


def decode_cells(spec: CodeSpec, nodes: Sequence[int], known: np.ndarray) -> np.ndarray:
    """Cells (l, n[, stripes]) rebuilt from known (l, k[, stripes]): the
    columns of the k distinct nodes listed in ``nodes``, in that order."""
    p = spec.params
    known_pos = np.asarray(nodes, dtype=np.int64) - 1
    rest = _coeff_groups(spec).complete(p.r, known_pos, known)
    if rest.ndim == 3:
        # node-major like rest, so each column is one (stripes, l) block
        cells = np.empty((p.n, rest.shape[2], p.l), dtype=rest.dtype).transpose(2, 0, 1)
    else:
        cells = np.empty((p.l, p.n), dtype=rest.dtype)
    cells[:, known_pos] = known
    cells[:, np.setdiff1d(np.arange(p.n), known_pos)] = rest
    return cells


def encode_systematic(spec: CodeSpec, data: np.ndarray) -> CodewordArray:
    """Place data in columns 1..k and solve columns k+1..n row by row."""
    p = spec.params
    if np.shape(data) != (p.l, p.k):
        raise ValueError(f"data must have shape {(p.l, p.k)}, got {np.shape(data)}")
    data = spec.field.as_symbols(data)  # narrowed once: the concatenation reads symbols
    return CodewordArray._of(spec, np.concatenate([data, encode_parity(spec, data)], axis=1))


def decode_from_columns(spec: CodeSpec, available: Mapping[int, np.ndarray]) -> CodewordArray:
    """Rebuild the full array from the first k available columns in ascending
    node order; any further columns are ignored (see verify_parity for
    consistency checking)."""
    p = spec.params
    nodes = sorted(available)
    if len(nodes) < p.k:
        raise ValueError(f"need at least k={p.k} columns, got {len(nodes)}")
    if nodes[0] < 1 or nodes[-1] > p.n:
        raise ValueError("column keys must be node indices in [1, n]")
    use = nodes[: p.k]
    for node in use:
        if np.shape(available[node]) != (p.l,):
            raise ValueError(f"column {node} must be a length-{p.l} vector")
    known = np.stack([available[node] for node in use], axis=1)
    return CodewordArray._of(spec, decode_cells(spec, use, known))


def parity_witness(spec: CodeSpec, cells: np.ndarray) -> "tuple[int, int] | None":
    """The first failing parity check (t, row) in (t, row) lexicographic
    order over cells of shape (l, n) or (l, n, stripes), or None when every
    row is a codeword.

    The parity columns are recomputed from the data columns with the cached
    encode map and compared.  A row whose stored parity equals its completion
    satisfies all r checks, so only the differing rows are swept with the
    powered checks sum_j coeff[row, j]^t c_j to find the witness.
    """
    p = spec.params
    field = spec.field
    coeff = spec.coeff_matrix()
    cells = np.asarray(cells).reshape(p.l, p.n, -1)
    parity = encode_parity(spec, cells[:, : p.k])
    # column by column in the completion's layout: mixed layouts compare 3x slower
    differs = np.empty_like(parity, dtype=bool)
    for j in range(p.r):
        np.not_equal(parity[:, j], cells[:, p.k + j], out=differs[:, j])
    if not differs.any():
        return None
    bad = np.flatnonzero(differs.any(axis=(1, 2)))
    # a stripe whose parity matches in every row passes every check
    sub, points = cells[bad][:, :, differs.any(axis=(0, 1))], coeff[bad]
    pw = np.ones_like(points)
    for t in range(p.r):
        checks = field.sum(field.mul(pw[:, :, None], sub), axis=1)
        failing = np.flatnonzero(checks.any(axis=1))
        if failing.size:
            return t, int(bad[failing[0]])
        pw = field.mul(pw, points)
    raise AssertionError("a row differs from its completion but passes every check")


def verify_parity(codeword: CodewordArray) -> VerifyResult:
    """Check every row of the array against all r parity equations; report
    the first failing (t, row), as parity_witness does."""
    witness = parity_witness(codeword.spec, codeword.cells)
    return VerifyResult(True) if witness is None else VerifyResult(False, *witness)
