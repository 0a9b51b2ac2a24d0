"""Code family descriptors: index sets, subset ranking, masks, λ tables.

Two array-code families are built here, plus their concatenations:

* ``fixed_subset``: sub-packetization l = (h+s-1)(s-1)^(h-1) with s = d+1-k.
  Rows are labeled by h-digit vectors over [0, s-1] having at most one digit
  equal to s-1 (the set A).  Nodes 1..h carry s coefficients each
  (λ_{i,a_i} selected by the node's own digit); nodes h+1..n carry one fixed
  coefficient.  Such a code repairs exactly the node set {1..h}, from any d
  helpers, at cut-set-optimal bandwidth.

* ``any_subset``: rows carry one A-block per h-subset of [n] (m = C(n,h)
  blocks, l = |A|^m).  Every node is masked: its coefficient index is the sum
  mod s of one designated digit from each block whose subset contains the
  node.  Restricted to the rows where block g(F) varies and everything else
  is fixed, the parity checks collapse to a fixed_subset code for F, which is
  what makes every h-subset repairable.

* ``concatenated``: the row index is a tuple of component row indices
  (component 1 least significant); the coefficient index is the sum of the
  component masks mod s_max over one shared per-node table of s_max distinct
  coefficients.  Fixing all components but one leaves an injective relabeling
  of that component's coefficients, so each component's repair scheme applies
  unchanged.  The universal code is the concatenation over every admissible
  (h, d).

So every mask is a sum of per-digit terms, and the (l, n) mask table is an
outer sum of small tables, most significant digit outermost: one (|A|, n)
table per block (block g(F) holds each member's digit at its position in F),
and for a concatenation one table per component, itself an outer sum.  No
row is decoded digit by digit.  Masks stay in the narrowest unsigned dtype
that holds 2·(s_max-1), folded back below s after each sum; ``lam`` and
``coeff_matrix()`` are in the field's ``symbol_dtype``.

Node indices are 1-based throughout this module, matching the subset-ranking
arithmetic; array columns are the same nodes 0-based.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Sequence

import numpy as np

from coopmds.field import Field, FieldSpec, make_field, smallest_field_spec

DEFAULT_SUBPACKET_CAP = 2**24


class InadmissibleError(ValueError):
    """Parameters outside the constructible/repairable range."""


def card_A(h: int, s: int) -> int:
    return (h + s - 1) * (s - 1) ** (h - 1)


def build_A(h: int, s: int) -> np.ndarray:
    """All h-digit vectors over [0, s-1] with at most one digit equal to s-1,
    in lexicographic order; shape (|A|, h)."""
    if h < 1 or s < 2:
        raise ValueError("need h >= 1 and s >= 2")
    rows = [a for a in itertools.product(range(s), repeat=h) if a.count(s - 1) <= 1]
    out = np.array(rows, dtype=np.int64).reshape(len(rows), h)
    assert len(out) == card_A(h, s)
    return out


def subset_rank(subset: Sequence[int]) -> int:
    """Rank of a strictly increasing positive subset in the colexicographic
    order of all same-size subsets; {1,..,h} -> 1."""
    f = list(subset)
    h = len(f)
    if h == 0 or any(f[i] >= f[i + 1] for i in range(h - 1)) or f[0] < 1:
        raise ValueError(f"subset must be strictly increasing and positive: {subset}")
    return sum(comb(f[j] - 1, j + 1) for j in range(h)) + 1


@dataclass(frozen=True)
class CodeParams:
    """Dimensions of one code: h, d, s, m are None for concatenations."""

    n: int
    k: int
    r: int
    h: int | None
    d: int | None
    s: int | None
    l: int
    m: int | None


class CodeSpec:
    """Immutable descriptor of one code: family, parameters, field, λ table.

    ``lam`` holds one row per node; masked nodes use columns 0..width-1,
    unmasked nodes (fixed_subset, i > h) only column 0.
    """

    def __init__(
        self,
        family: str,
        params: CodeParams,
        fieldspec: FieldSpec,
        lam: np.ndarray,
        components: tuple["CodeSpec", ...] = (),
    ):
        self.family = family
        self.params = params
        self.fieldspec = fieldspec
        self.field = make_field(fieldspec)
        self.lam = lam
        self.lam.setflags(write=False)
        self.components = components
        self._cache: dict = {}

    # ---- identity ---------------------------------------------------------

    def descriptor(self) -> dict:
        out = {
            "family": self.family,
            "n": self.params.n,
            "k": self.params.k,
            "field": {"kind": self.fieldspec.kind, "modulus": self.fieldspec.modulus},
        }
        if self.family == "concatenated":
            out["components"] = [[c.params.h, c.params.d] for c in self.components]
        else:
            out["h"] = self.params.h
            out["d"] = self.params.d
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeSpec) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(repr(self.descriptor()))

    def __repr__(self) -> str:
        p = self.params
        if self.family == "concatenated":
            pairs = ",".join(f"({c.params.h},{c.params.d})" for c in self.components)
            return f"CodeSpec(concatenated n={p.n} k={p.k} l={p.l} components=[{pairs}])"
        return f"CodeSpec({self.family} n={p.n} k={p.k} h={p.h} d={p.d} l={p.l})"

    def _derived(self, key, build):
        """build(), computed once per key: every table derived from this code
        lives here.  Of threads that race, setdefault keeps the first value."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache.setdefault(key, build())
        return value

    # ---- row labels ---------------------------------------------------------

    @property
    def A(self) -> np.ndarray:
        return self._derived("A", lambda: build_A(self.params.h, self.params.s))

    @property
    def apos(self) -> np.ndarray:
        """Lookup: mixed-radix key of block digits -> position in A (or -1)."""
        return self._derived("apos", self._build_apos)

    def _build_apos(self) -> np.ndarray:
        h, s = self.params.h, self.params.s
        table = np.full(s**h, -1, dtype=np.int64)
        table[self.A @ s ** np.arange(h, dtype=np.int64)] = np.arange(len(self.A))
        return table

    def apos_of(self, block: Sequence[int]) -> int:
        s = self.params.s
        key = sum(int(b) * s**j for j, b in enumerate(block))
        pos = int(self.apos[key])
        if pos < 0:
            raise ValueError(f"block {tuple(block)} not in A")
        return pos

    # ---- coefficients -------------------------------------------------------

    def _mask_tables(self) -> tuple[int, tuple[np.ndarray, ...]]:
        """(modulus, tables), least significant digit first: the row with
        digits a_j (radix len(tables[j])) has mask sum_j tables[j][a_j] mod
        modulus.  Cached; every table is (radix, n) in the narrowest unsigned
        dtype that holds 2·(modulus-1)."""
        return self._derived("mask_tables", self._build_mask_tables)

    def _build_mask_tables(self) -> tuple[int, tuple[np.ndarray, ...]]:
        p = self.params
        modulus = self.lam.shape[1]  # s, or s_max for a concatenation
        dtype = np.min_scalar_type(2 * (modulus - 1))
        if self.family == "concatenated":
            # a component's mask is the sum of its own digits mod its own s
            tables = (_outer_sum(*c._mask_tables(), p.n, dtype) for c in self.components)
            return modulus, tuple(tables)
        # one table per h-subset F of the masked nodes (fixed_subset: nodes
        # 1..h only) in rank order, holding the F-block's digit at each
        # member's position within F
        masked = p.h if self.family == "fixed_subset" else p.n
        tables = [None] * p.m
        for subset in itertools.combinations(range(masked), p.h):
            table = np.zeros((len(self.A), p.n), dtype)
            table[:, subset] = self.A
            tables[subset_rank([v + 1 for v in subset]) - 1] = table
        return modulus, tuple(tables)

    def mask_columns(self, rows: np.ndarray) -> np.ndarray:
        """Coefficient index (the λ column) per node for the given row
        numbers, read from the per-block tables at the rows' digits; shape
        (len(rows), n)."""
        rest = np.asarray(rows, dtype=np.int64)
        modulus, tables = self._mask_tables()
        out = np.zeros((len(rest), self.params.n), tables[0].dtype)
        for table in tables:
            rest, digit = np.divmod(rest, len(table))
            out += table[digit]
            np.minimum(out, out - modulus, out=out)
        return out

    def coeff_matrix(self) -> np.ndarray:
        """The l×n table of λ values multiplying c_{i,row} in every parity
        row, in the field's symbol dtype; cached, read-only."""
        return self._derived("coeff", self._build_coeff)

    def _build_coeff(self) -> np.ndarray:
        p = self.params
        modulus, (low, *rest) = self._mask_tables()
        high = _outer_sum(modulus, rest, p.n, low.dtype)  # masks of the other digits
        out = np.empty((len(high), len(low), p.n), self.field.symbol_dtype)
        sums = np.arange(modulus, dtype=low.dtype)[:, None]
        lam = self.field.as_symbols(self.lam)
        for i in range(p.n):
            # node i's λ for every (high mask, low digit), read at the high masks
            per_high = sums + low[:, i]
            out[:, :, i] = lam[i][np.minimum(per_high, per_high - modulus)][high[:, i]]
        out = out.reshape(p.l, p.n)
        out.setflags(write=False)
        return out

    # ---- repair support -----------------------------------------------------

    def admissible_pairs(self) -> list[tuple[int, int]]:
        if self.family == "concatenated":
            return sorted({(c.params.h, c.params.d) for c in self.components})
        return [(self.params.h, self.params.d)]

    def component_for(self, h: int, d: int) -> tuple["CodeSpec", int]:
        """The component handling (h, d) repairs plus its row-index stride
        base (the product of the earlier components' sub-packetizations)."""
        if self.family == "concatenated":
            scale = 1
            for c in self.components:
                if (c.params.h, c.params.d) == (h, d):
                    return c, scale
                scale *= c.params.l
            raise InadmissibleError(f"no component supports (h={h}, d={d})")
        if (self.params.h, self.params.d) != (h, d):
            raise InadmissibleError(
                f"code is built for (h={self.params.h}, d={self.params.d}), not (h={h}, d={d})"
            )
        return self, 1

    # ---- serialization ------------------------------------------------------

    @classmethod
    def from_descriptor(cls, desc: dict) -> "CodeSpec":
        if not isinstance(desc, dict) or not isinstance(desc.get("field"), dict):
            raise ValueError("a code descriptor is an object with a field object")
        fieldspec = FieldSpec(desc["field"]["kind"], desc["field"]["modulus"])
        if desc["family"] == "concatenated":
            n, k, pairs = desc["n"], desc["k"], desc["components"]
            if not isinstance(pairs, list) or any(
                not isinstance(pair, list) or len(pair) != 2 for pair in pairs
            ):
                raise ValueError("concatenation components are a list of [h, d] pairs")
            return concat([make_code("any_subset", n, k, h, d, fieldspec) for h, d in pairs])
        return make_code(desc["family"], desc["n"], desc["k"], desc["h"], desc["d"], fieldspec)


def _outer_sum(modulus: int, tables: Sequence[np.ndarray], n: int, dtype) -> np.ndarray:
    """The (product of radices, n) masks of digit tables given least
    significant first: their outer sum mod modulus, most significant digit
    outermost, in dtype."""
    out = np.zeros((1, n), dtype)
    for table in reversed(tables):
        out = (out[:, None] + table).reshape(-1, n)
        np.minimum(out, out - modulus, out=out)
    return out


def min_field_order(family: str, n: int, h: int, s: int) -> int:
    if family == "fixed_subset":
        return n + h * (s - 1)
    return s * n


def _check_admissible(n: int, k: int, h: int, d: int) -> None:
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (n, k, h, d)):
        raise ValueError(f"n, k, h and d must be integers, got {n!r}, {k!r}, {h!r}, {d!r}")
    if n < 2 or not 1 <= k < n:
        raise InadmissibleError(f"need 1 <= k < n, got n={n} k={k}")
    if h < 1:
        raise InadmissibleError(f"need h >= 1, got h={h}")
    if d < k + 1:
        raise InadmissibleError(f"need d >= k+1 helpers, got d={d} k={k}")
    if h + d > n:
        raise InadmissibleError(f"need h + d <= n, got h={h} d={d} n={n}")


def make_code(
    family: str,
    n: int,
    k: int,
    h: int,
    d: int,
    field: "FieldSpec | Field",
) -> CodeSpec:
    """Construct a fixed_subset or any_subset CodeSpec.

    The λ table is filled from the canonical field enumeration, masked
    entries first in row-major (node, index) order, then the unmasked ones.
    """
    if family not in ("fixed_subset", "any_subset"):
        raise ValueError(f"unknown family {family!r}")
    _check_admissible(n, k, h, d)
    fieldspec = field.spec if isinstance(field, Field) else field
    fobj = make_field(fieldspec)
    s = d + 1 - k
    ca = card_A(h, s)
    if family == "fixed_subset":
        m, l = 1, ca
    else:
        m = comb(n, h)
        l = ca**m
        if l > DEFAULT_SUBPACKET_CAP:
            raise InadmissibleError(f"sub-packetization {ca}^{m} exceeds {DEFAULT_SUBPACKET_CAP}")
    need = min_field_order(family, n, h, s)
    if fobj.order < need:
        raise InadmissibleError(
            f"field order {fobj.order} below required {need} for {family} n={n} h={h} d={d}"
        )
    els = list(range(need))
    if family == "fixed_subset":
        lam = np.zeros((n, s), dtype=fobj.symbol_dtype)
        for i in range(h):
            lam[i] = els[i * s : (i + 1) * s]
        for i in range(h, n):
            lam[i, 0] = els[h * s + (i - h)]
    else:
        lam = np.asarray(els, dtype=fobj.symbol_dtype).reshape(n, s)
    params = CodeParams(n=n, k=k, r=n - k, h=h, d=d, s=s, l=l, m=m)
    return CodeSpec(family, params, fieldspec, lam)


def concat(codes: Iterable[CodeSpec]) -> CodeSpec:
    """Concatenation: row index = tuple of component rows, sub-packetizations
    multiply, one shared λ table of s_max entries per node.

    Components must be any_subset codes over the same (n, k) and field;
    nested concatenations are flattened.
    """
    flat: list[CodeSpec] = []
    for c in codes:
        if c.family == "concatenated":
            flat.extend(c.components)
        elif c.family == "any_subset":
            flat.append(c)
        else:
            raise InadmissibleError("concatenation components must be any_subset codes")
    if not flat:
        raise ValueError("nothing to concatenate")
    n, k = flat[0].params.n, flat[0].params.k
    fieldspec = flat[0].fieldspec
    for c in flat[1:]:
        if (c.params.n, c.params.k) != (n, k):
            raise InadmissibleError("components disagree on (n, k)")
        if c.fieldspec != fieldspec:
            raise InadmissibleError("components disagree on the field")
    l = prod(c.params.l for c in flat)
    if l > DEFAULT_SUBPACKET_CAP:
        raise InadmissibleError(f"sub-packetization {l} exceeds {DEFAULT_SUBPACKET_CAP}")
    smax = max(c.params.s for c in flat)
    fobj = make_field(fieldspec)
    need = smax * n
    if fobj.order < need:
        raise InadmissibleError(f"field order {fobj.order} below required {need} for concatenation")
    lam = np.arange(need, dtype=fobj.symbol_dtype).reshape(n, smax)
    params = CodeParams(n=n, k=k, r=n - k, h=None, d=None, s=None, l=l, m=None)
    return CodeSpec("concatenated", params, fieldspec, lam, components=tuple(flat))


def universal_code(n: int, k: int, field: "FieldSpec | Field | None" = None) -> CodeSpec:
    """The concatenation over every admissible (h, d): optimal repair of any
    h failed nodes from any d >= k+1 helpers with h + d <= n."""
    pairs = [(h, d) for h in range(1, n - k) for d in range(k + 1, n - h + 1)]
    if not pairs:
        raise InadmissibleError(f"no admissible (h, d) pairs for n={n} k={k}")
    if field is None:
        smax = max(d + 1 - k for _, d in pairs)
        field = smallest_field_spec(smax * n)
    return concat([make_code("any_subset", n, k, h, d, field) for h, d in pairs])
