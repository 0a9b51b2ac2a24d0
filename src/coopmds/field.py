"""Finite-field arithmetic over GF(p) and GF(2^w).

Symbols are integers in ``[0, order)``; prime fields interpret them as
residues, binary fields as polynomial-basis bit vectors.  In memory a symbol
array has one format, the field's ``symbol_dtype``: uint8 up to order 256,
uint16 above.  ``as_symbols`` is the one way in: it range-checks any integer
array and returns it in that dtype.  Every operation takes scalar ints or
arrays of any integer dtype holding field elements and returns the same
shape, arrays in ``symbol_dtype`` (prime fields compute in the narrowest
unsigned dtype that holds the intermediates, never int64), so callers can
run row-parallel arithmetic without a separate API.  ``scale_table`` gives
the products c·x for every x, one row per constant c.

The element enumeration 0, 1, 2, ... is the canonical order used everywhere a
construction asks for "distinct field elements"; it is deterministic across
runs and platforms, which is what makes shard files self-describing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Reduction polynomials for GF(2^w), bit w..0.  w=8 and w=16 are pinned to
# x^8+x^4+x^3+x+1 and x^16+x^12+x^3+x+1 for cross-implementation shard
# compatibility; the rest are the usual low-weight irreducible choices.
_REDUCTION_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0x11B,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0x1100B,
}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """Field descriptor: ``kind`` is ``"prime"`` (modulus = p) or ``"binary"``
    (modulus = w for GF(2^w))."""

    kind: str
    modulus: int

    def __post_init__(self) -> None:
        if isinstance(self.modulus, bool) or not isinstance(self.modulus, numbers.Integral):
            raise ValueError(f"field modulus must be an integer, got {self.modulus!r}")
        if self.kind == "prime":
            if not (2 <= self.modulus <= 0xFFFF):
                raise ValueError(f"prime modulus out of range: {self.modulus}")
            if not _is_prime(self.modulus):
                raise ValueError(f"modulus is not prime: {self.modulus}")
        elif self.kind == "binary":
            if not (1 <= self.modulus <= 16):
                raise ValueError(f"binary exponent out of range: {self.modulus}")
        else:
            raise ValueError(f"unknown field kind: {self.kind!r}")

    @property
    def order(self) -> int:
        return self.modulus if self.kind == "prime" else 1 << self.modulus


def _clmul_reduce(a: int, b: int, poly: int, w: int) -> int:
    """Carry-less multiply then reduce modulo ``poly``; reference path used to
    build tables and as an oracle in tests."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> w & 1:
            a ^= poly
    return acc


class Field:
    """Arithmetic over a single finite field.

    All methods are polymorphic in int vs. numpy array operands.  Inversion
    raises ZeroDivisionError on zero.

    Array products are table lookups with no branches or masks: a full
    product table for fields of order <= 256, and for larger binary fields
    log/exp tables whose sentinel log of zero indexes a zero tail of exp (see
    ``_build_log_tables``).  Both are built once, at construction.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.order = spec.order
        self.symbol_dtype = np.dtype(np.uint8 if self.order <= 256 else np.uint16)
        self._name = f"GF({spec.modulus})" if spec.kind == "prime" else f"GF(2^{spec.modulus})"
        if spec.kind == "prime":
            self._p = spec.modulus
            # holds 2p: the sum of two residues, or a wrapped difference plus p
            self._op_dtype = np.dtype(np.min_scalar_type(2 * self._p))
            inv = np.zeros(self._p, dtype=self.symbol_dtype)
            for a in range(1, self._p):
                inv[a] = pow(a, self._p - 2, self._p)
            self._inv_table = inv
        else:
            self._w = spec.modulus
            self._poly = _REDUCTION_POLY[self._w]
            self._build_log_tables()
        self._product: np.ndarray | None = None
        if self.order <= 256:
            self._build_product_table()

    def _build_log_tables(self) -> None:
        """Log/exp tables over the first generator in ascending order.

        ``_log`` is int32 with the sentinel ``_log[0] = 2(q-1)``; ``_exp``, in
        ``symbol_dtype``, holds g^i for i < 2(q-1) and zeros from index 2(q-1)
        through 4(q-1).
        A sum of two logs of nonzero elements stays below 2(q-1), and any sum
        with a zero operand lands in the zero tail, so ``_exp[_log[a] +
        _log[b]]`` is the product with no masks.
        """
        q = self.order
        q1 = q - 1
        candidates = range(2, q) if q > 2 else (1,)
        self.generator = next((g for g in candidates if self._has_full_order(g)), None)
        if self.generator is None:
            raise ValueError(f"no generator found for GF(2^{self._w})")
        exp = np.zeros(4 * q1 + 1, dtype=np.int64)
        exp[0] = 1
        # doubling: with g^0..g^(n-1) known, g^n..g^(2n-1) are those times g^n
        n = 1
        while n < q1:
            m = min(n, q1 - n)
            exp[n : n + m] = self._clmul_const(exp[:m], self._scalar_pow(self.generator, n))
            n += m
        exp[q1 : 2 * q1] = exp[:q1]
        log = np.empty(q, dtype=np.int32)
        log[exp[:q1]] = np.arange(q1, dtype=np.int32)
        log[0] = 2 * q1
        self._exp = exp.astype(self.symbol_dtype)
        self._log = log

    def _scalar_pow(self, a: int, t: int) -> int:
        result = 1
        while t:
            if t & 1:
                result = _clmul_reduce(result, a, self._poly, self._w)
            a = _clmul_reduce(a, a, self._poly, self._w)
            t >>= 1
        return result

    def _has_full_order(self, g: int) -> bool:
        """g^(q-1) = 1 and g^((q-1)/p) != 1 for every prime p dividing q-1,
        i.e. g^0..g^(q-2) are distinct."""
        q1 = self.order - 1
        factors, rest, p = set(), q1, 2
        while p * p <= rest:
            while rest % p == 0:
                factors.add(p)
                rest //= p
            p += 1
        if rest > 1:
            factors.add(rest)
        return self._scalar_pow(g, q1) == 1 and all(
            self._scalar_pow(g, q1 // p) != 1 for p in factors
        )

    def _clmul_const(self, a: np.ndarray, c: int) -> np.ndarray:
        """Elementwise product of an array with the constant c, by
        shift-and-add over the bits of c."""
        acc = np.zeros_like(a)
        high = 1 << self._w
        while c:
            if c & 1:
                acc ^= a
            c >>= 1
            a = a << 1
            a ^= np.where(a & high, self._poly, 0)
        return acc

    def _build_product_table(self) -> None:
        """Full product table for array multiplies in fields of order <= 256,
        the table-lookup kernel of Plank, Greenan and Miller (FAST 2013).

        Rows are padded to a power-of-two stride so a product is one lookup at
        (a << shift) | b; at most 256 x 256 one-byte entries (64 KiB).
        """
        q = self.order
        self._product_shift = (q - 1).bit_length()
        elems = np.arange(q, dtype=np.int64)
        table = np.zeros((q, 1 << self._product_shift), dtype=np.uint8)
        table[:, :q] = self.mul(elems[:, None], elems[None, :])
        table.setflags(write=False)
        self._product = table.ravel()

    def as_symbols(self, a) -> np.ndarray:
        """a as an array in ``symbol_dtype``, the one way symbols enter the
        library.  Raises ValueError for a non-integer array or a value
        outside [0, order); an unsigned dtype too narrow to hold one skips
        the scan."""
        a = np.asarray(a)
        if a.size:
            if a.dtype.kind not in "ui":
                raise ValueError(f"symbols must be integers, not {a.dtype}")
            if a.dtype.kind == "i" or np.iinfo(a.dtype).max >= self.order:
                lo, hi = (a.min() if a.dtype.kind == "i" else 0), a.max()
                if lo < 0 or hi >= self.order:
                    raise ValueError(f"symbol {lo if lo < 0 else hi} is outside {self._name}")
        return a.astype(self.symbol_dtype, copy=False)

    # ---- basic operations ----------------------------------------------

    def _narrow(self, x):
        return x.astype(self.symbol_dtype, copy=False) if isinstance(x, np.ndarray) else x

    def _mod(self, t):
        """Unsigned t mod p in symbol_dtype; numpy's vectorised floor division
        by a scalar is about ten times faster than its % on uint8."""
        return (t - t // self._p * self._p).astype(self.symbol_dtype, copy=False)

    def _residue(self, a, b, plus: bool):
        """a + b or a - b mod p.  Scalars take Python's %.  Arrays wrap in
        _op_dtype, then take min(t, t - p) after a sum and min(t, t + p)
        after a difference: the wrong candidate has wrapped past the top."""
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return (int(a) + int(b) if plus else int(a) - int(b)) % self._p
        op = np.add if plus else np.subtract
        t = np.asarray(op(a, b, dtype=self._op_dtype, casting="unsafe"))
        u = t - self._p if plus else t + self._p
        return self._narrow(np.minimum(t, u, out=u if isinstance(u, np.ndarray) else None))

    def add(self, a, b):
        return self._narrow(a ^ b) if self.spec.kind == "binary" else self._residue(a, b, True)

    def sub(self, a, b):
        return self._narrow(a ^ b) if self.spec.kind == "binary" else self._residue(a, b, False)

    def neg(self, a):
        return self._narrow(a) if self.spec.kind == "binary" else self._residue(0, a, False)

    def mul(self, a, b):
        """Product; arrays broadcast."""
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            if self.spec.kind == "prime":
                return int(a) * int(b) % self._p
            return int(self._exp[self._log[a] + self._log[b]])
        if self._product is not None:
            # order <= 256, so the index (a << shift) | b fits in uint16
            index = np.left_shift(a, self._product_shift, dtype=np.uint16, casting="unsafe")
            return self._product[np.bitwise_or(index, b, dtype=np.uint16, casting="unsafe")]
        if self.spec.kind == "prime":
            # p <= 65,535, so a product of two residues fits in uint32
            return self._mod(np.multiply(a, b, dtype=np.uint32, casting="unsafe"))
        # zero operands hit the sentinel log and land in exp's zero tail
        return self._exp[self._log[a] + self._log[b]]

    def scale_table(self, c) -> np.ndarray:
        """The read-only rows x -> c·x for x = 0..order-1 of the constants c,
        packed: entry x of a row holds the products of the last axis's
        constants side by side, shape ``c.shape[:-1] + (order, c.shape[-1])``
        in ``symbol_dtype`` (a single constant gives shape ``(order,)``), for
        per-constant lookups (Plank, Greenan and Miller, FAST 2013).  A row
        has exactly ``order`` entries, so looking up a symbol outside the
        field raises IndexError instead of reading another product.  Binary
        rows are built by doubling, w XOR passes over whole entries.
        """
        c = np.asarray(c)
        if c.size and (c.min() < 0 or c.max() >= self.order):
            raise ValueError(f"{c} is not an element of {self!r}")
        if c.ndim == 0:
            return self.scale_table(c[None])[:, 0]
        if self.spec.kind == "prime":
            rows = self.mul(c[..., None, :], np.arange(self.order)[:, None])
        else:  # c·(x + 2^b) = c·x + c·2^b for x < 2^b, on words of up to 8 bytes
            rows = np.zeros(c.shape[:-1] + (self.order,) + c.shape[-1:], self.symbol_dtype)
            size = rows.itemsize * c.shape[-1]
            words = rows.view(f"u{min(size & -size, 8) or 1}")  # whole words; bytes if no lanes
            bits = np.left_shift(1, np.arange(self._w)).reshape((-1,) + (1,) * c.ndim)
            for b, image in enumerate(self.mul(c, bits).view(words.dtype)):  # c·2^b
                np.bitwise_xor(words[..., : 1 << b, :], image[..., None, :], out=words[..., 1 << b : 2 << b, :])
        rows.setflags(write=False)
        return rows

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of zero")
        q1 = self.order - 1  # exp has period q1, so q1 - log a indexes a^-1 directly
        out = self._inv_table[a] if self.spec.kind == "prime" else self._exp[q1 - self._log[a]]
        return out if isinstance(out, np.ndarray) else int(out)

    def sum(self, arr: np.ndarray, axis=None):
        """Field sum along an axis: for prime fields accumulated in the
        narrowest unsigned dtype that holds count·(p-1) and reduced once;
        xor-reduce for binary ones, which cannot overflow."""
        arr = np.asarray(arr)
        if self.spec.kind == "prime":
            count = arr.size if axis is None else arr.shape[axis]
            return self._mod(arr.sum(axis=axis, dtype=np.min_scalar_type(count * (self._p - 1))))
        return np.bitwise_xor.reduce(arr.astype(self.symbol_dtype, copy=False), axis=axis)

    def __repr__(self) -> str:
        return f"Field({self._name})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(self.spec)


@lru_cache(maxsize=None)
def _field_cached(kind: str, modulus: int) -> Field:
    return Field(FieldSpec(kind, modulus))


def make_field(spec: "FieldSpec | str", modulus: int | None = None) -> Field:
    """Build (or fetch the cached) field for a FieldSpec, or for
    ``make_field("prime", 7)`` / ``make_field("binary", 8)`` shorthand."""
    if isinstance(spec, FieldSpec):
        return _field_cached(spec.kind, spec.modulus)
    if modulus is None:
        raise ValueError("modulus required when kind given as string")
    return _field_cached(spec, modulus)


def smallest_field_spec(min_order: int) -> FieldSpec:
    """Smallest supported field (prime or GF(2^w)) with order >= min_order."""
    q = max(2, min_order)
    while True:
        if q > 2 and (q & (q - 1)) == 0:
            w = q.bit_length() - 1
            if w <= 16:
                return FieldSpec("binary", w)
        if q <= 0xFFFF and _is_prime(q):
            return FieldSpec("prime", q)
        q += 1
        if q > 0x10000:
            raise ValueError(f"no supported field of order >= {min_order}")
