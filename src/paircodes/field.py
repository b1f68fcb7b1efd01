"""Exact arithmetic in small finite fields GF(p^m), p an odd prime.

A field element is a plain integer in [0, p^m).  The base-p digits of
the integer are the element's coordinates in the polynomial basis
{1, x, ..., x^(m-1)}, little-endian, so index 0 is the zero element,
index 1 is the one element, and indices below p form the prime
subfield in every context.

Each context is table-backed: a full exp/log pair over a fixed
primitive element makes multiplication, inversion and powering O(1)
lookups.  Construction is deterministic (the modulus is the
lexicographically smallest monic irreducible, coefficients compared
low-to-high, and the generator is the smallest-index element of full
multiplicative order), so element indices are stable across runs and
machines, which the certificate serialization relies on.

Contexts are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from paircodes.errors import CertificationError

# exp/log tables are built eagerly; beyond this size we refuse to build
TABLE_LIMIT = 1 << 20
# full q x q addition tables only below this (27 MB of int32 at the cap)
ADD_TABLE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n stays below 2^20 here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digits(idx: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + int(d)
    return v


def _raw_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Long division of coefficient lists over GF(p); den must be monic."""
    num = num[:]
    d = len(den) - 1
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quo[i - d] = c
            num[i] = 0
            for j in range(d):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return quo, num[:d] if d else []


def _raw_irreducible(poly: list[int], p: int) -> bool:
    """Trial division against all monic polynomials of degree <= m/2."""
    m = len(poly) - 1
    if poly[0] == 0 and m > 1:
        return False
    for d in range(1, m // 2 + 1):
        for low in range(p**d):
            cand = _digits(low, p, d) + [1]
            _, rem = _raw_divmod(poly, cand, p)
            if not any(rem):
                return False
    return True


class FieldCtx:
    """GF(p^m) with exp/log tables over a fixed primitive element."""

    __slots__ = (
        "p", "m", "q", "modulus", "gen",
        "exp", "log", "neg_table", "add_table", "_digit_mat", "_order",
    )

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p == 2:
            raise ValueError("odd characteristic required")
        if m < 1:
            raise ValueError(f"extension degree must be positive, got {m}")
        q = p**m
        if q > TABLE_LIMIT:
            raise ValueError(f"p^m = {q} exceeds the table limit 2^20")
        self.p = p
        self.m = m
        self.q = q
        self._order = q - 1

        # lexicographically smallest monic irreducible, low coeffs first
        modulus = None
        for low in itertools.product(range(p), repeat=m):
            cand = list(low) + [1]
            if _raw_irreducible(cand, p):
                modulus = tuple(cand)
                break
        if modulus is None:
            raise CertificationError(f"no monic irreducible of degree {m} over GF({p})")
        self.modulus = modulus

        fac = factorize(q - 1) if q > 2 else {}
        gen = 1
        for idx in range(2, q):
            if all(self._pow_raw(idx, (q - 1) // ell) != 1 for ell in fac):
                gen = idx
                break
        self.gen = gen

        exp = np.zeros(2 * (q - 1), dtype=np.int32)
        log = np.full(q, -1, dtype=np.int32)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, gen)
        if v != 1:
            raise CertificationError("generator does not have full order")
        exp[q - 1:] = exp[: q - 1]
        self.exp = exp
        self.log = log

        digit_mat = np.zeros((q, m), dtype=np.int32)
        idxs = np.arange(q)
        for i in range(m):
            digit_mat[:, i] = idxs % p
            idxs //= p
        self._digit_mat = digit_mat
        weights = p ** np.arange(m)
        self.neg_table = (((-digit_mat) % p) * weights).sum(axis=1).astype(np.int32)
        if q <= ADD_TABLE_LIMIT:
            s = (digit_mat[:, None, :] + digit_mat[None, :, :]) % p
            self.add_table = (s * weights).sum(axis=2).astype(np.int32)
        else:
            self.add_table = None

    # raw digit arithmetic, only used during construction
    def _mul_raw(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        _, rem = _raw_divmod(prod, list(self.modulus), p)
        rem += [0] * (m - len(rem))
        return _undigits(rem, p)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _check(self, a) -> int:
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element index of {self!r}")
        return a

    # scalar operations
    def add(self, a, b) -> int:
        a, b = self._check(a), self._check(b)
        if self.add_table is not None:
            return int(self.add_table[a, b])
        p = self.p
        s = (self._digit_mat[a] + self._digit_mat[b]) % p
        return _undigits(s, p)

    def neg(self, a) -> int:
        return int(self.neg_table[self._check(a)])

    def sub(self, a, b) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a, b) -> int:
        a, b = self._check(a), self._check(b)
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a) -> int:
        a = self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[self._order - self.log[a]])

    def div(self, a, b) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int) -> int:
        a = self._check(a)
        e = int(e)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        return int(self.exp[(self.log[a] * e) % self._order])

    def order(self, a) -> int:
        """Multiplicative order of a nonzero element."""
        a = self._check(a)
        if a == 0:
            raise ZeroDivisionError("order of zero")
        return self._order // math.gcd(self._order, int(self.log[a]))

    # vectorized operations on index arrays
    def vadd(self, xs, ys):
        if self.add_table is not None:
            return self.add_table[xs, ys]
        p = self.p
        s = (self._digit_mat[xs] + self._digit_mat[ys]) % p
        return (s * (p ** np.arange(self.m))).sum(axis=-1).astype(np.int32)

    def vneg(self, xs):
        return self.neg_table[xs]

    def vsub(self, xs, ys):
        return self.vadd(xs, self.neg_table[ys])

    def vmul(self, xs, ys):
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        out = self.exp[(self.log[xs] + self.log[ys]) % self._order]
        return np.where((xs == 0) | (ys == 0), 0, out).astype(np.int32)

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "generator": self.gen,
        }

    def __repr__(self) -> str:
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def make_field(p: int, m: int) -> FieldCtx:
    """Deterministic table-backed GF(p^m); instances are cached."""
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldCtx(p, m)
    return _FIELD_CACHE[key]


def nth_root_of_unity(ctx: FieldCtx, n: int) -> int:
    """The fixed primitive n-th root of unity: generator^((q-1)/n)."""
    n = int(n)
    if n < 1 or (ctx.q - 1) % n != 0:
        raise ValueError(f"{n} does not divide {ctx.q - 1}")
    return int(ctx.exp[(ctx.q - 1) // n])


def primitive_nth_roots(ctx: FieldCtx, n: int) -> list[int]:
    """All elements of multiplicative order n, ordered by exponent."""
    xi = nth_root_of_unity(ctx, n)
    return [ctx.pow(xi, j) for j in range(1, n + 1) if math.gcd(j, n) == 1]


class SubfieldMap:
    """The embedding GF(q) -> GF(q^t) and its partial inverse.

    The embedding sends the small field's basis element x to the
    smallest-index root of the small modulus inside the big field,
    which extends to a ring homomorphism on the whole field.  Elements
    of the image are exactly the solutions of y^q = y.
    """

    __slots__ = ("small", "big", "root", "embed_table", "section")

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if small.p != big.p or big.m % small.m != 0 or big.m == small.m:
            raise ValueError(f"{big!r} is not a proper extension of {small!r}")
        self.small = small
        self.big = big

        coeffs = list(small.modulus)
        root = None
        for x in range(big.q):
            acc = 0
            for c in reversed(coeffs):
                acc = big.add(big.mul(acc, x), c)
            if acc == 0:
                root = x
                break
        if root is None:
            raise CertificationError("small modulus has no root in the big field")
        self.root = root

        rpow = [1]
        for _ in range(small.m - 1):
            rpow.append(big.mul(rpow[-1], root))
        table = np.zeros(small.q, dtype=np.int32)
        for e in range(small.q):
            acc = 0
            for i, d in enumerate(_digits(e, small.p, small.m)):
                if d:
                    acc = big.add(acc, big.mul(d, rpow[i]))
            table[e] = acc
        self.embed_table = table
        section = np.full(big.q, -1, dtype=np.int32)
        section[table] = np.arange(small.q)
        self.section = section

    def embed(self, x) -> int:
        return int(self.embed_table[self.small._check(x)])

    def vembed(self, xs):
        return self.embed_table[xs]

    def in_subfield(self, x) -> bool:
        x = self.big._check(x)
        return self.big.pow(x, self.small.q) == x

    def to_subfield(self, x) -> int:
        v = int(self.section[self.big._check(x)])
        if v < 0:
            raise ValueError(f"element {x} of {self.big!r} is outside GF({self.small.q})")
        return v

    def __repr__(self) -> str:
        return f"SubfieldMap(GF({self.small.q}) -> GF({self.big.q}))"


_TOWER_CACHE: dict[tuple[int, int], SubfieldMap] = {}


def make_tower(p: int, m: int) -> SubfieldMap:
    """The degree-2 tower GF(p^m) inside GF(p^2m); instances are cached."""
    key = (p, m)
    if key not in _TOWER_CACHE:
        _TOWER_CACHE[key] = SubfieldMap(make_field(p, m), make_field(p, 2 * m))
    return _TOWER_CACHE[key]
