"""Cyclotomic cosets, minimal polynomials, defining sets, and the
BCH / Hartmann-Tzeng lower bounds on minimum Hamming distance.

Exponent conventions: a length-n shift-constant code with constant of
multiplicative order r has its roots among the (r*n)-th roots of
unity, at exponents congruent to 1 mod r.  Negative residues are
normalized into [0, r*n) everywhere.
"""

from __future__ import annotations

import math

from .errors import CertificationError
from .field import SubfieldMap
from .poly import Poly, eval_embedded


def coset(i: int, q: int, rn: int) -> tuple[int, ...]:
    """Orbit of i under multiplication by q modulo rn, sorted."""
    if rn < 1:
        raise ValueError(f"modulus must be positive, got {rn}")
    if math.gcd(q, rn) != 1:
        raise ValueError(f"gcd({q}, {rn}) != 1")
    i %= rn
    out = {i}
    j = (i * q) % rn
    while j != i:
        out.add(j)
        j = (j * q) % rn
    return tuple(sorted(out))


def all_cosets(q: int, rn: int) -> list[tuple[int, ...]]:
    """The coset partition of Z_rn, ordered by smallest member."""
    seen = set()
    out = []
    for i in range(rn):
        if i not in seen:
            c = coset(i, q, rn)
            seen.update(c)
            out.append(c)
    return out


class DefiningSet:
    """A set of root exponents modulo rn for a code whose shift
    constant has order r.

    Exponents are kept sorted and normalized to [0, rn).  When the
    field size q is supplied, closure under multiplication by q is
    verified (a true defining set is a union of cosets).
    """

    __slots__ = ("rn", "r", "exponents")

    def __init__(self, rn: int, r: int, exponents, q: int | None = None):
        if rn < 1 or r < 1 or rn % r != 0:
            raise ValueError(f"bad modulus/order pair ({rn}, {r})")
        exps = tuple(sorted({int(t) % rn for t in exponents}))
        for t in exps:
            if t % r != 1 % r:
                raise ValueError(f"exponent {t} is not congruent to 1 mod {r}")
        if q is not None:
            members = set(exps)
            if {(t * q) % rn for t in members} != members:
                raise ValueError("exponent set is not closed under multiplication by q")
        self.rn = rn
        self.r = r
        self.exponents = exps

    @property
    def n(self) -> int:
        return self.rn // self.r

    def __len__(self) -> int:
        return len(self.exponents)

    def __contains__(self, t: int) -> bool:
        return (t % self.rn) in set(self.exponents)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DefiningSet)
            and (self.rn, self.r, self.exponents) == (other.rn, other.r, other.exponents)
        )

    def serialize(self) -> dict:
        return {"modulus": self.rn, "r": self.r, "exponents": list(self.exponents)}

    def __repr__(self) -> str:
        return f"DefiningSet(rn={self.rn}, r={self.r}, T={list(self.exponents)})"

    def stride_positions(self) -> list[int]:
        """Map each exponent t = 1 + r*i to its lattice position i in Z_n."""
        return sorted(((t - 1) % self.rn) // self.r for t in self.exponents)


def closed_defining_set(rn: int, r: int, reps, q: int) -> DefiningSet:
    """DefiningSet generated by closing representative exponents under q."""
    exps: set[int] = set()
    for t in reps:
        exps.update(coset(t, q, rn))
    return DefiningSet(rn, r, exps, q=q)


def minimal_polynomial(smap: SubfieldMap, xi: int, i: int, n: int) -> Poly:
    """Monic minimal polynomial of xi^i over the small field.

    xi must have multiplicative order n in the big field; the product
    runs over the q-cyclotomic coset of i mod n and every coefficient
    must coerce into the small field.
    """
    big = smap.big
    if big.order(xi) != n:
        raise ValueError(f"xi has order {big.order(xi)}, expected {n}")
    prod = Poly.from_roots(big, [big.pow(xi, j) for j in coset(i, smap.small.q, n)])
    return Poly(smap.small, [smap.to_subfield(c) for c in prod.coeffs])


def defining_set_from_generator(
    g: Poly, alpha: int, n: int, r: int, smap: SubfieldMap
) -> DefiningSet:
    """Root exponents of g among the powers of alpha.

    alpha must be a primitive (r*n)-th root of unity in the big field
    whose n-th power is the code's shift constant; g must divide
    x^n - lam over the small field.
    """
    big = smap.big
    rn = r * n
    if big.order(alpha) != rn:
        raise ValueError(f"alpha has order {big.order(alpha)}, expected {rn}")
    lam = smap.to_subfield(big.pow(alpha, n))
    xn = Poly.xn_minus_lambda(smap.small, n, lam)
    if not g.divides(xn):
        raise ValueError(f"generator does not divide x^{n} - {lam}")
    exps = [
        t
        for t in range(rn)
        if t % r == 1 % r and eval_embedded(g, smap, big.pow(alpha, t)) == 0
    ]
    ds = DefiningSet(rn=rn, r=r, exponents=exps, q=smap.small.q)
    if len(ds) != (0 if g.is_zero else g.degree):
        raise CertificationError("root count mismatch")
    return ds


def generator_from_defining_set(ds: DefiningSet, alpha: int, smap: SubfieldMap) -> Poly:
    """Monic product of (x - alpha^t) over the defining set, coerced."""
    big = smap.big
    if big.order(alpha) != ds.rn:
        raise ValueError(f"alpha has order {big.order(alpha)}, expected {ds.rn}")
    prod = Poly.from_roots(big, [big.pow(alpha, t) for t in ds.exponents])
    return Poly(smap.small, [smap.to_subfield(c) for c in prod.coeffs])


def _longest_cyclic_run(positions: list[int], n: int) -> int:
    """Length of the longest run of consecutive residues mod n."""
    if not positions:
        return 0
    members = set(positions)
    if len(members) == n:
        return n
    best = 0
    for p in members:
        if (p - 1) % n in members:
            continue  # only start runs at their left edge
        length = 1
        while (p + length) % n in members:
            length += 1
        best = max(best, length)
    return best


def bch_bound(ds: DefiningSet) -> int:
    """The shifted-run BCH bound: one more than the longest run of
    consecutive exponents (in the r-strided lattice), over all cyclic
    window positions."""
    return _longest_cyclic_run(ds.stride_positions(), ds.n) + 1


def hartmann_tzeng_bound(ds: DefiningSet) -> int:
    """Exhaustive Hartmann-Tzeng search for cyclic codes (r = 1).

    Scans every window A of delta-1 consecutive exponents, every
    translation step b with gcd(b, n) < delta, and grows s greedily
    while A + {0, b, ..., s*b} stays inside the set; the bound is the
    best delta + s found, capped by exhaustion (s <= n).
    """
    if ds.r != 1:
        raise ValueError("Hartmann-Tzeng search applies to cyclic codes only")
    n = ds.n
    members = set(ds.exponents)
    best = 1
    maxrun = _longest_cyclic_run(sorted(members), n)
    for delta in range(2, maxrun + 2):
        for c in range(n):
            window = [(c + j) % n for j in range(delta - 1)]
            if not all(w in members for w in window):
                continue
            for b in range(1, n):
                if math.gcd(b, n) >= delta:
                    continue
                s = 0
                while s < n and all((w + (s + 1) * b) % n in members for w in window):
                    s += 1
                if delta + s > best:
                    best = delta + s
    return best
