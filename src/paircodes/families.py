"""Four parametric families of cyclic codes tuned for the pair metric.

Each family fixes, for an admissible prime power q, a length n, a set of
defining-exponent representatives modulo n, and the pair distance the
construction is designed to reach (its dimension then sits exactly on
the Singleton-type bound for that distance).  Builders assemble the
generator twice, from linear factors over GF(q^2) and from minimal
polynomials over GF(q), and insist the two agree.

Three of the families come with closed-form codewords witnessing the
claimed Hamming distance from above; the distance engines provide the
matching lower bounds.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from paircodes.codes import (
    CertificationError,
    hamming_weight,
    make_code,
    min_hamming,
    min_pair,
)
from paircodes.cosets import (
    closed_defining_set,
    coset,
    generator_from_defining_set,
    minimal_polynomial,
)
from paircodes.decompose import quartic_beta
from paircodes.field import (
    factorize,
    make_field,
    make_tower,
    nth_root_of_unity,
    primitive_nth_roots,
)
from paircodes.poly import Poly


class InadmissibleFamilyError(ValueError):
    """q fails the admissibility condition of the requested family."""


@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    requirement: str
    length: Callable[[int], int]
    dimension: Callable[[int], int]
    claimed_pair_distance: int
    claimed_hamming: Callable[[int], int]
    congruence_ok: Callable[[int], bool]
    exponent_reps: Callable[[int, int], list]


_REGISTRY = {
    "dp7": FamilySpec(
        family_id="dp7",
        requirement="a prime power congruent to 1 mod 4",
        length=lambda q: 4 * q + 4,
        dimension=lambda q: 4 * q - 1,
        claimed_pair_distance=7,
        claimed_hamming=lambda q: 4,
        congruence_ok=lambda q: q % 4 == 1,
        exponent_reps=lambda q, n: [0, n // 2, 1, q, q + 1],
    ),
    "dp8": FamilySpec(
        family_id="dp8",
        requirement="a prime power congruent to 3 mod 4",
        length=lambda q: 4 * q - 4,
        dimension=lambda q: 4 * q - 10,
        claimed_pair_distance=8,
        claimed_hamming=lambda q: 6 if q == 3 else 4,
        congruence_ok=lambda q: q % 4 == 3,
        exponent_reps=lambda q, n: [0, n // 2, 1, q, 2, (2 * q) % n],
    ),
    "dp9": FamilySpec(
        family_id="dp9",
        requirement="an odd prime power",
        length=lambda q: 2 * q + 2,
        dimension=lambda q: 2 * q - 5,
        claimed_pair_distance=9,
        claimed_hamming=lambda q: 8 if q == 3 else 6,
        congruence_ok=lambda q: q % 2 == 1 and q >= 3,
        exponent_reps=lambda q, n: [n - 1, 0, 1, 2],
    ),
    "kai_dp7": FamilySpec(
        family_id="kai_dp7",
        requirement="a prime power congruent to 3 mod 4",
        length=lambda q: 4 * q - 4,
        dimension=lambda q: 4 * q - 9,
        claimed_pair_distance=7,
        claimed_hamming=lambda q: 4,
        congruence_ok=lambda q: q % 4 == 3,
        exponent_reps=lambda q, n: [0, 1, q, 2, (2 * q) % n],
    ),
}


def family_ids() -> list:
    return sorted(_REGISTRY)


def get_spec(family_id: str) -> FamilySpec:
    try:
        return _REGISTRY[family_id]
    except KeyError:
        raise ValueError(
            f"unknown family {family_id!r}; known: {', '.join(family_ids())}"
        ) from None


def _field_for(q: int):
    if q < 2:
        raise InadmissibleFamilyError(f"q = {q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise InadmissibleFamilyError(f"q = {q} is not a prime power")
    ((p, e),) = fac.items()
    return make_field(p, e)


def build_family(family_id: str, q: int, root=None):
    """The family member at q, as a fully validated cyclic code."""
    spec = get_spec(family_id)
    if not spec.congruence_ok(q):
        raise InadmissibleFamilyError(
            f"{family_id} needs q to be {spec.requirement}; got q = {q}"
        )
    ctx = _field_for(q)
    n = spec.length(q)
    reps = spec.exponent_reps(q, n)
    ds = closed_defining_set(n, 1, reps, q)
    smap = make_tower(ctx.p, ctx.m)
    if root is None:
        root = nth_root_of_unity(smap.big, n)
    # both constructions of g must agree before the code is accepted
    g = generator_from_defining_set(ds, root, smap)
    parts = Poly.one(ctx)
    seen = set()
    for rep in reps:
        c = coset(rep, q, n)
        if c not in seen:
            seen.add(c)
            parts = parts * minimal_polynomial(smap, root, rep, n)
    if parts != g:
        raise CertificationError("minimal polynomial product disagrees with the root product")
    code = make_code(ctx, n, 1, g, root=root)
    if code.k != spec.dimension(q):
        raise CertificationError(f"dimension {code.k} != {spec.dimension(q)}")
    if code.T != ds:
        raise CertificationError("the code's defining set differs from the closed one")
    return code


def witness_low_weight(family_id: str, code) -> np.ndarray:
    """Closed-form codeword meeting the family's claimed Hamming distance.

    dp7: (x^4 - 1)(x^{n/2} + 1), weight 4.
    dp8: (x^{n/2} - 1)(eta x^{q-3} + 1) with eta = xi^{q+1}, weight 4; the
         q = 3 member degenerates (q - 3 = 0) and is refused.
    dp9: (x^4 - beta x^2 + 1)(x^{n/2} - 1), weight 6; beta = 0 at q = 3,
         where the product collapses, so that member is refused too.
    """
    ctx = code.ctx
    q = ctx.q
    n = code.n
    spec = get_spec(family_id)
    if family_id == "dp7":
        w = Poly(ctx, (ctx.neg(1),) + (0,) * 3 + (1,)) * Poly(
            ctx, (1,) + (0,) * (n // 2 - 1) + (1,)
        )
    elif family_id == "dp8":
        if q == 3:
            raise ValueError("the dp8 witness degenerates at q = 3")
        eta = code.smap.to_subfield(code.smap.big.pow(code.root, q + 1))
        w = Poly(ctx, (ctx.neg(1),) + (0,) * (n // 2 - 1) + (1,)) * Poly(
            ctx, (1,) + (0,) * (q - 4) + (eta,)
        )
    elif family_id == "dp9":
        if q == 3:
            raise ValueError("the dp9 witness degenerates at q = 3")
        beta = quartic_beta(code.smap, code.root)
        w = Poly(ctx, (1, 0, ctx.neg(beta), 0, 1)) * Poly(
            ctx, (ctx.neg(1),) + (0,) * (n // 2 - 1) + (1,)
        )
    else:
        raise ValueError(f"no closed-form low-weight word is known for {family_id}")
    out = np.zeros(n, dtype=np.int32)
    out[: len(w.coeffs)] = w.coeffs
    if not code.contains(out):
        raise CertificationError("witness fell outside the code")
    if hamming_weight(out) != spec.claimed_hamming(q):
        raise CertificationError("witness has the wrong weight")
    return out


def subcode_check(q: int) -> bool:
    """dp8 is a one-dimension-smaller subcode of kai_dp7 at the same q."""
    kai = build_family("kai_dp7", q)
    sub = build_family("dp8", q)
    if not kai.g.divides(sub.g):
        raise CertificationError("generators are not nested")
    if sub.k != kai.k - 1:
        raise CertificationError(f"dp8 dimension {sub.k} != kai_dp7 dimension {kai.k} - 1")
    if not all(kai.contains(row) for row in sub.generator_matrix()):
        raise CertificationError("a dp8 generator row left kai_dp7")
    return True


def root_choice_stability(family_id: str, q: int) -> dict:
    """Re-run both distance searches for every primitive n-th root choice.

    The reported distances must not depend on which root the defining
    set is read against; the report lists the distinct (d_H, d_P) pairs
    seen, so stable means exactly one entry.
    """
    spec = get_spec(family_id)
    base = build_family(family_id, q)
    n = base.n
    pairs = set()
    for rt in primitive_nth_roots(base.smap.big, n):
        code = build_family(family_id, q, root=rt)
        dh = min_hamming(code, spec.claimed_pair_distance - 1, method="support_rank").value
        dp = min_pair(code, spec.claimed_pair_distance, method="support_rank").value
        pairs.add((dh, dp))
    ordered = sorted(pairs, key=lambda t: tuple((v is None, v or 0) for v in t))
    return {
        "family": family_id,
        "q": q,
        "n": n,
        "choices": len(primitive_nth_roots(base.smap.big, n)),
        "pairs": [list(t) for t in ordered],
        "stable": len(pairs) == 1,
    }
