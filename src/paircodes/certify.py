"""End-to-end certification of family members.

A certificate pins both distances of one family instance with nothing
left to trust: the distance engines deliver exact values with explicit
witnesses, an exhaustive pattern-exclusion sweep one pair weight below
the claim independently re-proves the lower bound shape by shape, and
the Singleton-type defect ties dimension to pair distance.  The engines
rank root-power columns over GF(q^2), the sweep check-matrix columns
over GF(q): one kernel, two matrices and fields.  The three
verdicts a pipeline can reach are MDS_CONFIRMED, DISCREPANCY (some
computed value disagrees with the registered claim), and
BUDGET_EXCEEDED (the wall clock ran out first).

Certificates serialize to canonical JSON: keys sorted, two-space
indent, trailing newline, timing fields nulled so that repeated runs
produce byte-identical files.
"""

import itertools
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from paircodes import kernels
from paircodes.codes import (
    BudgetExceededError,
    CertificationError,
    DistanceCertificate,
    chen_consistent,
    dependent_flags,
    min_hamming,
    min_pair,
    rational_null_basis,
    singleton_check,
)
from paircodes.families import build_family, get_spec
from paircodes.patterns import SupportPattern, canonical_supports_by_pw

STATUS_CONFIRMED = "MDS_CONFIRMED"
STATUS_DISCREPANCY = "DISCREPANCY"
STATUS_BUDGET = "BUDGET_EXCEEDED"

@dataclass(frozen=True)
class ShapeClass:
    """All rotation-canonical supports of one pair weight, (size, mask) order."""

    pw: int
    shapes: tuple


@dataclass(frozen=True)
class ExclusionReport:
    """Verdict for one support shape.

    admissible means some codeword is nonzero at every position of the
    pattern; detail is the dimension of the space of codewords
    supported inside the pattern, the nullity of its check columns.
    """

    pattern: SupportPattern
    admissible: bool
    fully_nonzero_witness: Optional[np.ndarray]
    detail: int


def enumerate_shapes(n: int, pw: int) -> ShapeClass:
    if not 2 <= pw <= n:
        raise ValueError(f"pair weight {pw} out of range for length {n}")
    masks = canonical_supports_by_pw(n, pw)
    return ShapeClass(pw=pw, shapes=tuple(SupportPattern(n, m, True) for m in masks))


def exclude_pattern(code, pattern: SupportPattern) -> ExclusionReport:
    """Decide whether some codeword has support exactly the pattern S.

    With H the check matrix, Moebius inversion over the subsets U of S
    counts such codewords as sum_U (-1)^(|S|-|U|) q^(|U| - rank H[:, U]),
    all 2^|S| ranks in one kernel batch.  Only a positive count builds a
    witness: coefficient tuples over a root-power null basis of the same
    dimension, in lexicographic order, until one is nonzero on all of S.
    """
    if pattern.n != code.n:
        raise ValueError("pattern length differs from code length")
    positions = list(pattern.positions)
    s = len(positions)
    ctx = code.ctx
    keep = ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1).astype(bool)  # one row per U
    mats = np.where(keep[:, None, :], code.check_matrix()[:, positions], 0)
    ranks = kernels.gf_rank_many(mats, ctx.add_table, ctx.neg_table, ctx.log, ctx.exp).tolist()
    count = sum((-1) ** (s - u) * ctx.q ** (u - r) for u, r in zip(keep.sum(1).tolist(), ranks))
    d = s - ranks[-1]
    if count == 0:
        return ExclusionReport(pattern, False, None, d)
    basis = rational_null_basis(code, positions)
    if len(basis) != d:
        raise CertificationError(f"root-power nullity {len(basis)} != check-matrix nullity {d}")
    for coeffs in itertools.product(range(ctx.q), repeat=d):
        v = np.zeros(s, dtype=np.int32)
        for c, row in zip(coeffs, basis):
            v = ctx.vadd(v, ctx.vmul(np.full_like(row, c), row))
        if np.all(v != 0):
            word = np.zeros(code.n, dtype=np.int32)
            word[positions] = v
            if not code.contains(word):
                raise CertificationError("exclusion witness fell outside the code")
            return ExclusionReport(pattern, True, word, d)
    raise CertificationError(f"count {count} > 0, yet no basis combination is nonzero on all of S")


def sweep_exclusions(code, pw: int, deadline=None) -> list:
    """Exclusion report for every shape of the given pair weight.

    Shapes are ranked against the check matrix in batches; only the
    rank-deficient ones go to exclude_pattern.  No early exit: every
    report comes back, in deterministic (size, mask) order.
    """
    shapes = enumerate_shapes(code.n, pw).shapes
    flags = dependent_flags(code.check_matrix(), code.ctx, [p.mask for p in shapes], deadline)
    return [
        exclude_pattern(code, p) if f else ExclusionReport(p, False, None, 0)
        for p, f in zip(shapes, flags)
    ]


@dataclass
class FamilyCertificate:
    family: str
    q: int
    n: int
    k: int
    generator: list
    d_H: Optional[DistanceCertificate]
    d_P: Optional[DistanceCertificate]
    lemma3_ok: Optional[bool]
    shapes_swept: int
    status: str
    exclusions: Optional[list] = None  # kept for inspection, not serialized

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "generator": list(self.generator),
            "d_H": None if self.d_H is None else self.d_H.to_json_dict(include_timing),
            "d_P": None if self.d_P is None else self.d_P.to_json_dict(include_timing),
            "lemma3_ok": self.lemma3_ok,
            "shapes_swept": self.shapes_swept,
            "status": self.status,
        }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def certify_family(
    family_id: str, q: int, budget_seconds: float = 600.0, workers: int = 1
) -> FamilyCertificate:
    """Full pipeline for one family member.

    build -> exact d_H -> exclusion sweep one below the claimed pair
    distance -> exact d_P -> consistency and Singleton checks.  The
    sweep and the d_P search are independent proofs of the same lower
    bound; MDS_CONFIRMED requires both, plus agreement with every
    registered claim.  workers is accepted for compatibility and ignored.
    """
    spec = get_spec(family_id)
    code = build_family(family_id, q)
    deadline = time.monotonic() + budget_seconds
    claimed_dp = spec.claimed_pair_distance
    claimed_dh = spec.claimed_hamming(q)

    d_h_cert = None
    d_p_cert = None
    lemma3_ok = None
    exclusions = None
    status = STATUS_DISCREPANCY
    try:
        # claims can overshoot the length itself (pair weight never
        # exceeds n), so every stage budget is capped at n
        cap = min(claimed_dp - 1, code.n)
        d_h_cert = min_hamming(code, cap, method="auto", deadline=deadline)
        exclusions = sweep_exclusions(code, cap, deadline=deadline)
        all_excluded = not any(r.admissible for r in exclusions)
        d_p_cert = min_pair(code, min(claimed_dp, code.n), method="auto", deadline=deadline)
        if d_h_cert.value is None or d_p_cert.value is None:
            lemma3_ok = False
        else:
            lemma3_ok = chen_consistent(code, d_h_cert.value, d_p_cert.value)
            mds, _ = singleton_check(code, d_p_cert.value)
            if (
                d_h_cert.value == claimed_dh
                and d_p_cert.value == claimed_dp
                and mds
                and all_excluded
                and lemma3_ok
            ):
                status = STATUS_CONFIRMED
    except BudgetExceededError:
        status = STATUS_BUDGET

    return FamilyCertificate(
        family=family_id,
        q=q,
        n=code.n,
        k=code.k,
        generator=[int(c) for c in code.g.coeffs],
        d_H=d_h_cert,
        d_P=d_p_cert,
        lemma3_ok=lemma3_ok,
        shapes_swept=0 if exclusions is None else len(exclusions),
        status=status,
        exclusions=exclusions,
    )
