"""Record the inputs and expected outputs that workloads.py draws from.

    python3 certbench/record.py

Rewrites certbench/pool.json.  Each code is described to the program
only by (q, n, lam, generator), as ``paircodes distance --generator``
takes it; the defining-set representatives it was built from are kept
for reference.  Run this only when the benchmark's inputs change: the
values and certificate hashes it writes are what every later commit is
checked against.
"""

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from paircodes.certify import canonical_json, certify_family  # noqa: E402
from paircodes.codes import make_code, min_hamming, min_pair  # noqa: E402
from paircodes.cosets import (  # noqa: E402
    all_cosets,
    closed_defining_set,
    generator_from_defining_set,
)
from paircodes.families import get_spec  # noqa: E402
from paircodes.field import SubfieldMap, factorize, make_field, nth_root_of_unity  # noqa: E402

MATRIX = [
    ("dp7", 5), ("dp7", 9), ("dp7", 13),
    ("dp8", 3), ("dp8", 7), ("dp8", 11),
    ("dp9", 3), ("dp9", 5), ("dp9", 7), ("dp9", 9),
    ("kai_dp7", 7), ("kai_dp7", 11),
]
# the registry overclaims at dp9 q=3; the true d_P is 8 and the
# pipeline's DISCREPANCY verdict is the correct output
MATRIX_EXCEPTIONS = {("dp9", 3): ("DISCREPANCY", 8, 8)}

# (q, n, r, k): r = 1 cyclic, r = 2 negacyclic; every code of the
# stratum has q^k in [2^15, 2^17], so ``auto`` enumerates it fully
ENUM_STRATA = [
    (3, 13, 1, 10), (3, 13, 2, 10),
    (5, 8, 1, 7), (5, 12, 1, 7),
    (7, 8, 1, 6), (7, 8, 2, 6),
    (9, 10, 1, 5), (9, 10, 2, 5),
]
ENUM_PER_STRATUM = 6

# (q, n, r) -> defining-set representatives of codes sharing k, d_H and
# d_P, found by searching unions of cyclotomic cosets for d_P >= 9 and
# a query time of 0.5-3 s; q^k > 2^22, so ``auto`` scans supports
DEEP_STRATA = [
    ((5, 24, 1), [[0, 6, 7, 9, 14], [0, 7, 8, 9, 18], [3, 6, 8, 13, 18],
                  [4, 6, 9, 12, 19], [4, 6, 12, 13, 19], [6, 7, 8, 12, 13]]),
    ((7, 24, 1), [[0, 6, 8, 13, 17], [0, 6, 9, 13, 20], [1, 5, 10, 12, 16],
                  [3, 4, 6, 12, 17], [3, 6, 12, 13, 20], [6, 9, 12, 16, 17]]),
    ((7, 24, 2), [[1, 3, 5, 19], [1, 5, 9, 11], [3, 5, 9, 19], [3, 5, 17, 19]]),
    ((7, 24, 2), [[1, 3, 9, 11], [1, 3, 11, 17], [1, 3, 11, 19], [1, 5, 9, 19],
                  [3, 5, 9, 13], [9, 11, 13, 17]]),
    ((9, 20, 2), [[1, 7, 15, 21, 35], [3, 5, 7, 21, 25], [3, 5, 17, 31, 35],
                  [3, 11, 15, 21, 25], [3, 13, 15, 25, 31], [5, 11, 13, 25, 31]]),
    ((9, 20, 2), [[1, 3, 15, 21], [3, 7, 21, 25], [5, 11, 17, 31], [11, 13, 15, 17],
                  [11, 13, 25, 31], [13, 17, 31, 35]]),
]


def build(q, n, r, reps):
    """Code whose defining set is the closure of reps, over GF(q)."""
    ((p, e),) = factorize(q).items()
    ctx = make_field(p, e)
    rn = r * n
    t = 2
    while (q**t - 1) % rn:
        t += 1
    smap = SubfieldMap(ctx, make_field(p, e * t))
    root = nth_root_of_unity(smap.big, rn)
    g = generator_from_defining_set(closed_defining_set(rn, r, reps, q), root, smap)
    return make_code(ctx, n, 1 if r == 1 else ctx.neg(1), g)


def enum_reps(q, n, r, k):
    """Up to ENUM_PER_STRATUM representative sets giving dimension k.

    Enumeration time grows with the generator's weight (the nonzeros
    each codeword step adds), so all codes of a stratum share the most
    common weight among its candidates.
    """
    cosets = [c for c in all_cosets(q, r * n) if c[0] % r == 1 % r]
    by_weight = {}
    for size in range(1, len(cosets) + 1):
        for combo in itertools.combinations(cosets, size):
            if sum(map(len, combo)) == n - k:
                reps = [c[0] for c in combo]
                weight = sum(1 for c in build(q, n, r, reps).g.coeffs if c)
                by_weight.setdefault(weight, []).append(reps)
    found = max(by_weight.values(), key=len)
    random.Random(f"{q}:{n}:{r}:{k}").shuffle(found)
    return found[:ENUM_PER_STRATUM]


def query(q, n, r, reps):
    code = build(q, n, r, reps)
    d_h = min_hamming(code, n)
    d_p = min_pair(code, n)
    text = canonical_json({"d_H": d_h.to_json_dict(), "d_P": d_p.to_json_dict()})
    return {
        "q": q,
        "n": n,
        "lam": int(code.lam),
        "k": code.k,
        "generator": [int(c) for c in code.g.coeffs],
        "reps": reps,
        "d_H": d_h.value,
        "d_P": d_p.value,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def matrix_entry(family, q):
    cert = certify_family(family, q, workers=1)
    spec = get_spec(family)
    want = MATRIX_EXCEPTIONS.get(
        (family, q), ("MDS_CONFIRMED", spec.claimed_hamming(q), spec.claimed_pair_distance)
    )
    got = (cert.status, cert.d_H.value, cert.d_P.value)
    if got != want:
        raise SystemExit(f"{family} q={q}: got {got}, registry says {want}")
    text = canonical_json(cert.to_json_dict())
    return {
        "family": family,
        "q": q,
        "status": cert.status,
        "d_H": cert.d_H.value,
        "d_P": cert.d_P.value,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main():
    pool = {"matrix": [matrix_entry(f, q) for f, q in MATRIX], "enum": [], "deep_scan": []}
    for q, n, r, k in ENUM_STRATA:
        pool["enum"].append([query(q, n, r, reps) for reps in enum_reps(q, n, r, k)])
        print(f"enum q={q} n={n} r={r} k={k}: {len(pool['enum'][-1])} codes", flush=True)
    for (q, n, r), rep_sets in DEEP_STRATA:
        stratum = [query(q, n, r, reps) for reps in rep_sets]
        shapes = {(c["k"], c["d_H"], c["d_P"]) for c in stratum}
        if len(shapes) != 1:
            raise SystemExit(f"deep_scan q={q} n={n} r={r} mixes {sorted(shapes)}")
        pool["deep_scan"].append(stratum)
        print(f"deep_scan q={q} n={n} r={r} (k, d_H, d_P) = {shapes.pop()}", flush=True)
    (HERE / "pool.json").write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
