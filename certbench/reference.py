"""A fixed reference loop that tracks how fast the host runs right now.

On a shared host the speed of one core drifts: a pure-Python loop was
measured taking from 0.26 to 0.41 s on a 2-vCPU x86_64 host, with
slow and fast spells lasting from seconds to minutes.  Raw wall times
of the same code then differ by up to 40% between runs a few minutes
apart, which no median within one run can remove.

run.py times this loop just before and just after every measured
operation and reports the operation's time scaled to the reference
speed:

    scaled = wall * REF_S / mean(reference before, reference after)

The loop is benchmark code, so no change to paircodes can move it: a
change that makes the program slower or faster moves the scaled time by
the same factor as its wall time.  The loop is built like the pure
kernels it stands next to: Python loops that index small int32 numpy
arrays, here a Gaussian elimination over GF(7).
"""

import random
import time

import numpy as np

# A typical time of one reference() call on the host the baseline was
# recorded on (2 vCPUs x86_64, Python 3.11.7, numpy 2.4.6), whose
# median moved between 0.0135 and 0.0225 s from one spell to another;
# scaled times read in seconds of that host at this speed.
REF_S = 0.018

P = 7
_INV = np.array([0] + [pow(a, P - 2, P) for a in range(1, P)], dtype=np.int32)
_RNG = random.Random(20250326)
_MATS = [
    np.array([[_RNG.randrange(P) for _ in range(10)] for _ in range(8)], dtype=np.int32)
    for _ in range(6)
]
_REPS = 16


def _rank(mat):
    """Rank of mat over GF(P).  Destroys mat."""
    m, ncols = mat.shape
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        piv = -1
        for r in range(rank, m):
            if mat[r, col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            for c in range(col, ncols):
                mat[rank, c], mat[piv, c] = mat[piv, c], mat[rank, c]
        inv = _INV[mat[rank, col]]
        for c in range(col, ncols):
            mat[rank, c] = (mat[rank, c] * inv) % P
        for r in range(rank + 1, m):
            f = mat[r, col]
            if f == 0:
                continue
            for c in range(col, ncols):
                mat[r, c] = (mat[r, c] - f * mat[rank, c]) % P
        rank += 1
    return rank


_WANT = [_rank(m.copy()) for m in _MATS]


def reference():
    """Wall seconds of one fixed amount of reference work."""
    t0 = time.perf_counter()
    got = [_rank(m.copy()) for _ in range(_REPS) for m in _MATS]
    dt = time.perf_counter() - t0
    if got != _WANT * _REPS:
        raise RuntimeError("reference loop computed a wrong rank")
    return dt


def scale(wall, before, after):
    """``wall`` seconds, measured between two reference() times, at reference speed."""
    return wall * REF_S * 2 / (before + after)
