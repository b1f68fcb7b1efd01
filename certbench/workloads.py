"""The benchmark's workloads: items built from a seed, and their checks.

An item is one user operation.  ``matrix`` items certify one family
member, as ``paircodes certify`` does; ``enum`` and ``deep_scan`` items
answer a ``distance --pair`` query on a code given by its generator.
Expected outputs come from ``pool.json``, written by ``record.py`` at
the commit that defined the benchmark.  The seed only chooses among
recorded inputs, so every input has a known answer.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from paircodes import certify, codes
from paircodes.field import factorize, make_field
from paircodes.poly import Poly

POOL = json.loads((Path(__file__).with_name("pool.json")).read_text())

WORKLOADS = ("matrix", "enum", "deep_scan")

# item_ms.tail reads a fixed percentile per workload, so that a faster
# program, which fits more passes into a run, is measured at the same
# point.  A pass holds one item per member or stratum, and latencies
# pool into one band per item; each percentile sits near the middle of
# a band, so it does not jump between bands from run to run, and it
# leaves at least ten samples beyond it in a baseline run.
TAIL_PCT = {"matrix": 87, "enum": 56, "deep_scan": 58}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _witness_ok(code, cert, weight):
    w = cert.witness
    return w is not None and code.contains(np.array(w, dtype=np.int32)) and weight(w) == cert.value


def _hamming(w):
    return int(np.count_nonzero(w))


def _pair(w):
    nz = np.asarray(w) != 0
    return int(np.count_nonzero(nz | np.roll(nz, -1)))


class Item:
    """One user operation; ``prepare`` builds the code its checks read."""

    def prepare(self):
        self.code = self.build()


class MatrixItem(Item):
    """Certify one acceptance-matrix member and serialize the certificate."""

    def __init__(self, spec):
        self.spec = spec
        self.label = f"{spec['family']} q={spec['q']}"

    def build(self):
        return certify.build_family(self.spec["family"], self.spec["q"])

    def run(self):
        cert = certify.certify_family(self.spec["family"], self.spec["q"], workers=1)
        return cert, certify.canonical_json(cert.to_json_dict())

    def check(self, out):
        """(outputs correct, canonical bytes as recorded)."""
        cert, text = out
        code = self.code
        want = self.spec
        ok = (
            cert.status == want["status"]
            and cert.d_H.value == want["d_H"]
            and cert.d_P.value == want["d_P"]
            and _witness_ok(code, cert.d_H, _hamming)
            and _witness_ok(code, cert.d_P, _pair)
        )
        return ok, _sha(text) == want["sha256"]


class QueryItem(Item):
    """Exact d_H then exact d_P of one code, engine chosen by ``auto``."""

    def __init__(self, spec):
        self.spec = spec
        kind = "cyclic" if spec["lam"] == 1 else f"lam={spec['lam']}"
        self.label = f"q={spec['q']} n={spec['n']} k={spec['k']} {kind} d={spec['d_H']}/{spec['d_P']}"

    def build(self):
        s = self.spec
        ((p, e),) = factorize(s["q"]).items()
        ctx = make_field(p, e)
        return codes.make_code(ctx, s["n"], s["lam"], Poly(ctx, s["generator"]))

    def run(self):
        code = self.build()
        d_h = codes.min_hamming(code, code.n)
        d_p = codes.min_pair(code, code.n)
        payload = {"d_H": d_h.to_json_dict(), "d_P": d_p.to_json_dict()}
        return d_h, d_p, certify.canonical_json(payload)

    def check(self, out):
        d_h, d_p, text = out
        code = self.code
        want = self.spec
        ok = (
            d_h.value == want["d_H"]
            and d_p.value == want["d_P"]
            and _witness_ok(code, d_h, _hamming)
            and _witness_ok(code, d_p, _pair)
        )
        return ok, _sha(text) == want["sha256"]


def make_items(workload, seed):
    """The workload's items for this seed, in the order a pass runs them.

    matrix always holds the same twelve members; the seed orders them.
    enum and deep_scan draw one recorded code from each stratum, so
    that the codes depend on the seed while the work in a pass hardly
    does: an enum stratum shares (q, n, shift, k), which fixes the
    codewords enumerated, and a deep_scan stratum also shares d_H and
    d_P, which fix the support levels scanned.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "matrix":
        items = [MatrixItem(spec) for spec in POOL["matrix"]]
    else:
        items = [QueryItem(rng.choice(stratum)) for stratum in POOL[workload]]
    rng.shuffle(items)
    return items
