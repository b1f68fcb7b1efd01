"""Acceptance gate: every promised behavior, exact values, stated time caps.

One fixture certifies every family instance once (single worker); the
criteria then assert on the shared results so each wall-clock cap
covers exactly one pipeline run.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from paircodes.certify import canonical_json, certify_family, enumerate_shapes
from paircodes.cli import main
from paircodes.codes import (
    chen_consistent,
    min_hamming,
    min_pair,
    pair_distance,
    pair_weight,
)
from paircodes.cosets import bch_bound, hartmann_tzeng_bound
from paircodes.decompose import decompose, negacyclic_dual_generator, quartic_beta
from paircodes.families import build_family, subcode_check
from paircodes.poly import Poly

DP_INSTANCES = [
    ("dp7", 5), ("dp7", 9), ("dp7", 13), ("dp7", 17),
    ("dp8", 3), ("dp8", 7), ("dp8", 11), ("dp8", 19),
    ("dp9", 3), ("dp9", 5), ("dp9", 7), ("dp9", 9),
]
KAI_INSTANCES = [("kai_dp7", 7), ("kai_dp7", 11)]


@pytest.fixture(scope="module")
def certified():
    out = {}
    for fam, q in DP_INSTANCES + KAI_INSTANCES:
        t0 = time.perf_counter()
        cert = certify_family(fam, q, workers=1)
        out[(fam, q)] = (cert, time.perf_counter() - t0)
    return out


class TestCriterion1Dp7:
    @pytest.mark.parametrize("q", [5, 9, 13, 17])
    def test_confirmed_exact(self, certified, q):
        cert, _ = certified[("dp7", q)]
        assert cert.status == "MDS_CONFIRMED"
        assert (cert.n, cert.k) == (4 * q + 4, 4 * q - 1)
        assert cert.d_H.value == 4
        assert cert.d_P.value == 7

    def test_runtime_caps(self, certified):
        assert certified[("dp7", 5)][1] <= 5.0
        assert certified[("dp7", 13)][1] <= 60.0


class TestCriterion2Dp8:
    @pytest.mark.parametrize("q,dh", [(3, 6), (7, 4), (11, 4), (19, 4)])
    def test_confirmed_exact(self, certified, q, dh):
        cert, _ = certified[("dp8", q)]
        assert cert.status == "MDS_CONFIRMED"
        assert (cert.n, cert.k) == (4 * q - 4, 4 * q - 10)
        assert cert.d_H.value == dh
        assert cert.d_P.value == 8

    def test_runtime_cap(self, certified):
        assert certified[("dp8", 11)][1] <= 90.0


class TestCriterion3Dp9:
    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_confirmed_exact(self, certified, q):
        cert, elapsed = certified[("dp9", q)]
        assert cert.status == "MDS_CONFIRMED"
        assert (cert.n, cert.k) == (2 * q + 2, 2 * q - 5)
        assert cert.d_H.value == 6
        assert cert.d_P.value == 9
        assert elapsed <= 30.0

    def test_q3_flagged_as_discrepancy(self, certified):
        cert, _ = certified[("dp9", 3)]
        assert cert.status == "DISCREPANCY"
        assert cert.d_P.value == 8


class TestCriterion4EngineEquivalence:
    def test_small_instances_identified(self):
        small = [
            (fam, q)
            for fam, q in DP_INSTANCES
            if q ** build_family(fam, q).k <= 1 << 18
        ]
        assert small == [("dp8", 3), ("dp9", 3), ("dp9", 5)]

    @pytest.mark.parametrize("fam,q", [("dp8", 3), ("dp9", 3), ("dp9", 5)])
    def test_engines_agree(self, certified, fam, q):
        code = build_family(fam, q)
        rank_h = min_hamming(code, code.n, method="support_rank")
        enum_h = min_hamming(code, code.n, method="full_enumeration")
        rank_p = min_pair(code, code.n, method="support_rank")
        enum_p = min_pair(code, code.n, method="full_enumeration")
        assert rank_h.value == enum_h.value
        assert rank_p.value == enum_p.value
        cert, _ = certified[(fam, q)]
        assert cert.d_H.value == rank_h.value
        assert cert.d_P.value == rank_p.value


class TestCriterion5KaiAnchor:
    @pytest.mark.parametrize("q", [7, 11])
    def test_pair_distance_and_subcode(self, certified, q):
        cert, _ = certified[("kai_dp7", q)]
        assert cert.status == "MDS_CONFIRMED"
        assert cert.d_P.value == 7
        assert subcode_check(q) is True


class TestCriterion6DualGenerator:
    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_three_constructions_and_machine_dual_agree(self, q):
        code = build_family("dp9", q)
        ctx = code.ctx
        beta = quartic_beta(code.smap, code.root)
        b = negacyclic_dual_generator(code.smap, code.root)

        # recurrence b_k = beta*b_{k-2} - b_{k-4} from (1, 0, beta, 0)
        deg = q - 3
        coeffs = [0] * (deg + 1)
        coeffs[0] = 1
        if deg >= 2:
            coeffs[2] = beta
        for k in range(4, deg + 1):
            coeffs[k] = ctx.sub(ctx.mul(beta, coeffs[k - 2]), coeffs[k - 4])
        assert list(b.coeffs) == coeffs

        # polynomial division of x^{q+1} + 1 by the quartic
        n2 = q + 1
        numer = Poly(ctx, (1,) + (0,) * (n2 - 1) + (1,))
        quartic = Poly(ctx, (1, 0, ctx.neg(beta), 0, 1))
        quo, rem = divmod(numer, quartic)
        assert rem == Poly.zero(ctx)
        assert quo == b

        # the dual of the negacyclic half is generated by exactly b
        _, c2 = decompose(code)
        assert c2.dual().g == b


class TestCriterion7ExclusionSweep:
    @pytest.mark.parametrize(
        "fam,q",
        [(f, q) for f, q in DP_INSTANCES if (f, q) != ("dp9", 3)],
    )
    def test_every_shape_excluded(self, certified, fam, q):
        cert, _ = certified[(fam, q)]
        expected = len(enumerate_shapes(cert.n, cert.d_P.value - 1).shapes)
        assert cert.shapes_swept == expected > 0
        assert len(cert.exclusions) == expected
        assert all(not r.admissible for r in cert.exclusions)

    def test_dp9_q3_sweep_finds_the_counterexample(self, certified):
        cert, _ = certified[("dp9", 3)]
        hits = [r for r in cert.exclusions if r.admissible]
        assert [r.pattern.mask for r in hits] == [(1 << 8) - 1]


class TestCriterion8Bounds:
    def test_bound_chain_and_gain_biconditional(self, certified):
        for (fam, q), (cert, _) in certified.items():
            code = build_family(fam, q)
            bch = bch_bound(code.T)
            ht = hartmann_tzeng_bound(code.T)
            assert bch <= ht <= cert.d_H.value, (fam, q)
            assert chen_consistent(code, cert.d_H.value, cert.d_P.value), (fam, q)
            assert cert.lemma3_ok is True


class TestCriterion9MetricProperties:
    CASES_PER_LENGTH = 10_000

    def test_pair_weight_formula_and_shift_invariance(self, certified):
        lengths = sorted({cert.n for cert, _ in certified.values()})
        rng = np.random.default_rng(20260819)
        alphabet = (3, 5, 7, 9)
        for n in lengths:
            qs = rng.integers(0, len(alphabet), self.CASES_PER_LENGTH)
            shifts = rng.integers(0, n, self.CASES_PER_LENGTH)
            for i in range(self.CASES_PER_LENGTH):
                v = rng.integers(0, alphabet[qs[i]], n)
                got = pair_weight(v)
                support = set(np.flatnonzero(v).tolist())
                assert got == len(support | {(s - 1) % n for s in support})
                assert pair_weight(np.roll(v, int(shifts[i]))) == got

    def test_distance_gain_sandwich_on_certified_codes(self, certified):
        # the gain d_P >= d_H + 1 assumes d_H < n: a full-support
        # minimum word has equal weights, which is precisely the
        # flagged dp9 q=3 corner
        for (fam, q), (cert, _) in certified.items():
            dh, dp = cert.d_H.value, cert.d_P.value
            if cert.status == "MDS_CONFIRMED":
                assert dh + 1 <= dp <= 2 * dh, (fam, q)
            else:
                assert (fam, q) == ("dp9", 3)
                assert dh == dp == cert.n == 8

    def test_pi_expansion_contracts(self):
        rng = np.random.default_rng(77)
        for fam, q in (("dp9", 5), ("dp8", 7)):
            code = build_family(fam, q)
            for _ in range(1000):
                x = code.encode(rng.integers(0, q, code.k).astype(np.int32))
                y = code.encode(rng.integers(0, q, code.k).astype(np.int32))
                ex, ey = code.pi_expand(x), code.pi_expand(y)
                assert ex.shape == (code.n, 2)
                assert np.array_equal(ex[:, 0], x)
                assert np.array_equal(ex[:, 1], np.roll(x, -1))
                differing = int(np.count_nonzero((ex != ey).any(axis=1)))
                assert differing == pair_distance(code.ctx, x, y)


# sha256 of each member's canonical certificate JSON.  The twelve
# acceptance-matrix members are the hashes recorded in certbench/pool.json;
# dp7 q=17 and dp8 q=19 were computed with the composition-based support
# enumeration that the gap-sequence generator replaced.  A change in scan
# order, scan digest or schema shows up here.
CERT_SHA256 = {
    ("dp7", 5): "73f231fe3894577fcae8b99c5098eb340def9e26d42539eda3f09e7e479b7309",
    ("dp7", 9): "b2ee6ef88f04f58606d7b971be0dfb4c2d731c2e336f04bfd689c13367cf3554",
    ("dp7", 13): "77f6c924664db4e32085347a0ccabe2d4c32f1642768042a7ce95684939ebd37",
    ("dp7", 17): "2f4d7b6adb089d306eee234cb99cd632ae3beaf395baa84f7b3346bd2b668390",
    ("dp8", 3): "3682aed70c6db391ed3dee2479ca8b032cbcffc8a71a9226746cc2e0edfc3fa8",
    ("dp8", 7): "316bc5552c5d34723af690dfa7722e803e0f6c3243600f28a8d5c96a193574c7",
    ("dp8", 11): "c0db4cdb979a39ecdee90910ba291f56e50866029f466db60ed5f45c09e13874",
    ("dp8", 19): "fae4f785dc8437708a044cc93a2e2de66d937f4032dacd805dc5a768ac3f0854",
    ("dp9", 3): "4de0fef4b7b953afe4f52a8fb8c2d38160c8306fb5e073e698d24e876517e864",
    ("dp9", 5): "a973afc41ed409b333e277551d98ea448549a052d1ac6fcf4bd050c3ad5d4d0f",
    ("dp9", 7): "6403ee090c950557361268157020b6e1bb0140bdfcf92e9866d49a0bf790b967",
    ("dp9", 9): "c78e917ac934005386d3193770e3424b2ce0656641f24863acb97106164c3793",
    ("kai_dp7", 7): "bf4423e585672eb6bf9978c6a68624c7fccf8dccf9c1e8989c1641f3a1afc5a6",
    ("kai_dp7", 11): "e2e60ebf03cbe28221252db405de2ac3002aa8b1d051a525c4aedfaaeca2dc38",
}


class TestCriterion10Determinism:
    @pytest.mark.parametrize("fam,q", DP_INSTANCES + KAI_INSTANCES)
    def test_certificate_bytes_pinned(self, certified, fam, q):
        cert, _ = certified[(fam, q)]
        text = canonical_json(cert.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[(fam, q)]

    @pytest.mark.parametrize("fam,q", [("dp7", 5), ("dp8", 3), ("dp9", 3), ("dp9", 5)])
    def test_repeated_runs_byte_identical(self, certified, fam, q, tmp_path):
        argv = lambda path: [
            "certify", "--family", fam, "--q", str(q),
            "--format", "json", "--out", str(path),
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(argv(first))
        main(argv(second))
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        cert, _ = certified[(fam, q)]
        assert blob.decode() == canonical_json(cert.to_json_dict())

    def test_fresh_interpreter_writes_the_same_bytes(self, tmp_path, src_env):
        # a new process has its own hash seed, so any set or dict order
        # leaking into the scan or the JSON would show up here
        target = tmp_path / "fresh.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "paircodes", "certify",
                "--family", "dp8", "--q", "3",
                "--format", "json", "--out", str(target),
            ],
            capture_output=True, text=True, timeout=300, env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        cert = certify_family("dp8", 3)
        assert target.read_text() == canonical_json(cert.to_json_dict())
