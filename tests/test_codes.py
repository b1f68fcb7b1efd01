"""Constacyclic code construction and the two distance engines.

The oracle is polynomial arithmetic plus brute enumeration: membership is
divisibility by the generator, distances come from walking every nonzero
codeword with itertools.  Engines must reproduce the oracle exactly.
"""

import hashlib
import subprocess
import sys
import textwrap
import time
from itertools import product

import numpy as np
import pytest

from paircodes import codes
from paircodes.codes import (
    BudgetExceededError,
    CertificationError,
    chen_consistent,
    hamming_weight,
    make_code,
    min_hamming,
    min_pair,
    null_space,
    pair_weight,
    rational_null_basis,
    rref,
    singleton_check,
)
from paircodes.cosets import bch_bound, closed_defining_set, generator_from_defining_set
from paircodes.field import make_field, make_tower, nth_root_of_unity
from paircodes.patterns import canonical_supports_by_pw
from paircodes.poly import Poly


def brute_distances(code):
    """(d_H, d_P) by walking all q^k - 1 nonzero codewords."""
    ctx, k, n = code.ctx, code.k, code.n
    rows = code.generator_matrix()
    best_h = best_p = None
    for msg in product(range(ctx.q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for j, m in enumerate(msg):
            if m:
                for i in range(n):
                    word[i] = ctx.add(word[i], ctx.mul(m, int(rows[j, i])))
        wh = sum(1 for v in word if v)
        wp = sum(1 for i in range(n) if word[i] or word[(i + 1) % n])
        best_h = wh if best_h is None else min(best_h, wh)
        best_p = wp if best_p is None else min(best_p, wp)
    return best_h, best_p


def gf3_n8_code():
    """Cyclic [8,2] over GF(3), defining exponents {0,1,2,3,4,6}."""
    ctx = make_field(3, 1)
    smap = make_tower(3, 1)
    xi = nth_root_of_unity(smap.big, 8)
    ds = closed_defining_set(8, 1, [0, 1, 2, 4], 3)
    g = generator_from_defining_set(ds, xi, smap)
    return make_code(ctx, 8, 1, g)


def gf5_negacyclic():
    """Negacyclic [6,2] over GF(5) with generator x^4 - x^2 + 1."""
    ctx = make_field(5, 1)
    return make_code(ctx, 6, ctx.neg(1), Poly(ctx, (1, 0, 4, 0, 1)))


class TestConstruction:
    def test_gf3_n8(self):
        code = gf3_n8_code()
        assert (code.n, code.k, code.r) == (8, 2, 1)
        assert sorted(code.T.exponents) == [0, 1, 2, 3, 4, 6]
        assert code.smap.big.order(code.root) == 8
        assert code.g * code.h == Poly.xn_minus_lambda(code.ctx, 8, 1)

    def test_negacyclic(self):
        code = gf5_negacyclic()
        assert (code.n, code.k, code.r) == (6, 2, 2)
        assert sorted(code.T.exponents) == [1, 5, 7, 11]
        big = code.smap.big
        assert big.order(code.root) == 12
        assert big.pow(code.root, 6) == code.smap.embed(4)

    def test_rejects_non_divisor(self):
        ctx = make_field(3, 1)
        with pytest.raises(ValueError):
            make_code(ctx, 8, 1, Poly(ctx, (1, 1, 1)))  # x^2+x+1 splits mod x^8-1? no

    def test_rejects_bad_length(self):
        ctx = make_field(3, 1)
        with pytest.raises(ValueError):
            make_code(ctx, 9, 1, Poly(ctx, (2, 1)))  # p divides n

    def test_rejects_zero_shift_constant(self):
        ctx = make_field(3, 1)
        with pytest.raises(ValueError):
            make_code(ctx, 8, 0, Poly(ctx, (2, 1)))

    def test_rejects_zero_dimension(self):
        ctx = make_field(3, 1)
        with pytest.raises(ValueError):
            make_code(ctx, 8, 1, Poly.xn_minus_lambda(ctx, 8, 1))

    def test_rejects_non_monic(self):
        ctx = make_field(3, 1)
        g = Poly(ctx, (2, 2))  # 2(x+1), divides x^8-1 only after scaling
        with pytest.raises(ValueError):
            make_code(ctx, 8, 1, g)


class TestCodewordOps:
    def test_encode_contains(self):
        code = gf3_n8_code()
        rng = np.random.default_rng(3)
        for _ in range(20):
            msg = rng.integers(0, 3, size=code.k)
            word = code.encode(msg)
            assert code.contains(word)
        # single-coordinate flips leave the code (distance is > 1)
        word = code.encode([1, 2])
        bumped = word.copy()
        bumped[3] = code.ctx.add(int(bumped[3]), 1)
        assert not code.contains(bumped)

    def test_shift_stays_in_code(self):
        for code in (gf3_n8_code(), gf5_negacyclic()):
            rng = np.random.default_rng(5)
            msg = rng.integers(0, code.ctx.q, size=code.k)
            word = code.encode(msg)
            shifted = code.shift(word)
            assert code.contains(shifted)
            # shift = multiply by x in the ambient quotient ring
            via_ring = code.ring.reduce(Poly(code.ctx, (0,) + tuple(int(v) for v in word)))
            assert shifted.tolist() == list(via_ring.coeffs) + [0] * (code.n - len(via_ring.coeffs))

    def test_generator_matrix(self):
        code = gf3_n8_code()
        mat = code.generator_matrix()
        assert mat.shape == (2, 8)
        for row in mat:
            assert code.contains(row)
        from paircodes import kernels

        ctx = code.ctx
        assert (
            kernels.gf_rank(mat.astype(np.int32).copy(), ctx.add_table, ctx.neg_table, ctx.log, ctx.exp)
            == code.k
        )

    def test_weights(self):
        vec = np.array([0, 1, 0, 0, 2, 2, 0, 0], dtype=np.int32)
        assert hamming_weight(vec) == 3
        # support {1,4,5}: pairs add positions 0 and 3
        assert pair_weight(vec) == 5

    def test_pi_expand(self):
        code = gf5_negacyclic()
        vec = np.array([1, 0, 2, 0, 0, 3], dtype=np.int32)
        pairs = code.pi_expand(vec)
        assert pairs.shape == (6, 2)
        assert pairs[0].tolist() == [1, 0]
        assert pairs[5].tolist() == [3, 1]


class TestDual:
    def test_gf3_dual(self):
        code = gf3_n8_code()
        dual = code.dual()
        assert dual.k == 6
        assert dual.lam == 1
        gm, dm = code.generator_matrix(), dual.generator_matrix()
        ctx = code.ctx
        for u in gm:
            for v in dm:
                acc = 0
                for a, b in zip(u, v):
                    acc = ctx.add(acc, ctx.mul(int(a), int(b)))
                assert acc == 0
        assert dual.dual().g == code.g

    def test_negacyclic_dual_generator(self):
        code = gf5_negacyclic()
        dual = code.dual()
        assert dual.lam == code.ctx.neg(1)  # inverse of -1 is -1
        assert dual.g == Poly(code.ctx, (1, 0, 1))  # x^2 + 1
        assert dual.dual().g == code.g


class TestEngines:
    def test_gf3_n8_both_engines(self):
        code = gf3_n8_code()
        want_h, want_p = brute_distances(code)
        assert (want_h, want_p) == (6, 8)
        for method in ("support_rank", "full_enumeration"):
            ch = min_hamming(code, 8, method=method)
            cp = min_pair(code, 8, method=method)
            assert ch.value == 6 and cp.value == 8
            assert ch.method == method and cp.method == method
            wh = np.array(ch.witness, dtype=np.int32)
            wp = np.array(cp.witness, dtype=np.int32)
            assert code.contains(wh) and hamming_weight(wh) == 6
            assert code.contains(wp) and pair_weight(wp) == 8

    def test_negacyclic_both_engines(self):
        code = gf5_negacyclic()
        want_h, want_p = brute_distances(code)
        for method in ("support_rank", "full_enumeration"):
            assert min_hamming(code, 6, method=method).value == want_h
            assert min_pair(code, 6, method=method).value == want_p

    def test_gf5_n12_oracle(self):
        # defining exponents {0,2,4,6,8,9,10} -> k = 5, 3125 words
        ctx = make_field(5, 1)
        smap = make_tower(5, 1)
        xi = nth_root_of_unity(smap.big, 12)
        ds = closed_defining_set(12, 1, [0, 2, 4, 6, 9], 5)
        g = generator_from_defining_set(ds, xi, smap)
        code = make_code(ctx, 12, 1, g)
        assert code.k == 5
        want_h, want_p = brute_distances(code)
        ch_s = min_hamming(code, 12, method="support_rank")
        cp_s = min_pair(code, 12, method="support_rank")
        ch_f = min_hamming(code, 12, method="full_enumeration")
        cp_f = min_pair(code, 12, method="full_enumeration")
        assert ch_s.value == ch_f.value == want_h
        assert cp_s.value == cp_f.value == want_p

    def test_auto_selects_engine(self):
        small = gf3_n8_code()  # 3^2 words
        assert min_hamming(small, 8).method == "full_enumeration"
        big = dp7_like_q5()  # 5^19 words
        assert min_hamming(big, 2, method="auto").method == "support_rank"

    def test_not_found_is_lower_bound(self):
        code = gf3_n8_code()
        cert = min_hamming(code, 5, method="support_rank")
        assert cert.value is None
        assert cert.witness is None
        assert cert.search_bound == 5
        cert_p = min_pair(code, 7, method="support_rank")
        assert cert_p.value is None and cert_p.search_bound == 7

    def test_witness_support_is_exact_at_hit(self):
        code = gf3_n8_code()
        cert = min_hamming(code, 6, method="support_rank")
        assert cert.search_bound == 6
        assert hamming_weight(np.array(cert.witness)) == 6

    def test_full_enumeration_guard(self):
        with pytest.raises(ValueError):
            min_hamming(dp7_like_q5(), 4, method="full_enumeration")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            min_hamming(gf3_n8_code(), 4, method="smart")

    def test_deadline(self):
        code = dp7_like_q5()
        with pytest.raises(BudgetExceededError):
            min_hamming(code, 4, method="support_rank", deadline=time.monotonic() - 1.0)

    def test_digest_stability(self):
        code = gf3_n8_code()
        a = min_hamming(code, 6, method="support_rank")
        b = min_hamming(code, 6, method="support_rank")
        assert a.scanned_digest == b.scanned_digest
        assert len(a.scanned_digest) == 64
        int(a.scanned_digest, 16)

    def test_certificate_shape(self):
        cert = min_hamming(gf3_n8_code(), 6, method="support_rank")
        d = cert.to_json_dict()
        assert set(d) == {
            "kind",
            "value",
            "method",
            "search_bound",
            "witness",
            "scanned_digest",
            "elapsed_ms",
        }
        assert d["kind"] == "hamming"
        assert d["elapsed_ms"] is None
        assert cert.elapsed_ms is not None and cert.elapsed_ms >= 0
        timed = cert.to_json_dict(include_timing=True)
        assert timed["elapsed_ms"] == cert.elapsed_ms

    def test_whole_space_code(self):
        ctx = make_field(3, 1)
        code = make_code(ctx, 8, 1, Poly.one(ctx))
        assert code.k == 8
        cert = min_hamming(code, 8, method="support_rank")
        assert cert.value == 1
        assert hamming_weight(np.array(cert.witness)) == 1


def dp7_like_q5():
    """[24,19] cyclic over GF(5): exponents {0,12} u C(1) u C(6)."""
    ctx = make_field(5, 1)
    smap = make_tower(5, 1)
    xi = nth_root_of_unity(smap.big, 24)
    ds = closed_defining_set(24, 1, [0, 12, 1, 6], 5)
    g = generator_from_defining_set(ds, xi, smap)
    code = make_code(ctx, 24, 1, g)
    assert code.k == 19
    return code


class TestNullBasis:
    def test_basis_spans_code_on_support(self):
        code = gf3_n8_code()
        cert = min_hamming(code, 6, method="support_rank")
        positions = [i for i, v in enumerate(cert.witness) if v]
        basis = rational_null_basis(code, positions)
        assert basis.shape[0] >= 1
        for row in basis:
            word = np.zeros(code.n, dtype=np.int32)
            word[positions] = row
            assert code.contains(word)

    def test_inadmissible_support_has_empty_basis(self):
        code = gf3_n8_code()
        basis = rational_null_basis(code, [0, 1])  # d_H = 6, so size 2 carries nothing
        assert basis.shape == (0, 2)


class TestCheckMatrix:
    """H over GF(q) has n - k independent rows orthogonal to every codeword."""

    @pytest.mark.parametrize(
        "make", [gf3_n8_code, gf5_negacyclic, dp7_like_q5], ids=["cyclic", "negacyclic", "dp7_like"]
    )
    def test_kernel_is_the_code(self, make):
        code = make()
        ctx, H, G = code.ctx, code.check_matrix(), code.generator_matrix()
        assert H.shape == (code.n - code.k, code.n)
        for h in H:
            for g in G:
                acc = 0
                for a, b in zip(h, g):
                    acc = ctx.add(acc, ctx.mul(int(a), int(b)))
                assert acc == 0
        rows, _ = rref(ctx, H)
        assert len(rows) == code.n - code.k

    def test_no_rows_for_the_whole_space(self):
        ctx = make_field(3, 1)
        code = make_code(ctx, 8, 1, Poly.one(ctx))
        assert code.check_matrix().shape == (0, 8)


class TestBoundsChecks:
    def test_singleton(self):
        code = gf3_n8_code()
        assert singleton_check(code, 8) == (True, 0)
        assert singleton_check(code, 7) == (False, 1)

    def test_chen(self):
        code = gf3_n8_code()
        assert chen_consistent(code, 6, 8)
        ctx = make_field(3, 1)
        whole = make_code(ctx, 8, 1, Poly.one(ctx))
        assert chen_consistent(whole, 1, 2)


class TestLengthPast63Bits:
    """Supports are Python ints, so a length-80 code scans like any other."""

    @staticmethod
    def gf9_n80_code():
        ctx = make_field(3, 2)
        smap = make_tower(3, 2)
        root = nth_root_of_unity(smap.big, 80)
        ds = closed_defining_set(80, 1, [0, 1, 2], 9)
        return make_code(ctx, 80, 1, generator_from_defining_set(ds, root, smap), root=root), ds

    def test_min_hamming_meets_bch(self):
        code, ds = self.gf9_n80_code()
        cert = min_hamming(code, 5, method="support_rank")
        # the witness bounds d_H from above, the BCH bound from below
        assert cert.value == bch_bound(ds) == 4
        assert code.contains(np.array(cert.witness))
        assert hamming_weight(cert.witness) == 4

    def test_min_pair_against_per_support_null_spaces(self):
        code, _ = self.gf9_n80_code()
        cert = min_pair(code, 7, method="support_rank")
        assert cert.value == 6
        assert code.contains(np.array(cert.witness))
        assert pair_weight(cert.witness) == 6
        # no support of smaller pair weight carries a codeword
        big, cols = code.smap.big, code.root_power_matrix()
        for pw in range(2, 6):
            for mask in canonical_supports_by_pw(code.n, pw):
                pos = [i for i in range(code.n) if mask >> i & 1]
                assert not null_space(big, cols[:, pos].tolist(), len(pos))


class TestCertificationErrors:
    def test_lost_null_space_raises(self, monkeypatch):
        code = dp7_like_q5()
        monkeypatch.setattr(
            codes, "rational_null_basis", lambda code, positions: np.zeros((0, len(positions)))
        )
        with pytest.raises(CertificationError, match="lost its null space"):
            min_hamming(code, 4, method="support_rank")

    def test_corrupted_witness_raises_under_optimize(self, src_env):
        # asserts vanish under -O; the witness check must not
        script = textwrap.dedent(
            """
            from paircodes import codes
            from paircodes.families import build_family

            real = codes.rational_null_basis

            def corrupted(code, positions):
                basis = real(code, positions).copy()
                basis[0, 0] = (basis[0, 0] + 1) % code.ctx.q
                return basis

            codes.rational_null_basis = corrupted
            print("debug", __debug__)
            try:
                codes.min_hamming(build_family("dp9", 5), 8, method="support_rank")
            except codes.CertificationError as e:
                print("raised", e)
            """
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env=src_env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "debug False",
            "raised descended null vector left the code",
        ]
