"""Cyclotomic cosets, minimal polynomials, defining sets, distance bounds."""

import math

import numpy as np
import pytest

from paircodes.cosets import (
    DefiningSet,
    all_cosets,
    bch_bound,
    coset,
    defining_set_from_generator,
    generator_from_defining_set,
    hartmann_tzeng_bound,
    minimal_polynomial,
)
from paircodes.field import make_field, make_tower, nth_root_of_unity
from paircodes.poly import Poly


def brute_ht(members, n):
    """Independent Hartmann-Tzeng search oracle over plain sets."""
    T = set(members)
    best = 1
    for delta in range(2, n + 2):
        for b in range(1, n):
            if math.gcd(b, n) >= delta:
                continue
            for c in range(n):
                window = {(c + j) % n for j in range(delta - 1)}
                if not window <= T:
                    continue
                s = 0
                while s < n and {(w + (s + 1) * b) % n for w in window} <= T:
                    s += 1
                best = max(best, delta + s)
    return best


class TestCosets:
    def test_fixed_point_zero(self):
        assert coset(0, 5, 24) == (0,)

    def test_negative_representative(self):
        assert coset(-1, 3, 8) == (5, 7)

    def test_hand_orbit(self):
        assert coset(2, 5, 12) == (2, 10)

    def test_partition(self):
        for q, rn in [(5, 24), (3, 8), (7, 24), (9, 20)]:
            seen = []
            for c in all_cosets(q, rn):
                seen.extend(c)
            assert sorted(seen) == list(range(rn))

    def test_closed_under_multiplication_by_q(self):
        c = set(coset(1, 7, 24))
        assert {(7 * x) % 24 for x in c} == c

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            coset(1, 3, 9)


class TestMinimalPolynomial:
    def test_element_one(self):
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 12)
        m0 = minimal_polynomial(t, xi, 0, 12)
        assert m0 == Poly(t.small, [4, 1])  # x - 1

    def test_degree_matches_coset_size(self):
        t = make_tower(3, 1)
        xi = nth_root_of_unity(t.big, 8)
        total = Poly.one(t.small)
        for i in (-1, 0, 1, 2):
            total = total * minimal_polynomial(t, xi, i, 8)
        assert total.degree == 7

    def test_quadratic_factor_oracle(self):
        # q=5, n=12, i=1: (x - xi)(x - xi^5) expanded in GF(25) then coerced
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 12)
        big = t.big
        prod = Poly.from_roots(big, [xi, big.pow(xi, 5)])
        expect = Poly(t.small, [t.to_subfield(c) for c in prod.coeffs])
        got = minimal_polynomial(t, xi, 1, 12)
        assert got == expect
        assert got.degree == 2
        assert got.lc() == 1

    def test_divides_xn_minus_one(self):
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 12)
        xn1 = Poly.xn_minus_lambda(t.small, 12, 1)
        for i in range(12):
            assert minimal_polynomial(t, xi, i, 12).divides(xn1)

    def test_product_over_all_cosets_is_xn_minus_one(self):
        for p, m, n in [(5, 1, 12), (3, 1, 8), (7, 1, 24)]:
            t = make_tower(p, m)
            xi = nth_root_of_unity(t.big, n)
            total = Poly.one(t.small)
            for c in all_cosets(t.small.q, n):
                total = total * minimal_polynomial(t, xi, c[0], n)
            assert total == Poly.xn_minus_lambda(t.small, n, 1)

    def test_wrong_order_rejected(self):
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 12)
        with pytest.raises(ValueError):
            minimal_polynomial(t, xi, 1, 24)


class TestDefiningSet:
    def setup_method(self):
        self.t = make_tower(5, 1)
        self.xi = nth_root_of_unity(self.t.big, 24)

    def dp7_generator(self):
        big = self.t.big
        exps = [0, 12, 1, 5, 6]
        prod = Poly.from_roots(big, [big.pow(self.xi, e) for e in exps])
        return Poly(self.t.small, [self.t.to_subfield(c) for c in prod.coeffs])

    def test_dp7_defining_set(self):
        g = self.dp7_generator()
        ds = defining_set_from_generator(g, self.xi, 24, 1, self.t)
        assert ds.exponents == (0, 1, 5, 6, 12)
        assert ds.r == 1 and ds.rn == 24

    def test_round_trip(self):
        g = self.dp7_generator()
        ds = defining_set_from_generator(g, self.xi, 24, 1, self.t)
        assert generator_from_defining_set(ds, self.xi, self.t) == g

    def test_full_set_for_zero_code(self):
        g = Poly.xn_minus_lambda(self.t.small, 24, 1)
        ds = defining_set_from_generator(g, self.xi, 24, 1, self.t)
        assert ds.exponents == tuple(range(24))

    def test_non_divisor_rejected(self):
        # (x+1)^2 has a repeated root, x^24 - 1 is squarefree
        with pytest.raises(ValueError):
            defining_set_from_generator(Poly(self.t.small, [1, 2, 1]), self.xi, 24, 1, self.t)

    def test_negacyclic_defining_set(self):
        # length 6, lam = -1 over GF(5); alpha is a primitive 12th root
        t = self.t
        alpha = nth_root_of_unity(t.big, 12)
        big = t.big
        prod = Poly.from_roots(
            big, [big.pow(alpha, e) for e in (1, 5, 7, 11)]
        )
        g2 = Poly(t.small, [t.to_subfield(c) for c in prod.coeffs])
        assert g2 == Poly(t.small, [1, 0, 4, 0, 1])  # x^4 - x^2 + 1
        ds = defining_set_from_generator(g2, alpha, 6, 2, t)
        assert ds.exponents == (1, 5, 7, 11)
        assert ds.r == 2 and ds.rn == 12
        assert generator_from_defining_set(ds, alpha, t) == g2

    def test_membership_validation(self):
        with pytest.raises(ValueError):
            DefiningSet(rn=12, r=2, exponents=[2, 4])  # even residues not in Omega
        with pytest.raises(ValueError):
            DefiningSet(rn=12, r=1, exponents=[1], q=5)  # not closed under *5

    def test_serialization(self):
        ds = DefiningSet(rn=12, r=2, exponents=[1, 5, 7, 11])
        assert ds.serialize() == {"modulus": 12, "r": 2, "exponents": [1, 5, 7, 11]}


class TestBounds:
    def test_bch_empty(self):
        assert bch_bound(DefiningSet(rn=24, r=1, exponents=[])) == 1

    def test_bch_dp9_run(self):
        # q=5 instance: T contains the run {10, 11, 0, 1, 2}
        ds = DefiningSet(rn=12, r=1, exponents=[0, 1, 2, 5, 7, 10, 11])
        assert bch_bound(ds) == 6

    def test_bch_dp8_run(self):
        ds = DefiningSet(rn=24, r=1, exponents=[0, 1, 2, 7, 12, 14])
        assert bch_bound(ds) == 4

    def test_bch_full_set(self):
        ds = DefiningSet(rn=8, r=1, exponents=list(range(8)))
        assert bch_bound(ds) == 9

    def test_bch_negacyclic_strided(self):
        # exponents {1,5,7,11} mod 12 with stride 2 -> i-space {0,2,3,5} mod 6
        ds = DefiningSet(rn=12, r=2, exponents=[1, 5, 7, 11])
        assert bch_bound(ds) == 3

    def test_ht_dp7_q5(self):
        members = (0, 1, 5, 6, 12)
        ds = DefiningSet(rn=24, r=1, exponents=members)
        assert hartmann_tzeng_bound(ds) == 4
        assert hartmann_tzeng_bound(ds) == brute_ht(members, 24)

    def test_ht_matches_brute_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            size = int(rng.integers(0, n))
            members = sorted(map(int, rng.choice(n, size=size, replace=False)))
            ds = DefiningSet(rn=n, r=1, exponents=members)
            assert hartmann_tzeng_bound(ds) == brute_ht(members, n)

    def test_ht_at_least_bch(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            size = int(rng.integers(0, n + 1))
            members = sorted(map(int, rng.choice(n, size=size, replace=False)))
            ds = DefiningSet(rn=n, r=1, exponents=members)
            assert hartmann_tzeng_bound(ds) >= bch_bound(ds)

    def test_ht_requires_cyclic(self):
        ds = DefiningSet(rn=12, r=2, exponents=[1, 5, 7, 11])
        with pytest.raises(ValueError):
            hartmann_tzeng_bound(ds)


class TestCertificationErrors:
    def test_root_count_check_survives_optimize(self, run_optimized):
        # roots found must match the generator's degree, -O or not
        script = """
            from paircodes import cosets
            from paircodes.errors import CertificationError
            from paircodes.families import build_family

            code = build_family("dp9", 5)
            cosets.eval_embedded = lambda *args: 1
            print("debug", __debug__)
            try:
                cosets.defining_set_from_generator(code.g, code.root, code.n, code.r, code.smap)
            except CertificationError as e:
                print("raised", e)
        """
        assert run_optimized(script) == ["debug False", "raised root count mismatch"]
