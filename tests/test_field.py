"""Field construction and arithmetic tests.

Expected values for the small fields were derived by hand or by the
in-file oracles (direct polynomial arithmetic over GF(p)) before the
module was written, and are frozen here.
"""

import math

import numpy as np
import pytest

from paircodes.field import (
    FieldCtx,
    SubfieldMap,
    factorize,
    is_prime,
    make_field,
    make_tower,
    nth_root_of_unity,
    primitive_nth_roots,
)


# direct polynomial arithmetic over GF(p), used as an oracle only
def poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    m = len(mod) - 1
    for i in range(len(out) - 1, m - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(m):
                out[i - m + j] = (out[i - m + j] - c * mod[j]) % p
    out = out[:m] + [0] * (m - len(out))
    return out[:m]


def idx_to_digits(idx, p, m):
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return out


def digits_to_idx(ds, p):
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


class TestMakeField:
    def test_prime_field_matches_integers_mod_p(self):
        f = make_field(5, 1)
        for a in range(5):
            for b in range(5):
                assert f.add(a, b) == (a + b) % 5
                assert f.mul(a, b) == (a * b) % 5

    def test_gf25_unit_group_order(self):
        f = make_field(5, 2)
        for a in range(1, 25):
            assert f.pow(a, 24) == 1

    def test_gf9_primitive_element_count(self):
        # oracle: enumerate all 8 nonzero elements and count those of order 8
        f = make_field(3, 2)
        count = sum(1 for a in range(1, 9) if f.order(a) == 8)
        assert count == 4  # phi(8)

    def test_deterministic_modulus_choice(self):
        # lexicographically smallest monic irreducibles, low-to-high coeffs
        assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
        assert make_field(5, 2).modulus == (1, 1, 1)  # x^2 + x + 1
        assert make_field(7, 2).modulus == (1, 0, 1)
        assert make_field(5, 1).modulus == (0, 1)  # x

    def test_deterministic_generator_choice(self):
        assert make_field(3, 2).gen == 4  # 1 + x
        assert make_field(5, 2).gen == 7  # 2 + x
        assert make_field(5, 1).gen == 2

    def test_modulus_is_irreducible_by_trial_division(self):
        for p, m in [(3, 2), (5, 2), (7, 2), (3, 4), (13, 2)]:
            f = make_field(p, m)
            mod = list(f.modulus)
            # no monic divisor of degree 1..m//2
            for d in range(1, m // 2 + 1):
                for lowidx in range(p**d):
                    cand = idx_to_digits(lowidx, p, d) + [1]
                    # long division of mod by cand over GF(p)
                    rem = mod[:]
                    for i in range(len(rem) - 1, d - 1, -1):
                        c = rem[i]
                        if c:
                            rem[i] = 0
                            for j in range(d):
                                rem[i - d + j] = (rem[i - d + j] - c * cand[j]) % p
                    assert any(rem[:d]), (p, m, cand)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(2, 3)  # odd characteristic only
        with pytest.raises(ValueError):
            make_field(5, 0)
        with pytest.raises(ValueError):
            make_field(3, 20)  # 3^20 over the table limit


class TestArithmetic:
    def test_inv_of_one(self):
        f = make_field(3, 2)
        assert f.inv(1) == 1

    def test_gf25_mul_table_vs_polynomial_oracle(self):
        f = make_field(5, 2)
        mod = list(f.modulus)
        for a in range(25):
            for b in range(25):
                expect = digits_to_idx(
                    poly_mulmod(idx_to_digits(a, 5, 2), idx_to_digits(b, 5, 2), mod, 5), 5
                )
                assert f.mul(a, b) == expect

    def test_gf9_known_product(self):
        f = make_field(3, 2)
        # (1+x)^2 = 2x with x^2 = -1
        assert f.mul(4, 4) == 6

    def test_add_is_digitwise(self):
        f = make_field(3, 2)
        # (1+x) + (2+x) = 2x
        assert f.add(4, 5) == 6
        assert f.neg(1) == 2
        assert f.sub(0, 1) == 2

    def test_division_and_errors(self):
        f = make_field(5, 2)
        for a in range(1, 25):
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(a, a) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.div(3, 0)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -2)

    def test_pow_edge_cases(self):
        f = make_field(3, 2)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0
        for a in range(1, 9):
            assert f.pow(a, 8) == 1
            assert f.mul(f.pow(a, -1), a) == 1

    def test_distributivity_exhaustive_small(self):
        for p, m in [(3, 2), (5, 2)]:
            f = make_field(p, m)
            q = f.q
            for a in range(q):
                for b in range(q):
                    for c in range(0, q, 3):
                        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_distributivity_sampled_large(self):
        f = make_field(13, 2)
        rng = np.random.default_rng(7)
        trip = rng.integers(0, f.q, size=(10_000, 3))
        av = f.vmul(trip[:, 0], f.vadd(trip[:, 1], trip[:, 2]))
        bv = f.vadd(f.vmul(trip[:, 0], trip[:, 1]), f.vmul(trip[:, 0], trip[:, 2]))
        assert np.array_equal(av, bv)

    def test_vectorized_matches_scalar(self):
        f = make_field(3, 2)
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 9, size=200)
        ys = rng.integers(0, 9, size=200)
        assert np.array_equal(f.vadd(xs, ys), [f.add(a, b) for a, b in zip(xs, ys)])
        assert np.array_equal(f.vmul(xs, ys), [f.mul(a, b) for a, b in zip(xs, ys)])
        assert np.array_equal(f.vneg(xs), [f.neg(a) for a in xs])

    def test_frobenius_fixes_exactly_prime_field(self):
        f = make_field(3, 2)
        fixed = [a for a in range(9) if f.pow(a, 3) == a]
        assert fixed == [0, 1, 2]

    def test_exp_log_roundtrip(self):
        f = make_field(7, 2)
        for a in range(1, 49):
            assert f.exp[f.log[a]] == a


class TestRootsOfUnity:
    def test_gf9_eighth_root(self):
        f = make_field(3, 2)
        xi = nth_root_of_unity(f, 8)
        assert f.order(xi) == 8
        assert f.pow(xi, 4) == f.neg(1)

    def test_gf25_twentyfourth_root(self):
        f = make_field(5, 2)
        xi = nth_root_of_unity(f, 24)
        assert f.order(xi) == 24
        assert f.pow(xi, 12) == f.neg(1)

    def test_first_root_is_one(self):
        f = make_field(5, 2)
        assert nth_root_of_unity(f, 1) == 1

    def test_proper_divisor_powers_not_one(self):
        f = make_field(5, 2)
        for n in (2, 3, 4, 6, 8, 12, 24):
            xi = nth_root_of_unity(f, n)
            for d in range(1, n):
                if n % d == 0:
                    assert f.pow(xi, d) != 1

    def test_rejects_non_divisor(self):
        f = make_field(5, 2)
        with pytest.raises(ValueError):
            nth_root_of_unity(f, 7)

    def test_primitive_nth_roots(self):
        f = make_field(5, 2)
        roots = primitive_nth_roots(f, 12)
        assert len(roots) == 4  # phi(12)
        assert all(f.order(r) == 12 for r in roots)
        assert len(set(roots)) == 4


class TestSubfield:
    def test_embed_is_ring_hom_exhaustive(self):
        t = make_tower(5, 1)
        emb = t.embed
        assert emb(1) == 1
        for a in range(5):
            for b in range(5):
                assert emb(t.small.add(a, b)) == t.big.add(emb(a), emb(b))
                assert emb(t.small.mul(a, b)) == t.big.mul(emb(a), emb(b))

    def test_embed_hom_gf9_in_gf81(self):
        t = make_tower(3, 2)
        assert t.big.q == 81
        for a in range(9):
            for b in range(9):
                assert t.embed(t.small.add(a, b)) == t.big.add(t.embed(a), t.embed(b))
                assert t.embed(t.small.mul(a, b)) == t.big.mul(t.embed(a), t.embed(b))

    def test_zero_maps_to_zero(self):
        t = make_tower(5, 1)
        assert t.in_subfield(0)
        assert t.to_subfield(0) == 0

    def test_image_is_frobenius_fixed(self):
        t = make_tower(3, 1)
        image = {t.embed(a) for a in range(3)}
        fixed = {x for x in range(9) if t.big.pow(x, 3) == x}
        assert image == fixed

    def test_xi_power_lands_in_subfield(self):
        # q=5, n=24: xi^(q+1) is in GF(5), xi itself is not
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 24)
        assert t.in_subfield(t.big.pow(xi, 6))
        assert t.to_subfield(t.big.pow(xi, 6)) == 3  # (2+x)^6 = 3, by the mul oracle
        assert not t.in_subfield(xi)
        assert t.big.pow(xi, 5) != xi

    def test_to_subfield_rejects_outside_image(self):
        t = make_tower(5, 1)
        xi = nth_root_of_unity(t.big, 24)
        with pytest.raises(ValueError):
            t.to_subfield(xi)

    def test_section_inverts_embed(self):
        t = make_tower(3, 2)
        for a in range(9):
            assert t.to_subfield(t.embed(a)) == a

    def test_tower_is_cached(self):
        assert make_tower(5, 1) is make_tower(5, 1)
        assert make_field(5, 2) is make_field(5, 2)


class TestHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)

    def test_factorize(self):
        assert factorize(168) == {2: 3, 3: 1, 7: 1}
        assert factorize(13) == {13: 1}
        for n in range(2, 200):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.items()) == n

    def test_serialization(self):
        f = make_field(3, 2)
        assert f.serialize() == {"p": 3, "m": 2, "modulus": [1, 0, 1], "generator": 4}

    def test_element_count_and_bounds(self):
        f = make_field(3, 2)
        with pytest.raises(ValueError):
            f.add(9, 0)
        with pytest.raises(ValueError):
            f.mul(-1, 2)


class TestCertificationErrors:
    def test_missing_modulus_survives_optimize(self, run_optimized):
        script = """
            from paircodes import field
            from paircodes.errors import CertificationError

            field._raw_irreducible = lambda cand, p: False
            print("debug", __debug__)
            try:
                field.FieldCtx(5, 2)
            except CertificationError as e:
                print("raised", e)
        """
        assert run_optimized(script) == [
            "debug False",
            "raised no monic irreducible of degree 2 over GF(5)",
        ]
