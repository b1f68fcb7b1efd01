"""Even-length cyclic codes split into a cyclic and a negacyclic half.

Frozen facts used below, all re-derivable with polynomial division:
over GF(5) with n = 12 and defining exponents {0,1,2,5,7,10,11}, the
halves have dimensions 3 and 2 and the negacyclic generator is
x^4 - x^2 + 1; its dual generator is x^2 + 1.
"""

import numpy as np
import pytest

from paircodes.codes import make_code
from paircodes.cosets import closed_defining_set, generator_from_defining_set
from paircodes.decompose import (
    decompose,
    dual_orthogonality_probe,
    join,
    negacyclic_dual_generator,
    phi_map,
    proof_dual_words,
    quartic_beta,
    split_halves,
)
from paircodes.field import make_field, make_tower, nth_root_of_unity
from paircodes.poly import Poly


def parent_q5():
    ctx = make_field(5, 1)
    smap = make_tower(5, 1)
    xi = nth_root_of_unity(smap.big, 12)
    ds = closed_defining_set(12, 1, [11, 0, 1, 2], 5)
    g = generator_from_defining_set(ds, xi, smap)
    return make_code(ctx, 12, 1, g)


class TestPhiMap:
    def test_residues_match_poly_mod(self):
        ctx = make_field(5, 1)
        rng = np.random.default_rng(31)
        vec = rng.integers(0, 5, size=12)
        parts = phi_map(ctx, vec, 4)
        assert len(parts) == 4
        f = Poly(ctx, [int(v) for v in vec])
        z = 2  # generator of GF(5), a primitive 4th root of unity
        for i, part in enumerate(parts):
            zi = ctx.pow(z, i)
            rem = f % Poly(ctx, (ctx.neg(zi), 0, 0, 1))  # x^3 - z^i
            want = list(rem.coeffs) + [0] * (3 - len(rem.coeffs))
            assert part.tolist() == want

    def test_m_one_is_identity_mod(self):
        ctx = make_field(3, 1)
        vec = np.array([1, 2, 0, 1], dtype=np.int32)
        (part,) = phi_map(ctx, vec, 1)
        assert part.tolist() == vec.tolist()

    def test_validation(self):
        ctx = make_field(5, 1)
        with pytest.raises(ValueError):
            phi_map(ctx, np.zeros(12, dtype=np.int32), 3)  # 3 does not divide q-1
        with pytest.raises(ValueError):
            phi_map(ctx, np.zeros(10, dtype=np.int32), 4)  # 4 does not divide 10


class TestDecompose:
    def test_q5_parent_splits(self):
        parent = parent_q5()
        c1, c2 = decompose(parent)
        assert (c1.n, c1.k, c1.lam) == (6, 3, 1)
        assert (c2.n, c2.k, c2.lam) == (6, 2, 4)
        assert c2.g == Poly(c2.ctx, (1, 0, 4, 0, 1))
        assert c1.g * c2.g == parent.g

    def test_halves_embed_into_parent(self):
        parent = parent_q5()
        c1, c2 = decompose(parent)
        ctx = parent.ctx
        for u in c1.generator_matrix():
            assert parent.contains(np.concatenate([u, u]))
        for v in c2.generator_matrix():
            assert parent.contains(np.concatenate([v, ctx.vneg(v)]))

    def test_join_reconstructs(self):
        parent = parent_q5()
        c1, c2 = decompose(parent)
        back = join(c1, c2)
        assert back.g == parent.g
        assert back.k == parent.k

    def test_split_halves_roundtrip(self):
        parent = parent_q5()
        c1, c2 = decompose(parent)
        ctx = parent.ctx
        rng = np.random.default_rng(33)
        for _ in range(10):
            word = parent.encode(rng.integers(0, 5, size=parent.k))
            u, v = split_halves(ctx, word)
            assert c1.contains(u)
            assert c2.contains(v)
            left = ctx.vadd(u, v)
            right = ctx.vsub(u, v)
            assert np.concatenate([left, right]).tolist() == word.tolist()

    def test_rejects_odd_or_nonclassic(self):
        ctx7 = make_field(7, 1)
        smap = make_tower(7, 1)
        xi = nth_root_of_unity(smap.big, 3)
        ds = closed_defining_set(3, 1, [1], 7)
        g = generator_from_defining_set(ds, xi, smap)
        odd = make_code(ctx7, 3, 1, g)
        with pytest.raises(ValueError):
            decompose(odd)
        ctx = make_field(5, 1)
        nega = make_code(ctx, 6, 4, Poly(ctx, (1, 0, 4, 0, 1)))
        with pytest.raises(ValueError):
            decompose(nega)

    def test_split_rejects_odd_length(self):
        ctx = make_field(5, 1)
        with pytest.raises(ValueError):
            split_halves(ctx, np.zeros(5, dtype=np.int32))


def tower_and_root(p, m):
    smap = make_tower(p, m)
    q = smap.small.q
    xi = nth_root_of_unity(smap.big, 2 * q + 2)
    return smap, xi


class TestDualGenerator:
    def test_q5_frozen(self):
        smap, xi = tower_and_root(5, 1)
        beta = quartic_beta(smap, xi)
        b = negacyclic_dual_generator(smap, xi)
        assert beta == 1
        assert b == Poly(smap.small, (1, 0, 1))

    def test_q7_frozen(self):
        smap, xi = tower_and_root(7, 1)
        beta = quartic_beta(smap, xi)
        small = smap.small
        assert small.mul(beta, beta) == 2  # beta^2 = 2 in GF(7)
        b = negacyclic_dual_generator(smap, xi)
        assert b == Poly(small, (1, 0, beta, 0, 1))

    @pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (11, 1)])
    def test_three_constructions_agree(self, p, m):
        smap, xi = tower_and_root(p, m)
        small = smap.small
        q = small.q
        beta = quartic_beta(smap, xi)
        b = negacyclic_dual_generator(smap, xi)
        quartic = Poly(small, (1, 0, small.neg(beta), 0, 1))
        target = Poly.xn_minus_lambda(small, q + 1, small.neg(1))  # x^{q+1} + 1
        quo, rem = divmod(target, quartic)
        assert rem.is_zero and quo == b
        coeffs = [1, 0, beta, 0]
        for k in range(4, q - 2):
            nxt = small.sub(small.mul(beta, coeffs[k - 2]), coeffs[k - 4])
            coeffs.append(nxt)
        assert Poly(small, coeffs[: q - 2]) == b

    def test_equals_machine_dual(self):
        for p, m in [(5, 1), (7, 1), (3, 2)]:
            smap, xi = tower_and_root(p, m)
            small = smap.small
            q = small.q
            beta = quartic_beta(smap, xi)
            b = negacyclic_dual_generator(smap, xi)
            c2 = make_code(small, q + 1, small.neg(1), Poly(small, (1, 0, small.neg(beta), 0, 1)))
            assert c2.dual().g == b

    def test_rejects_small_q_and_bad_root(self):
        smap, xi = tower_and_root(3, 1)
        with pytest.raises(ValueError):
            negacyclic_dual_generator(smap, xi)
        smap5, _ = tower_and_root(5, 1)
        wrong = nth_root_of_unity(smap5.big, 6)
        with pytest.raises(ValueError):
            negacyclic_dual_generator(smap5, wrong)


class TestProofWords:
    def test_q5_structure(self):
        smap, xi = tower_and_root(5, 1)
        e, e2 = proof_dual_words(smap, xi)
        assert e.tolist() == [4, 0, 0, 0, 1, 0]
        assert e2.tolist() == [0, 0, 1, 0, 1, 0]

    @pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (11, 1)])
    def test_words_pass_probe(self, p, m):
        smap, xi = tower_and_root(p, m)
        small = smap.small
        q = small.q
        beta = quartic_beta(smap, xi)
        c2 = make_code(small, q + 1, small.neg(1), Poly(small, (1, 0, small.neg(beta), 0, 1)))
        for word in proof_dual_words(smap, xi):
            assert dual_orthogonality_probe(c2, word)

    def test_probe_rejects_non_dual_word(self):
        smap, xi = tower_and_root(5, 1)
        small = smap.small
        beta = quartic_beta(smap, xi)
        c2 = make_code(small, 6, small.neg(1), Poly(small, (1, 0, small.neg(beta), 0, 1)))
        bad = np.array([1, 0, 0, 0, 0, 0], dtype=np.int32)
        with pytest.raises(ValueError):
            dual_orthogonality_probe(c2, bad)


class TestCertificationErrors:
    def test_split_check_survives_optimize(self, run_optimized):
        # halves whose generators do not multiply back must raise, -O or not
        script = """
            from paircodes import decompose
            from paircodes.errors import CertificationError
            from paircodes.families import build_family
            from paircodes.poly import Poly

            code = build_family("dp7", 5)
            decompose.gcd = lambda a, b: Poly.one(a.ctx)
            print("debug", __debug__)
            try:
                decompose.decompose(code)
            except CertificationError as e:
                print("raised", e)
        """
        assert run_optimized(script) == [
            "debug False",
            "raised halves do not multiply back to the generator",
        ]
