"""Family registry: builders, closed-form witnesses, subcode relation.

Frozen parameters checked here (n, k, defining exponents) all follow
from the coset closures of the registered exponent representatives.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from paircodes import families
from paircodes.codes import CertificationError, hamming_weight, min_hamming, min_pair
from paircodes.families import (
    InadmissibleFamilyError,
    build_family,
    family_ids,
    get_spec,
    root_choice_stability,
    subcode_check,
    witness_low_weight,
)
from paircodes.field import primitive_nth_roots
from paircodes.poly import Poly


class TestRegistry:
    def test_ids(self):
        assert family_ids() == ["dp7", "dp8", "dp9", "kai_dp7"]

    def test_spec_params(self):
        spec = get_spec("dp7")
        assert spec.length(5) == 24 and spec.dimension(5) == 19
        assert spec.claimed_pair_distance == 7
        assert get_spec("dp8").claimed_hamming(3) == 6
        assert get_spec("dp8").claimed_hamming(7) == 4
        assert get_spec("dp9").claimed_hamming(3) == 8
        assert get_spec("dp9").claimed_hamming(9) == 6

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_family("dp10", 5)


class TestBuilders:
    @pytest.mark.parametrize(
        "family,q,n,k,texp",
        [
            ("dp7", 5, 24, 19, [0, 1, 5, 6, 12]),
            ("dp7", 9, 40, 35, [0, 1, 9, 10, 20]),
            ("dp7", 13, 56, 51, [0, 1, 13, 14, 28]),
            ("dp8", 3, 8, 2, [0, 1, 2, 3, 4, 6]),
            ("dp8", 7, 24, 18, [0, 1, 2, 7, 12, 14]),
            ("dp8", 11, 40, 34, [0, 1, 2, 11, 20, 22]),
            ("dp9", 3, 8, 1, [0, 1, 2, 3, 5, 6, 7]),
            ("dp9", 5, 12, 5, [0, 1, 2, 5, 7, 10, 11]),
            ("dp9", 7, 16, 9, [0, 1, 2, 7, 9, 14, 15]),
            ("dp9", 9, 20, 13, [0, 1, 2, 9, 11, 18, 19]),
            ("kai_dp7", 7, 24, 19, [0, 1, 2, 7, 14]),
            ("kai_dp7", 11, 40, 35, [0, 1, 2, 11, 22]),
        ],
    )
    def test_parameters(self, family, q, n, k, texp):
        code = build_family(family, q)
        assert (code.n, code.k, code.lam) == (n, k, 1)
        assert list(code.T.exponents) == texp
        assert code.g * code.h == Poly.xn_minus_lambda(code.ctx, n, 1)

    def test_congruence_rejection(self):
        with pytest.raises(InadmissibleFamilyError, match="mod 4"):
            build_family("dp7", 7)
        with pytest.raises(InadmissibleFamilyError, match="mod 4"):
            build_family("dp8", 5)
        with pytest.raises(InadmissibleFamilyError, match="mod 4"):
            build_family("kai_dp7", 9)

    def test_non_prime_power_rejection(self):
        with pytest.raises(InadmissibleFamilyError):
            build_family("dp9", 6)
        with pytest.raises(InadmissibleFamilyError):
            build_family("dp9", 1)

    def test_even_q_rejection(self):
        with pytest.raises(InadmissibleFamilyError):
            build_family("dp9", 4)

    def test_explicit_root(self):
        code = build_family("dp9", 5)
        other = primitive_nth_roots(code.smap.big, 12)[1]
        alt = build_family("dp9", 5, root=other)
        assert alt.root == other
        assert (alt.n, alt.k) == (code.n, code.k)

    def test_bad_root_rejected(self):
        code = build_family("dp9", 5)
        nonprimitive = code.smap.big.pow(code.root, 2)
        with pytest.raises(ValueError):
            build_family("dp9", 5, root=nonprimitive)


class TestWitnesses:
    def test_dp7_q5_exact_vector(self):
        code = build_family("dp7", 5)
        word = witness_low_weight("dp7", code)
        want = np.zeros(24, dtype=np.int32)
        want[0], want[4], want[12], want[16] = 4, 1, 4, 1
        assert word.tolist() == want.tolist()
        assert code.contains(word)

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_dp7_weight_four(self, q):
        code = build_family("dp7", q)
        word = witness_low_weight("dp7", code)
        assert code.contains(word)
        assert hamming_weight(word) == 4

    @pytest.mark.parametrize("q", [7, 11])
    def test_dp8_weight_four(self, q):
        code = build_family("dp8", q)
        word = witness_low_weight("dp8", code)
        assert code.contains(word)
        assert hamming_weight(word) == 4
        support = [i for i, v in enumerate(word) if v]
        assert support == [0, q - 3, 2 * q - 2, 3 * q - 5]

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_dp9_weight_six(self, q):
        code = build_family("dp9", q)
        word = witness_low_weight("dp9", code)
        assert code.contains(word)
        assert hamming_weight(word) == 6

    def test_degenerate_cases_raise(self):
        with pytest.raises(ValueError):
            witness_low_weight("dp8", build_family("dp8", 3))
        with pytest.raises(ValueError):
            witness_low_weight("dp9", build_family("dp9", 3))
        with pytest.raises(ValueError):
            witness_low_weight("kai_dp7", build_family("kai_dp7", 7))


class TestCertificationErrors:
    def test_wrong_witness_weight_raises(self, monkeypatch):
        code = build_family("dp7", 5)
        monkeypatch.setattr(families, "hamming_weight", lambda vec: 0)
        with pytest.raises(CertificationError, match="wrong weight"):
            witness_low_weight("dp7", code)

    def test_generator_disagreement_raises_under_optimize(self, src_env):
        # asserts vanish under -O; the agreement check must not
        script = textwrap.dedent(
            """
            from paircodes import codes, families

            real = families.minimal_polynomial
            families.minimal_polynomial = lambda *args: real(*args) * real(*args)
            print("debug", __debug__)
            try:
                families.build_family("dp9", 5)
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
            "raised minimal polynomial product disagrees with the root product",
        ]


class TestSubcode:
    @pytest.mark.parametrize("q", [7, 11])
    def test_dp8_inside_kai(self, q):
        assert subcode_check(q)

    def test_nesting_check_survives_optimize(self, run_optimized):
        # swapped members are not nested; the check must raise under -O
        script = """
            from paircodes import families
            from paircodes.errors import CertificationError

            real = families.build_family
            swap = {"kai_dp7": "dp8", "dp8": "kai_dp7"}
            families.build_family = lambda family, q: real(swap[family], q)
            print("debug", __debug__)
            try:
                families.subcode_check(7)
            except CertificationError as e:
                print("raised", e)
        """
        assert run_optimized(script) == ["debug False", "raised generators are not nested"]

    def test_wrong_congruence(self):
        with pytest.raises(InadmissibleFamilyError):
            subcode_check(5)


class TestRootStability:
    def test_dp9_q5(self):
        report = root_choice_stability("dp9", 5)
        assert report["family"] == "dp9"
        assert report["q"] == 5 and report["n"] == 12
        assert report["choices"] == 4  # phi(12)
        assert report["pairs"] == [[6, 9]]
        assert report["stable"] is True

    def test_dp8_q3(self):
        report = root_choice_stability("dp8", 3)
        assert report["choices"] == 4  # phi(8)
        assert report["pairs"] == [[6, 8]]
        assert report["stable"] is True


class TestDistancesSmall:
    def test_dp9_q5_exact(self):
        code = build_family("dp9", 5)
        assert min_hamming(code, 8, method="support_rank").value == 6
        assert min_pair(code, 9, method="support_rank").value == 9

    def test_dp8_q3_exact(self):
        code = build_family("dp8", 3)
        assert min_hamming(code, 8, method="support_rank").value == 6
        assert min_pair(code, 8, method="support_rank").value == 8
