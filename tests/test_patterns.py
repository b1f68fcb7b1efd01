"""Support-pattern canonicalization and enumeration tests.

The brute-force oracles here enumerate raw subsets and rotations
directly, independent of the gap-sequence necklace generator under
test.  Past brute-force range, level sizes are checked against the
closed-form count of binary necklaces of fixed density.
"""

from math import comb, gcd

import numpy as np
import pytest

from paircodes.patterns import (
    SupportPattern,
    canonical_rotation,
    canonical_supports_by_pw,
    canonical_supports_by_size,
    pw_of_mask,
)


def rotate_left(mask, t, n):
    full = (1 << n) - 1
    t %= n
    if t == 0:
        return mask
    return ((mask >> t) | (mask << (n - t))) & full


def lex_key(mask, n):
    # characteristic sequence s_0..s_{n-1} read as a binary string
    return format(mask, f"0{n}b")[::-1]


def brute_canonical(mask, n):
    return min((rotate_left(mask, t, n) for t in range(n)), key=lambda m: lex_key(m, n))


def pw_by_sets(mask, n):
    s = {i for i in range(n) if mask >> i & 1}
    return len(s | {(i - 1) % n for i in s})


class TestPairWeightOfMask:
    def test_matches_set_formula(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 8, 12, 24, 56):
            for _ in range(300):
                mask = int(rng.integers(0, 1 << min(n, 62)))
                mask &= (1 << n) - 1
                assert pw_of_mask(mask, n) == pw_by_sets(mask, n)

    def test_simple_cases(self):
        assert pw_of_mask(0, 8) == 0
        assert pw_of_mask(1, 8) == 2  # single point
        assert pw_of_mask((1 << 8) - 1, 8) == 8  # full support
        # support {0,1,2,3} in n=24: one block, pw 5
        assert pw_of_mask(0b1111, 24) == 5


class TestCanonicalRotation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 7, 12, 16, 24, 56):
            for _ in range(300):
                mask = int(rng.integers(0, 1 << min(n, 62))) & ((1 << n) - 1)
                assert canonical_rotation(mask, n) == brute_canonical(mask, n)

    def test_edge_masks(self):
        assert canonical_rotation(0, 8) == 0
        assert canonical_rotation(255, 8) == 255
        # single point rotates to the last position (longest zero prefix)
        assert canonical_rotation(1, 8) == 1 << 7

    def test_canonical_is_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            mask = int(rng.integers(0, 1 << n))
            c = canonical_rotation(mask, n)
            assert canonical_rotation(c, n) == c


def brute_classes(n, keep):
    """Rotation classes over all subsets of Z_n, filtered by `keep`."""
    out = set()
    for mask in range(1, 1 << n):
        if keep(mask):
            out.add(brute_canonical(mask, n))
    return sorted(out)


class TestEnumerationBySize:
    @pytest.mark.parametrize("n", [4, 7, 10, 13, 16])
    def test_complete_and_duplicate_free(self, n):
        for size in range(1, n + 1):
            got = canonical_supports_by_size(n, size)
            expect = brute_classes(n, lambda m: bin(m).count("1") == size)
            assert got == expect

    def test_sorted_and_canonical(self):
        out = canonical_supports_by_size(24, 4)
        assert out == sorted(out)
        assert all(canonical_rotation(m, 24) == m for m in out)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            canonical_supports_by_size(8, 0)
        with pytest.raises(ValueError):
            canonical_supports_by_size(8, 9)


class TestEnumerationByPw:
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_complete_and_duplicate_free(self, n):
        for pw in range(2, n + 1):
            got = canonical_supports_by_pw(n, pw)
            expect = brute_classes(n, lambda m: pw_by_sets(m, n) == pw)
            assert len(got) == len(set(got))
            assert sorted(got) == expect, (n, pw)

    def test_pw_two_is_single_point(self):
        assert canonical_supports_by_pw(12, 2) == [1 << 11]

    def test_n12_pw8_count_matches_subset_scan(self):
        got = canonical_supports_by_pw(12, 8)
        expect = brute_classes(12, lambda m: pw_by_sets(m, 12) == 8)
        assert len(got) == len(expect)

    def test_order_is_by_size_then_mask(self):
        out = canonical_supports_by_pw(20, 7)
        keyed = [(bin(m).count("1"), m) for m in out]
        assert keyed == sorted(keyed)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            canonical_supports_by_pw(8, 1)
        with pytest.raises(ValueError):
            canonical_supports_by_pw(8, 9)


def phi(m):
    return sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)


def necklace_count(n, d):
    """Binary necklaces of length n with d ones: (1/n) sum_{j | gcd(n,d)} phi(j) C(n/j, d/j)."""
    g = gcd(n, d)
    total = sum(phi(j) * comb(n // j, d // j) for j in range(1, g + 1) if g % j == 0)
    assert total % n == 0
    return total // n


class TestEnumerationPastBruteForce:
    @pytest.mark.parametrize(
        "n,d",
        [(20, 1), (20, 3), (20, 6), (24, 2), (24, 4), (24, 6),
         (40, 2), (40, 4), (56, 3), (56, 4), (72, 3), (72, 4)],
    )
    def test_by_size_matches_necklace_count(self, n, d):
        out = canonical_supports_by_size(n, d)
        assert len(out) == necklace_count(n, d)
        assert all(a < b for a, b in zip(out, out[1:]))
        assert all(bin(m).count("1") == d for m in out)
        assert all(canonical_rotation(m, n) == m for m in out)

    @pytest.mark.parametrize("n,max_size", [(24, 5), (40, 4)])
    def test_by_pw_levels_partition_each_size(self, n, max_size):
        # a proper support of size s has pair weight s + b with 1 <= b <= s,
        # so the pair-weight levels 2..2s hold every class of size s
        for size in range(1, max_size + 1):
            collected = [
                m
                for pw in range(2, 2 * size + 1)
                for m in canonical_supports_by_pw(n, pw)
                if bin(m).count("1") == size
            ]
            assert len(collected) == len(set(collected))
            assert set(collected) == set(canonical_supports_by_size(n, size))


class TestSupportPattern:
    def test_from_positions(self):
        p = SupportPattern.from_positions(8, [0, 1, 4])
        assert p.n == 8
        assert p.positions == (0, 1, 4)
        assert p.size == 3
        assert p.pw == 5
        assert not p.canonical

    def test_canonicalized(self):
        p = SupportPattern.from_positions(8, [0, 1, 4]).canonicalized()
        assert p.canonical
        assert canonical_rotation(p.mask, 8) == p.mask
        assert p.pw == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SupportPattern.from_positions(8, [8])
        with pytest.raises(ValueError):
            SupportPattern.from_positions(0, [])

    def test_serialize(self):
        p = SupportPattern.from_positions(6, [2, 3])
        assert p.serialize() == {"n": 6, "positions": [2, 3]}
