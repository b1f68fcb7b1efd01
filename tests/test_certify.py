"""Shape sweeps and family certificates, checked against subset-scan oracles."""

import itertools
import json
import time

import numpy as np
import pytest

from paircodes import kernels
from paircodes.certify import (
    STATUS_BUDGET,
    STATUS_CONFIRMED,
    STATUS_DISCREPANCY,
    canonical_json,
    certify_family,
    enumerate_shapes,
    exclude_pattern,
    sweep_exclusions,
)
from paircodes.codes import BudgetExceededError, hamming_weight, make_code, rational_null_basis
from paircodes.cosets import closed_defining_set
from paircodes.families import InadmissibleFamilyError, build_family, get_spec
from paircodes.field import make_field
from paircodes.patterns import SupportPattern, canonical_rotation, pw_of_mask
from paircodes.poly import Poly


def small_code(q, n, reps):
    ctx = make_field(*{3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q])
    ds = closed_defining_set(n, 1, reps, q)
    from paircodes.cosets import generator_from_defining_set
    from paircodes.field import make_tower, nth_root_of_unity

    smap = make_tower(ctx.p, ctx.m)
    root = nth_root_of_unity(smap.big, n)
    g = generator_from_defining_set(ds, root, smap)
    return make_code(ctx, n, 1, g, root=root)


def all_codewords(code):
    rows = code.generator_matrix()
    words = []
    for msg in itertools.product(range(code.ctx.q), repeat=code.k):
        w = np.zeros(code.n, dtype=np.int32)
        for c, row in zip(msg, rows):
            w = code.ctx.vadd(w, code.ctx.vmul(np.full_like(row, c), row))
        words.append(w)
    return words


class TestEnumerateShapes:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_shapes(10, 1)
        with pytest.raises(ValueError):
            enumerate_shapes(10, 11)

    def test_pw2_single_isolated_point(self):
        sc = enumerate_shapes(12, 2)
        assert sc.pw == 2
        assert [p.mask for p in sc.shapes] == [1 << 11]

    @pytest.mark.parametrize("n,pw", [(8, 4), (8, 8), (12, 5), (12, 8), (12, 12), (16, 8)])
    def test_complete_against_subset_scan(self, n, pw):
        expect = {
            canonical_rotation(m, n)
            for m in range(1, 1 << n)
            if pw_of_mask(m, n) == pw
        }
        got = [p.mask for p in enumerate_shapes(n, pw).shapes]
        assert len(got) == len(set(got))
        assert set(got) == expect

    def test_shapes_marked_canonical_and_ordered(self):
        sc = enumerate_shapes(14, 6)
        keys = [(p.size, p.mask) for p in sc.shapes]
        assert keys == sorted(keys)
        assert all(p.canonical for p in sc.shapes)
        assert all(p.pw == 6 for p in sc.shapes)

    def test_pw6_block_profiles(self):
        # one run of 5; a run plus a second block totalling 4; three
        # isolated points: exactly the (size, blocks) classes 5+1, 4+2, 3+3
        sc = enumerate_shapes(14, 6)
        profiles = set()
        for p in sc.shapes:
            profiles.add((p.size, p.pw - p.size))
        assert profiles == {(5, 1), (4, 2), (3, 3)}
        sizes4 = {
            tuple(sorted(_block_sizes(p))) for p in sc.shapes if p.size == 4
        }
        assert sizes4 == {(1, 3), (2, 2)}

    def test_window_forms_are_covered(self):
        # every placement of a 3-run plus one point, and of three points
        # in a window, canonicalizes into the enumerated shape list
        n = 24
        masks6 = {p.mask for p in enumerate_shapes(n, 6).shapes}
        for r in range(1, n - 4):
            pat = SupportPattern.from_positions(n, [0, 1, 2, 3 + r], canonicalize=True)
            assert pat.mask in masks6
        masks7 = {p.mask for p in enumerate_shapes(n, 7).shapes}
        for r in range(1, 6):
            for s in range(1, 6):
                pat = SupportPattern.from_positions(
                    n, [0, 1, 2 + r, 3 + r + s], canonicalize=True
                )
                assert pat.mask in masks7


def _block_sizes(pattern):
    pos = set(pattern.positions)
    sizes = []
    for i in sorted(pos):
        if (i - 1) % pattern.n in pos:
            sizes[-1] += 1
        else:
            sizes.append(1)
    # merge the wraparound block
    if len(sizes) > 1 and 0 in pos and (pattern.n - 1) in pos:
        sizes[0] += sizes.pop()
    return sizes


@pytest.fixture(scope="module")
def gf3_code():
    return small_code(3, 8, [0, 1, 2, 4])


@pytest.fixture(scope="module")
def gf3_words(gf3_code):
    return all_codewords(gf3_code)


@pytest.fixture(scope="module")
def gf5_negacyclic():
    """Negacyclic [6,2] over GF(5) with generator x^4 - x^2 + 1."""
    ctx = make_field(5, 1)
    return make_code(ctx, 6, ctx.neg(1), Poly(ctx, (1, 0, 4, 0, 1)))


def check_against_codeword_scan(code, words, pw):
    # oracle predicate: some codeword whose support is exactly the
    # pattern (zero off it, nonzero everywhere on it)
    n, q = code.n, code.ctx.q
    for pat in enumerate_shapes(n, pw).shapes:
        pos = pat.positions
        rep = exclude_pattern(code, pat)
        brute_hit = any(
            all(w[p] != 0 for p in pos)
            and all(w[i] == 0 for i in range(n) if i not in pos)
            for w in words[1:]
        )
        assert rep.admissible == brute_hit
        inside = sum(
            1
            for w in words
            if all(w[i] == 0 for i in range(n) if i not in pos)
        )
        assert inside == q**rep.detail
        if rep.admissible:
            w = rep.fully_nonzero_witness
            assert code.contains(w)
            assert all(w[p] != 0 for p in pos)
            assert all(w[i] == 0 for i in range(n) if i not in pos)
        else:
            assert rep.fully_nonzero_witness is None


class TestExcludePattern:
    def test_rejects_length_mismatch(self, gf3_code):
        with pytest.raises(ValueError):
            exclude_pattern(gf3_code, SupportPattern.from_positions(9, [0, 1]))

    @pytest.mark.parametrize("pw", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_codeword_scan(self, gf3_code, gf3_words, pw):
        check_against_codeword_scan(gf3_code, gf3_words, pw)

    @pytest.mark.parametrize("pw", [2, 3, 4, 5, 6])
    def test_negacyclic_matches_codeword_scan(self, gf5_negacyclic, pw):
        # lam = -1: the check matrix must not assume x^n = 1
        check_against_codeword_scan(gf5_negacyclic, all_codewords(gf5_negacyclic), pw)

    def test_trivial_null_space(self, gf3_code):
        rep = exclude_pattern(gf3_code, SupportPattern.from_positions(8, [3]))
        assert rep.admissible is False
        assert rep.detail == 0

    def test_full_support_on_full_weight_code(self):
        code = build_family("dp9", 3)
        rep = exclude_pattern(code, SupportPattern.from_positions(8, range(8)))
        assert rep.admissible is True
        assert rep.detail == 1
        assert hamming_weight(rep.fully_nonzero_witness) == 8

    def test_wide_null_space_decided(self):
        # the whole space: every pattern is admissible, nullity |S|
        ctx = make_field(3, 1)
        code = make_code(ctx, 8, 1, Poly.one(ctx))
        rep = exclude_pattern(code, SupportPattern.from_positions(8, [0, 1, 2, 3]))
        assert rep.admissible is True
        assert rep.detail == 4
        w = rep.fully_nonzero_witness
        assert code.contains(w)
        assert [i for i in range(8) if w[i]] == [0, 1, 2, 3]

    def test_three_block_window_sweep_gf7(self):
        # dp8 at q=7: two leading positions, then two more separated by
        # gaps, never admits a fully nonzero codeword
        code = build_family("dp8", 7)
        n = code.n
        for r in range(1, 8):
            for s in range(1, 8):
                pat = SupportPattern.from_positions(
                    n, [0, 1, 2 + r, 3 + r + s], canonicalize=True
                )
                assert exclude_pattern(code, pat).admissible is False


class TestSweep:
    def test_dp9_q5_all_excluded(self):
        code = build_family("dp9", 5)
        reports = sweep_exclusions(code, 8)
        assert len(reports) == len(enumerate_shapes(12, 8).shapes)
        assert all(not r.admissible for r in reports)

    def test_dp9_q3_finds_admissible_shape(self):
        code = build_family("dp9", 3)
        reports = sweep_exclusions(code, 8)
        hits = [r for r in reports if r.admissible]
        assert len(hits) == 1
        assert hits[0].pattern.mask == (1 << 8) - 1
        assert code.contains(hits[0].fully_nonzero_witness)
        assert hamming_weight(hits[0].fully_nonzero_witness) == 8

    @pytest.mark.parametrize(
        "family,q", [("dp7", 5), ("dp8", 7), ("dp9", 5), ("kai_dp7", 7), ("dp9", 3)]
    )
    def test_check_matrix_nullity_matches_root_power_basis(self, family, q):
        # the sweep's nullity comes from H over GF(q); the engines' from
        # root powers over GF(q^2) with Galois descent: they must agree
        code = build_family(family, q)
        ctx, H = code.ctx, code.check_matrix()
        tables = (ctx.add_table, ctx.neg_table, ctx.log, ctx.exp)
        pw = get_spec(family).claimed_pair_distance - 1
        for rep in sweep_exclusions(code, pw):
            pos = list(rep.pattern.positions)
            nullity = len(pos) - kernels.gf_rank(H[:, pos], *tables)
            assert rep.detail == nullity == len(rational_null_basis(code, pos))

    def test_deadline_enforced(self):
        code = build_family("dp9", 5)
        with pytest.raises(BudgetExceededError):
            sweep_exclusions(code, 8, deadline=-1.0)


class TestCertifyFamily:
    def test_dp9_q5_confirmed(self):
        cert = certify_family("dp9", 5)
        assert cert.status == STATUS_CONFIRMED
        assert (cert.n, cert.k) == (12, 5)
        assert cert.d_H.value == 6
        assert cert.d_P.value == 9
        assert cert.d_P.method == "full_enumeration"
        assert cert.lemma3_ok is True
        assert cert.shapes_swept == len(enumerate_shapes(12, 8).shapes)
        assert cert.generator == [int(c) for c in build_family("dp9", 5).g.coeffs]

    def test_dp8_q3_confirmed(self):
        cert = certify_family("dp8", 3)
        assert cert.status == STATUS_CONFIRMED
        assert (cert.n, cert.k) == (8, 2)
        assert (cert.d_H.value, cert.d_P.value) == (6, 8)

    def test_dp9_q3_discrepancy(self):
        cert = certify_family("dp9", 3)
        assert cert.status == STATUS_DISCREPANCY
        assert cert.d_P.value == 8
        assert cert.d_H.value == 8
        assert cert.lemma3_ok is True
        assert any(r.admissible for r in cert.exclusions)

    def test_budget_exceeded(self):
        cert = certify_family("dp9", 5, budget_seconds=-1.0)
        assert cert.status == STATUS_BUDGET
        assert cert.d_P is None

    def test_inadmissible_q_raises(self):
        with pytest.raises(InadmissibleFamilyError):
            certify_family("dp7", 7)

    def test_json_shape_and_determinism(self):
        a = certify_family("dp8", 3)
        b = certify_family("dp8", 3, workers=3)
        ja = canonical_json(a.to_json_dict())
        jb = canonical_json(b.to_json_dict())
        assert ja == jb
        payload = json.loads(ja)
        assert set(payload) == {
            "family", "q", "n", "k", "generator",
            "d_H", "d_P", "lemma3_ok", "shapes_swept", "status",
        }
        assert payload["d_H"]["elapsed_ms"] is None
        assert payload["d_P"]["witness"] is not None
        timed = a.to_json_dict(include_timing=True)
        assert timed["d_H"]["elapsed_ms"] >= 0.0

    def test_budget_overshoot_is_bounded(self):
        # the level scans check the deadline every SCAN_CHUNK supports,
        # so the run stops within one chunk or one level enumeration;
        # dp8 q=19 needs about six times the budget to finish
        budget, overshoot = 0.05, 0.2
        t0 = time.perf_counter()
        cert = certify_family("dp8", 19, budget_seconds=budget)
        elapsed = time.perf_counter() - t0
        assert cert.status == STATUS_BUDGET
        assert elapsed < budget + overshoot

    def test_budget_certificate_serializes(self):
        cert = certify_family("dp9", 5, budget_seconds=-1.0)
        payload = json.loads(canonical_json(cert.to_json_dict()))
        assert payload["status"] == "BUDGET_EXCEEDED"
        assert payload["d_H"] is None and payload["d_P"] is None
