"""Kernel tests: rank and exhaustive-enumeration against pure oracles.

The oracles here are deliberately naive: fraction-free elimination done
with scalar field ops for rank, itertools.product over all messages for
the enumeration.  The kernels must agree with them exactly.
"""

from itertools import product

import numpy as np
import pytest

from paircodes import kernels
from paircodes.codes import make_code, null_space
from paircodes.field import make_field
from paircodes.poly import Poly


def rank_oracle(ctx, rows):
    """Row-reduce with scalar ops; rows is a list of lists of indices."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = ctx.inv(mat[rank][col])
        mat[rank] = [ctx.mul(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def enum_oracle(ctx, rows):
    """Every nonzero codeword of the row space; returns min weights and witnesses."""
    k, n = rows.shape
    best_h = best_p = None
    wit_h = wit_p = None
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
        if best_h is None or (wh, word) < (best_h, list(wit_h)):
            best_h, wit_h = wh, list(word)
        if best_p is None or (wp, word) < (best_p, list(wit_p)):
            best_p, wit_p = wp, list(word)
    return best_h, best_p, wit_h, wit_p


def field_tables(ctx):
    add = ctx.add_table
    neg = ctx.neg_table
    return add, neg, ctx.log, ctx.exp


class TestRankKernel:
    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (13, 2)])
    def test_matches_oracle_random(self, p, m):
        ctx = make_field(p, m)
        add, neg, log, exp = field_tables(ctx)
        rng = np.random.default_rng(11)
        for _ in range(120):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            mat = rng.integers(0, ctx.q, size=(rows, cols)).astype(np.int32)
            want = rank_oracle(ctx, mat.tolist())
            got = kernels.gf_rank(mat.copy(), add, neg, log, exp)
            assert got == want

    def test_rank_deficient_by_construction(self):
        ctx = make_field(3, 2)
        add, neg, log, exp = field_tables(ctx)
        rng = np.random.default_rng(13)
        base = rng.integers(0, 9, size=(2, 6)).astype(np.int32)
        # third row = combination of the first two
        c0, c1 = 5, 7
        comb = np.array(
            [ctx.add(ctx.mul(c0, int(a)), ctx.mul(c1, int(b))) for a, b in zip(base[0], base[1])],
            dtype=np.int32,
        )
        mat = np.vstack([base, comb[None, :]])
        assert kernels.gf_rank(mat.copy(), add, neg, log, exp) == rank_oracle(ctx, base.tolist())

    def test_empty_and_zero(self):
        ctx = make_field(5, 2)
        add, neg, log, exp = field_tables(ctx)
        assert kernels.gf_rank(np.zeros((0, 4), dtype=np.int32), add, neg, log, exp) == 0
        assert kernels.gf_rank(np.zeros((3, 4), dtype=np.int32), add, neg, log, exp) == 0

    def test_identity_blocks(self):
        ctx = make_field(3, 2)
        add, neg, log, exp = field_tables(ctx)
        mat = np.eye(5, dtype=np.int32)
        assert kernels.gf_rank(mat, add, neg, log, exp) == 5


class TestEnumerationKernel:
    def check_code(self, ctx, rows):
        add, neg, log, exp = field_tables(ctx)
        want = enum_oracle(ctx, rows)
        got = kernels.enum_min_weights(
            rows.astype(np.int32), ctx.q, kernels.step_delta(ctx), add, neg, log, exp
        )
        assert (got[0], got[1]) == (want[0], want[1])
        assert got[2].tolist() == want[2]
        assert got[3].tolist() == want[3]

    def test_gf3_small_cyclic(self):
        ctx = make_field(3, 1)
        # generator matrix of the [8,2] cyclic code with g = (x^8-1)/(x^2-1)... take
        # simple shift rows of a degree-6 divisor of x^8 - 1 over GF(3)
        g = [1, 0, 1, 0, 1, 0, 1, 0]  # 1 + x^2 + x^4 + x^6, times x
        rows = np.array([g, g[-1:] + g[:-1]], dtype=np.int32)
        self.check_code(ctx, rows)

    def test_gf5_random_rows(self):
        ctx = make_field(5, 1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            rows = rng.integers(0, 5, size=(3, 7)).astype(np.int32)
            self.check_code(ctx, rows)

    def test_gf9_extension_field(self):
        ctx = make_field(3, 2)
        rng = np.random.default_rng(19)
        rows = rng.integers(0, 9, size=(2, 6)).astype(np.int32)
        self.check_code(ctx, rows)

    def test_single_row(self):
        ctx = make_field(7, 1)
        rows = np.array([[1, 0, 3, 0, 0, 6]], dtype=np.int32)
        self.check_code(ctx, rows)


class TestStepDelta:
    def test_covers_message_space(self):
        # replaying the deltas from 0 must visit every field element once,
        # in index order, then wrap back to zero
        for p, m in [(3, 1), (5, 1), (3, 2)]:
            ctx = make_field(p, m)
            delta = kernels.step_delta(ctx)
            assert len(delta) == ctx.q
            seen = [0]
            for _ in range(ctx.q - 1):
                seen.append(ctx.add(seen[-1], int(delta[seen[-1]])))
            assert seen == list(range(ctx.q))
            assert ctx.add(seen[-1], int(delta[seen[-1]])) == 0

    def test_deltas_nonzero(self):
        ctx = make_field(3, 2)
        assert all(int(d) != 0 for d in kernels.step_delta(ctx))


class TestBatchedRank:
    """gf_rank_many against the scalar oracle on stacks built to be awkward."""

    @staticmethod
    def random_stack(rng, q, cnt, rows, cols):
        mats = rng.integers(0, q, size=(cnt, rows, cols)).astype(np.int32)
        for mat in mats:
            roll = rng.random()
            if roll < 0.25:
                mat[:, rng.integers(cols)] = 0
            elif roll < 0.5 and cols > 1:
                a, b = rng.choice(cols, size=2, replace=False)
                mat[:, b] = mat[:, a]
            elif roll < 0.75:
                mat[rng.random(mat.shape) < 0.6] = 0
        return mats

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 1), (5, 1), (7, 1), (13, 1)])
    def test_matches_oracle_random_batches(self, p, m):
        ctx = make_field(p, m)
        tables = field_tables(ctx)
        rng = np.random.default_rng(31 + p)
        for _ in range(40):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))  # cols > rows covers |T| < s
            cnt = int(rng.integers(0, 12))
            mats = self.random_stack(rng, ctx.q, cnt, rows, cols)
            before = mats.copy()
            got = kernels.gf_rank_many(mats, *tables)
            assert got.tolist() == [rank_oracle(ctx, mat.tolist()) for mat in mats]
            assert np.array_equal(mats, before)

    def test_scaled_repeated_column_is_deficient(self):
        ctx = make_field(5, 2)
        rng = np.random.default_rng(37)
        mats = rng.integers(1, 25, size=(20, 5, 3)).astype(np.int32)
        mats[:, :, 2] = ctx.vmul(np.full_like(mats[:, :, 0], 7), mats[:, :, 0])
        ranks = kernels.gf_rank_many(mats, *field_tables(ctx))
        assert ranks.tolist() == [rank_oracle(ctx, mat.tolist()) for mat in mats]
        assert ranks.max() <= 2

    def test_empty_batch(self):
        ctx = make_field(3, 2)
        got = kernels.gf_rank_many(np.zeros((0, 4, 3), dtype=np.int32), *field_tables(ctx))
        assert got.shape == (0,)

    def test_batch_of_one_is_gf_rank(self):
        ctx = make_field(7, 2)
        tables = field_tables(ctx)
        mat = np.random.default_rng(41).integers(0, 49, size=(4, 6)).astype(np.int32)
        got = kernels.gf_rank_many(mat[None], *tables)
        assert got.tolist() == [kernels.gf_rank(mat, *tables)] == [rank_oracle(ctx, mat.tolist())]


class TestAdmissibleMany:
    """admissible_many against a per-mask null space at a length past 63 bits.

    Both kinds of column matrix the certificate ranks are covered: root
    powers over GF(49) and the check matrix of a GF(3) code.
    """

    N = 70

    def root_power_setting(self):
        big = make_field(7, 2)
        # powers of a primitive element of GF(49), exponents wrapping mod 48
        texp = np.array([1, 2, 3, 7, 14], dtype=np.int64)
        return big, big.exp[np.outer(texp, np.arange(self.N)) % (big.q - 1)]

    def check_setting(self):
        ctx = make_field(3, 1)
        # (x^7 - 1)(x + 1) divides x^70 - 1: eight check rows
        g = Poly(ctx, (2, 0, 0, 0, 0, 0, 0, 1)) * Poly(ctx, (1, 1))
        return ctx, make_code(ctx, self.N, 1, g).check_matrix()

    def test_matches_null_space_oracle(self):
        rng = np.random.default_rng(43)
        masks = []
        for _ in range(300):
            size = int(rng.integers(1, 10))
            masks.append(sum(1 << int(i) for i in rng.choice(self.N, size=size, replace=False)))
        masks.append(1 << (self.N - 1) | 1 << 64 | 1 << 63 | 1)
        for field, cols in (self.root_power_setting(), self.check_setting()):
            got = kernels.admissible_many(masks, cols, *field_tables(field))
            assert got.dtype == np.uint8
            want = []
            for m in masks:
                pos = [i for i in range(self.N) if m >> i & 1]
                want.append(int(len(null_space(field, cols[:, pos].tolist(), len(pos))) > 0))
            assert got.tolist() == want
            assert 0 < sum(want) < len(want)

    def test_empty(self):
        for field, cols in (self.root_power_setting(), self.check_setting()):
            assert kernels.admissible_many([], cols, *field_tables(field)).shape == (0,)

    def test_no_rows_flags_every_support(self):
        ctx = make_field(3, 1)
        cols = np.zeros((0, self.N), dtype=np.int32)
        got = kernels.admissible_many([1, 0b101, 1 << 69], cols, *field_tables(ctx))
        assert got.tolist() == [1, 1, 1]
