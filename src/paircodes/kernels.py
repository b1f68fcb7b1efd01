"""Hot loops shared by the distance engines.

Everything here speaks the table dialect: field elements are int32
indices, multiplication goes through log/exp (exp is two periods long so
summed logs never need a modulo), addition through the dense add table.
Rank is computed by one batched numpy elimination over a stack of
matrices; the enumeration kernel is a plain Python loop.
"""

import numpy as np

# kept for callers that report the environment; no code path depends on it
HAS_NUMBA = False


def step_delta(ctx):
    """delta[v] = element stepping index v to index v+1 (wrapping to 0).

    Lets the enumeration kernel walk the whole field with one add per
    digit instead of recomputing scalar multiples.
    """
    q = ctx.q
    d = np.empty(q, dtype=np.int32)
    for v in range(q):
        nxt = v + 1 if v + 1 < q else 0
        d[v] = ctx.sub(nxt, v)
    return d


def gf_rank_many(mats, add, neg, log, exp):
    """Rank of each matrix in a stack of shape (M, rows, cols).

    The whole stack is eliminated at once, column by column: in each
    column every matrix takes as pivot its first unused row that is
    nonzero there (argmax over a boolean mask) and clears that column
    from its other unused rows.  Rows are never swapped; a mask records
    which rows have served as pivots.  Zeros have log -1, so every
    product is masked where one factor is zero.  mats is not modified.
    """
    mats = np.array(mats, dtype=np.int32)
    cnt, rows, cols = mats.shape
    order = exp.shape[0] // 2
    at = np.arange(cnt)
    free = np.ones((cnt, rows), dtype=bool)
    rank = np.zeros(cnt, dtype=np.intp)
    if rows == 0:
        return rank
    for col in range(cols):
        colv = mats[:, :, col]
        live = (colv != 0) & free
        piv = live.argmax(axis=1)
        has = live[at, piv]
        rank += has
        free[at[has], piv[has]] = False
        live[at, piv] = False  # now: the rows to clear
        if col + 1 == cols or not live.any():
            continue
        rest = mats[:, :, col + 1 :]
        prow = rest[at, piv]
        # row r loses (a_r / a_piv) * pivot row; logs of the ratio mod order
        lf = (log[colv] - log[colv[at, piv]][:, None]) % order
        prod = exp[lf[:, :, None] + log[prow][:, None, :]]
        prod = np.where((prow == 0)[:, None, :], 0, prod)
        rest[...] = np.where(live[:, :, None], add[rest, neg[prod]], rest)
    return rank


def gf_rank(mat, add, neg, log, exp):
    """Rank of one matrix: gf_rank_many on a batch of one."""
    mat = np.asarray(mat, dtype=np.int32)
    return int(gf_rank_many(mat[None], add, neg, log, exp)[0])


def _support_positions(masks, n):
    """Set-bit positions of masks of one common size, one ascending row per mask."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, bitorder="little")
    return np.nonzero(bits)[1].reshape(len(masks), -1)


def admissible_many(masks, cols, add, neg, log, exp):
    """Flag each mask S whose columns cols[:, S] have rank below |S|.

    cols is a (rows, n) matrix of field indices and S the set bits of a
    mask, a Python int of any length.  Masks are ranked in one batch per
    size; fewer rows than |S| simply caps the rank.
    """
    masks = [int(m) for m in masks]
    cols = np.asarray(cols, dtype=np.int32)
    out = np.zeros(len(masks), dtype=np.uint8)
    by_size = {}
    for i, m in enumerate(masks):
        by_size.setdefault(m.bit_count(), []).append(i)
    for s, idx in by_size.items():
        pos = _support_positions([masks[i] for i in idx], cols.shape[1])
        mats = cols[:, pos].transpose(1, 0, 2)
        out[idx] = gf_rank_many(mats, add, neg, log, exp) < s
    return out


def enum_min_weights(rows, q, delta, add, neg, log, exp):
    """Scan the full row space of rows (k x n) over GF(q).

    Walks message space as an odometer, updating the codeword
    incrementally, and returns (min_hamming, min_pair, word_h, word_p)
    where each word is the lexicographically smallest codeword (as an
    index vector) attaining its minimum.
    """
    k, n = rows.shape
    total = np.int64(1)
    for _ in range(k):
        total *= q
    msg = np.zeros(k, dtype=np.int32)
    word = np.zeros(n, dtype=np.int32)
    best_h = n + 1
    best_p = n + 1
    wit_h = np.zeros(n, dtype=np.int32)
    wit_p = np.zeros(n, dtype=np.int32)
    for _ in range(total - 1):
        j = 0
        while msg[j] == q - 1:
            ld = log[delta[q - 1]]
            for i in range(n):
                rv = rows[j, i]
                if rv != 0:
                    word[i] = add[word[i], exp[ld + log[rv]]]
            msg[j] = 0
            j += 1
        ld = log[delta[msg[j]]]
        for i in range(n):
            rv = rows[j, i]
            if rv != 0:
                word[i] = add[word[i], exp[ld + log[rv]]]
        msg[j] += 1

        wh = 0
        wp = 0
        for i in range(n):
            if word[i] != 0:
                wh += 1
            nxt = i + 1
            if nxt == n:
                nxt = 0
            if word[i] != 0 or word[nxt] != 0:
                wp += 1

        if wh < best_h:
            best_h = wh
            for i in range(n):
                wit_h[i] = word[i]
        elif wh == best_h:
            for i in range(n):
                if word[i] != wit_h[i]:
                    if word[i] < wit_h[i]:
                        for t in range(n):
                            wit_h[t] = word[t]
                    break
        if wp < best_p:
            best_p = wp
            for i in range(n):
                wit_p[i] = word[i]
        elif wp == best_p:
            for i in range(n):
                if word[i] != wit_p[i]:
                    if word[i] < wit_p[i]:
                        for t in range(n):
                            wit_p[t] = word[t]
                    break
    return best_h, best_p, wit_h, wit_p
