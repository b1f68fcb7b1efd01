"""Constacyclic codes and exact minimum-distance engines.

A code of length n over GF(q) with shift constant lam is the ideal
generated by a monic divisor g of x^n - lam.  Every distance claim made
here is certified by exhaustive search, with two independent engines:

* support_rank walks canonical support patterns in increasing weight
  (Hamming) or pair weight and tests each for a rank-deficient
  root-power matrix; the first admissible pattern gives the exact value
  and a witness codeword is reconstructed from the null space.
* full_enumeration walks every nonzero codeword when q^k is small.

Both produce a DistanceCertificate carrying a digest of everything that
was scanned, so reruns can be compared byte for byte.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from paircodes import kernels
from paircodes.cosets import defining_set_from_generator
from paircodes.errors import CertificationError
from paircodes.field import make_tower, nth_root_of_unity
from paircodes.patterns import canonical_supports_by_pw, canonical_supports_by_size
from paircodes.poly import Poly, QuotientRing, reciprocal

FULL_ENUM_LIMIT = 1 << 22

# supports ranked per kernel call; bounds the batch's memory and the
# time between deadline checks
SCAN_CHUNK = 512


class BudgetExceededError(RuntimeError):
    """A search ran past its deadline."""


def hamming_weight(vec) -> int:
    return int(np.count_nonzero(np.asarray(vec)))


def pair_weight(vec) -> int:
    """|S u (S-1)| where S is the support of vec, cyclically."""
    nz = np.asarray(vec) != 0
    return int((nz | np.roll(nz, -1)).sum())


def pair_distance(ctx, u, v) -> int:
    return pair_weight(ctx.vsub(np.asarray(u), np.asarray(v)))


class ConstacyclicCode:
    """Length-n code over ctx generated by g, with x^n = lam in the ring.

    Carries the quadratic extension GF(q^2), a root of x^n - lam of
    order r*n living there (when one exists), and the defining set of
    root exponents.  Instances come from make_code.
    """

    def __init__(self, ctx, n, lam, g, h, smap, root, T):
        self.ctx = ctx
        self.n = n
        self.lam = lam
        self.g = g
        self.h = h
        self.k = n - g.degree
        self.r = ctx.order(lam)
        self.smap = smap
        self.root = root
        self.T = T
        self.ring = QuotientRing(ctx, n, lam)
        self._gen_matrix = None
        self._check_matrix = None
        self._root_powers = None
        self._enum_cache = None

    def __repr__(self):
        return f"ConstacyclicCode(q={self.ctx.q}, n={self.n}, k={self.k}, lam={self.lam})"

    def encode(self, msg) -> np.ndarray:
        msg = [int(v) for v in msg]
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != k = {self.k}")
        word = (Poly(self.ctx, msg) * self.g).coeffs
        out = np.zeros(self.n, dtype=np.int32)
        out[: len(word)] = word
        return out

    def contains(self, vec) -> bool:
        vec = np.asarray(vec)
        if vec.shape != (self.n,):
            return False
        return (Poly(self.ctx, [int(v) for v in vec]) % self.g).is_zero

    def shift(self, vec) -> np.ndarray:
        """Constacyclic shift: multiply by x in the ambient ring."""
        vec = np.asarray(vec, dtype=np.int32)
        out = np.empty(self.n, dtype=np.int32)
        out[0] = self.ctx.mul(self.lam, int(vec[-1]))
        out[1:] = vec[:-1]
        return out

    def generator_matrix(self) -> np.ndarray:
        if self._gen_matrix is None:
            self._gen_matrix = _band_matrix(self.g.coeffs, self.k, self.n)
        return self._gen_matrix

    def check_matrix(self) -> np.ndarray:
        """(n-k) x n check matrix over GF(q): row i is reciprocal(h) from column i.

        A word c of degree below n is m g exactly when c h = m (x^n - lam)
        has no terms of degree k..n-1, whatever lam; g = 1 gives no rows.
        """
        if self._check_matrix is None:
            self._check_matrix = _band_matrix(reciprocal(self.h).coeffs, self.n - self.k, self.n)
        return self._check_matrix

    def dual(self) -> "ConstacyclicCode":
        """Euclidean dual: lam^-1-constacyclic with the reflected check poly."""
        gd = reciprocal(self.h).monic()
        return make_code(self.ctx, self.n, self.ctx.inv(self.lam), gd)

    def pi_expand(self, vec) -> np.ndarray:
        """Symbol-pair read-out: row i is (c_i, c_{i+1})."""
        if self.n < 2:
            raise ValueError("pair expansion needs length at least 2")
        vec = np.asarray(vec, dtype=np.int32)
        return np.column_stack([vec, np.roll(vec, -1)])

    def root_power_matrix(self) -> np.ndarray:
        """|T| x n matrix over GF(q^2) with entry root^(t c) at row t in T, column c."""
        if self._root_powers is None:
            if self.root is None:
                raise ValueError("no root of the right order in the quadratic extension")
            big = self.smap.big
            ex = np.outer(np.asarray(self.T.exponents, dtype=np.int64), np.arange(self.n))
            self._root_powers = big.exp[(int(big.log[self.root]) * ex) % (big.q - 1)]
        return self._root_powers


def _band_matrix(coeffs, rows, n) -> np.ndarray:
    """rows x n matrix whose row i holds coeffs from column i on."""
    mat = np.zeros((rows, n), dtype=np.int32)
    for i in range(rows):
        mat[i, i : i + len(coeffs)] = coeffs
    return mat


def make_code(ctx, n, lam, g: Poly, root=None) -> ConstacyclicCode:
    """Validate (n, lam, g) and assemble the code.

    root, when given, must be an element of GF(q^2) of order r*n whose
    n-th power embeds lam; it fixes which root the defining set is
    expressed against.  Otherwise a deterministic default is chosen.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n % ctx.p == 0:
        raise ValueError(f"length {n} is divisible by the characteristic {ctx.p}")
    if not 1 <= lam < ctx.q:
        raise ValueError(f"shift constant {lam} is not a nonzero field element")
    if g.is_zero or g.coeffs[-1] != 1:
        raise ValueError("generator must be monic")
    xn = Poly.xn_minus_lambda(ctx, n, lam)
    if not g.divides(xn):
        raise ValueError(f"generator does not divide x^{n} - lam")
    if g.degree == n:
        raise ValueError("generator equals x^n - lam: the code has dimension 0")
    h = xn // g
    smap = make_tower(ctx.p, ctx.m)
    r = ctx.order(lam)
    rn = r * n
    T = None
    if (smap.big.q - 1) % rn == 0:
        if root is None:
            root = _find_root(smap, n, lam, rn)
        else:
            big = smap.big
            if big.order(root) != rn or big.pow(root, n) != smap.embed(lam):
                raise ValueError("root must have order r*n and power to the shift constant")
        T = defining_set_from_generator(g, root, n, r, smap)
    elif root is not None:
        raise ValueError(f"no order-{rn} roots exist in the quadratic extension")
    return ConstacyclicCode(ctx, n, lam, g, h, smap, root, T)


def _find_root(smap, n, lam, rn):
    """Smallest power of the canonical rn-th root whose n-th power is lam."""
    big = smap.big
    base = nth_root_of_unity(big, rn)
    target = smap.embed(lam)
    for j in range(1, rn + 1):
        if math.gcd(j, rn) != 1:
            continue
        cand = big.pow(base, j)
        if big.pow(cand, n) == target:
            return cand
    raise ValueError("no element of the right order powers to the shift constant")


@dataclass
class DistanceCertificate:
    """Outcome of one exact distance search.

    value None means the search exhausted everything up to search_bound
    without a hit, certifying a strict lower bound.  witness is a full
    codeword as a list of field indices.  scanned_digest fingerprints
    the exact scan order.
    """

    kind: str
    value: int | None
    method: str
    search_bound: int
    witness: list[int] | None
    scanned_digest: str
    elapsed_ms: float | None = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "method": self.method,
            "search_bound": self.search_bound,
            "witness": self.witness,
            "scanned_digest": self.scanned_digest,
            "elapsed_ms": self.elapsed_ms if include_timing else None,
        }


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("distance search ran past its deadline")


def _require_tables(ctx):
    if ctx.add_table is None:
        raise ValueError(f"field of size {ctx.q} is too large for the table engines")


def dependent_flags(cols, field, masks, deadline):
    """Flag masks S with cols[:, S] rank deficient, SCAN_CHUNK per deadline check."""
    _require_tables(field)
    tables = (field.add_table, field.neg_table, field.log, field.exp)
    out = np.empty(len(masks), dtype=np.uint8)
    for lo in range(0, len(masks), SCAN_CHUNK):
        _check_deadline(deadline)
        hi = lo + SCAN_CHUNK
        out[lo:hi] = kernels.admissible_many(masks[lo:hi], cols, *tables)
    return out


def _witness_word(code, mask):
    """Reconstruct a codeword living on the given support mask."""
    positions = [i for i in range(code.n) if mask >> i & 1]
    basis = rational_null_basis(code, positions)
    if basis.shape[0] < 1:
        raise CertificationError("admissible support lost its null space")
    word = np.zeros(code.n, dtype=np.int32)
    word[positions] = basis[0]
    if not code.contains(word):
        raise CertificationError("descended null vector left the code")
    return word


def _scan_support_levels(code, kind, levels, level_masks, deadline):
    """Shared core of the support_rank engines.

    Scans whole levels in order; at the first level containing an
    admissible pattern, the smallest one (in the level's own order)
    yields the witness.  The digest covers every mask of every level
    scanned, including the full hit level.
    """
    digest = hashlib.sha256()
    for level in levels:
        _check_deadline(deadline)
        masks = level_masks(level)
        for m in masks:
            digest.update(f"{m:x};".encode())
        flags = dependent_flags(code.root_power_matrix(), code.smap.big, masks, deadline)
        hit = np.flatnonzero(flags)
        if hit.size:
            word = _witness_word(code, masks[int(hit[0])])
            got = hamming_weight(word) if kind == "hamming" else pair_weight(word)
            if got != level:
                raise CertificationError(f"witness weight {got} != level {level}")
            return level, word, digest.hexdigest()
    return None, None, digest.hexdigest()


def _full_enum(code, deadline):
    """Exact (d_H, d_P) plus witnesses by walking the whole code once."""
    if code._enum_cache is None:
        ctx = code.ctx
        _require_tables(ctx)
        total = ctx.q**code.k
        if total > FULL_ENUM_LIMIT:
            raise ValueError(
                f"q^k = {total} exceeds the full enumeration limit {FULL_ENUM_LIMIT}"
            )
        _check_deadline(deadline)
        rows = code.generator_matrix().astype(np.int32)
        best_h, best_p, wit_h, wit_p = kernels.enum_min_weights(
            rows, ctx.q, kernels.step_delta(ctx), ctx.add_table, ctx.neg_table, ctx.log, ctx.exp
        )
        digest = hashlib.sha256(rows.tobytes())
        digest.update(str(total).encode())
        code._enum_cache = (
            int(best_h),
            int(best_p),
            wit_h.tolist(),
            wit_p.tolist(),
            digest.hexdigest(),
        )
    return code._enum_cache


def _pick_method(code, method):
    if method not in ("auto", "support_rank", "full_enumeration"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        return "full_enumeration" if code.ctx.q**code.k <= FULL_ENUM_LIMIT else "support_rank"
    return method


def min_hamming(code, w_max, method="auto", deadline=None) -> DistanceCertificate:
    """Exact minimum Hamming weight, certified up to w_max.

    support_rank scans supports of size 1..w_max; a returned value is
    exact.  full_enumeration ignores w_max and always reports the exact
    minimum over the whole code.
    """
    if not 1 <= w_max <= code.n:
        raise ValueError(f"w_max must be in 1..{code.n}, got {w_max}")
    method = _pick_method(code, method)
    t0 = time.perf_counter()
    if method == "full_enumeration":
        best_h, _, wit_h, _, digest = _full_enum(code, deadline)
        value, witness, bound = best_h, wit_h, code.n
    else:
        value, word, digest = _scan_support_levels(
            code,
            "hamming",
            range(1, w_max + 1),
            lambda s: canonical_supports_by_size(code.n, s),
            deadline,
        )
        witness = None if word is None else [int(v) for v in word]
        bound = w_max if value is None else value
    return DistanceCertificate(
        kind="hamming",
        value=value,
        method=method,
        search_bound=bound,
        witness=witness,
        scanned_digest=digest,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def min_pair(code, pw_max, method="auto", deadline=None) -> DistanceCertificate:
    """Exact minimum pair weight, certified up to pw_max."""
    if not 2 <= pw_max <= code.n:
        raise ValueError(f"pw_max must be in 2..{code.n}, got {pw_max}")
    method = _pick_method(code, method)
    t0 = time.perf_counter()
    if method == "full_enumeration":
        _, best_p, _, wit_p, digest = _full_enum(code, deadline)
        value, witness, bound = best_p, wit_p, code.n
    else:
        value, word, digest = _scan_support_levels(
            code,
            "pair",
            range(2, pw_max + 1),
            lambda pw: canonical_supports_by_pw(code.n, pw),
            deadline,
        )
        witness = None if word is None else [int(v) for v in word]
        bound = pw_max if value is None else value
    return DistanceCertificate(
        kind="pair",
        value=value,
        method=method,
        search_bound=bound,
        witness=witness,
        scanned_digest=digest,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def rref(ctx, rows):
    """Reduced row echelon form over ctx; returns (nonzero rows, pivot cols)."""
    mat = [[int(v) for v in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
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
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def null_space(ctx, rows, ncols):
    """Basis of the right null space, one vector per free column."""
    rr, pivots = rref(ctx, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = ctx.neg(rr[i][f])
        basis.append(v)
    return basis


def rational_null_basis(code, positions) -> np.ndarray:
    """Codewords supported inside `positions`, as coefficient rows over GF(q).

    The root-power matrix lives over GF(q^2), but its null space is
    stable under the Frobenius x -> x^q because the defining set is
    closed under multiplication by q.  Galois descent then says the
    GF(q)-rational solutions have the same dimension; they are carved
    out with the trace map applied to each big-field basis vector and
    to gamma times it, gamma being a generator of the big field.
    """
    big = code.smap.big
    ctx = code.ctx
    q = ctx.q
    M = code.root_power_matrix()[:, list(positions)].tolist()
    nb = null_space(big, M, len(positions))
    d = len(nb)
    if d == 0:
        return np.zeros((0, len(positions)), dtype=np.int32)
    gamma = big.gen
    cands = []
    for v in nb:
        for w in (v, [big.mul(gamma, x) for x in v]):
            tr = [big.add(x, big.pow(x, q)) for x in w]
            cands.append([code.smap.to_subfield(x) for x in tr])
    rr, _ = rref(ctx, cands)
    if len(rr) != d:
        raise CertificationError("Galois descent changed the solution dimension")
    return np.array(rr, dtype=np.int32)


def singleton_check(code, d_pair) -> tuple[bool, int]:
    """Pair-metric Singleton test: (is MDS, defect n - d_P + 2 - k)."""
    defect = code.n - d_pair + 2 - code.k
    return defect == 0, defect


def chen_consistent(code, d_hamming, d_pair) -> bool:
    """The pair distance gains two over Hamming exactly when k < n - d_H + 1."""
    return (d_pair >= d_hamming + 2) == (code.k < code.n - d_hamming + 1)
