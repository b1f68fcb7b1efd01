"""CRT splitting of cyclic codes and the quartic negacyclic dual.

Over GF(q) with m | q - 1, the ring GF(q)[x]/(x^{mn'} - 1) factors as a
product of rings GF(q)[x]/(x^{n'} - z^i) over the m-th roots of unity z^i.
The m = 2 case splits an even-length cyclic code into a cyclic half and
a negacyclic half; everything a distance search learns about the halves
transfers to the parent.

The second part handles the negacyclic code of length q + 1 generated by
x^4 - beta x^2 + 1, where beta = xi^2 + xi^{-2} for a root xi of order
2q + 2 in GF(q^2).  Its dual generator has the closed form

    b_k = (xi^{k+4} - xi^{-k}) / (xi^4 - 1)   for even k, else 0,

a fact cross-checked here against long division and the recurrence
b_k = beta b_{k-2} - b_{k-4}.
"""

import numpy as np

from paircodes.codes import make_code, rref
from paircodes.errors import CertificationError
from paircodes.field import nth_root_of_unity
from paircodes.poly import Poly, gcd


def phi_map(ctx, vec, m):
    """Residues of vec modulo x^{n'} - z^i over the m-th roots of unity z^i."""
    if (ctx.q - 1) % m != 0:
        raise ValueError(f"{m} does not divide q - 1 = {ctx.q - 1}")
    vec = np.asarray(vec)
    n = vec.shape[0]
    if n % m != 0:
        raise ValueError(f"{m} does not divide the length {n}")
    n1 = n // m
    z = nth_root_of_unity(ctx, m)
    zetas = [ctx.pow(z, i) for i in range(m)]
    if len(set(zetas)) != m:
        raise CertificationError("roots of unity collided")
    f = Poly(ctx, [int(v) for v in vec])
    parts = []
    for zeta in zetas:
        rem = f % Poly(ctx, (ctx.neg(zeta),) + (0,) * (n1 - 1) + (1,))
        out = np.zeros(n1, dtype=np.int32)
        out[: len(rem.coeffs)] = rem.coeffs
        parts.append(out)
    return parts


def decompose(code):
    """Split an even-length cyclic code into (cyclic, negacyclic) halves.

    The halves are generated by gcd(g, x^{n/2} -+ 1) and embed back into
    the parent as (u | u) and (v | -v); both facts are checked.
    """
    ctx = code.ctx
    if code.lam != 1:
        raise ValueError("only cyclic codes decompose this way")
    if code.n % 2 != 0:
        raise ValueError(f"length {code.n} is odd")
    n2 = code.n // 2
    g1 = gcd(code.g, Poly.xn_minus_lambda(ctx, n2, 1))
    g2 = gcd(code.g, Poly.xn_minus_lambda(ctx, n2, ctx.neg(1)))
    if g1 * g2 != code.g:
        raise CertificationError("halves do not multiply back to the generator")
    c1 = make_code(ctx, n2, 1, g1)
    c2 = make_code(ctx, n2, ctx.neg(1), g2)
    if c1.k + c2.k != code.k:
        raise CertificationError(f"half dimensions {c1.k} + {c2.k} != {code.k}")
    if not all(code.contains(np.concatenate([u, u])) for u in c1.generator_matrix()):
        raise CertificationError("a cyclic half row (u | u) left the parent")
    if not all(code.contains(np.concatenate([v, ctx.vneg(v)])) for v in c2.generator_matrix()):
        raise CertificationError("a negacyclic half row (v | -v) left the parent")
    return c1, c2


def join(c1, c2):
    """Inverse of decompose: the parent cyclic code of doubled length."""
    ctx = c1.ctx
    if c1.ctx is not c2.ctx or c1.n != c2.n:
        raise ValueError("halves live in different ambient spaces")
    if c1.lam != 1 or c2.lam != ctx.neg(1):
        raise ValueError("expected a cyclic first half and negacyclic second half")
    parent = make_code(ctx, 2 * c1.n, 1, c1.g * c2.g)
    rows = [np.concatenate([u, u]) for u in c1.generator_matrix()]
    rows += [np.concatenate([v, ctx.vneg(v)]) for v in c2.generator_matrix()]
    lifted, _ = rref(ctx, rows)
    direct, _ = rref(ctx, parent.generator_matrix())
    if lifted != direct:
        raise CertificationError("lifted halves span a different code")
    return parent


def split_halves(ctx, vec):
    """Map a parent word (l | r) to its residues (l+r)/2 and (l-r)/2."""
    vec = np.asarray(vec, dtype=np.int32)
    n = vec.shape[0]
    if n % 2 != 0:
        raise ValueError(f"length {n} is odd")
    left, right = vec[: n // 2], vec[n // 2 :]
    two = ctx.add(1, 1)
    half = np.full(n // 2, ctx.inv(two), dtype=np.int32)
    u = ctx.vmul(half, ctx.vadd(left, right))
    v = ctx.vmul(half, ctx.vsub(left, right))
    return u, v


def _check_quartic_root(smap, xi):
    q = smap.small.q
    if q <= 3:
        raise ValueError("the quartic construction needs q > 3")
    if smap.big.order(xi) != 2 * q + 2:
        raise ValueError(f"root must have order {2 * q + 2}, got {smap.big.order(xi)}")


def quartic_beta(smap, xi) -> int:
    """beta = xi^2 + xi^{-2}, an element of the small field."""
    _check_quartic_root(smap, xi)
    big = smap.big
    val = big.add(big.pow(xi, 2), big.pow(big.inv(xi), 2))
    return smap.to_subfield(val)


def negacyclic_dual_generator(smap, xi) -> Poly:
    """Dual generator of the length-(q+1) negacyclic code of x^4 - beta x^2 + 1.

    Checked on the way out: it multiplies with the quartic to x^{q+1} + 1
    and its coefficients satisfy b_k = beta b_{k-2} - b_{k-4}.
    """
    _check_quartic_root(smap, xi)
    big, small = smap.big, smap.small
    q = small.q
    beta = quartic_beta(smap, xi)
    xi_inv = big.inv(xi)
    denom = big.sub(big.pow(xi, 4), smap.embed(1))
    coeffs = []
    for k in range(q - 2):  # degrees 0 .. q-3
        if k % 2:
            coeffs.append(0)
        else:
            num = big.sub(big.pow(xi, k + 4), big.pow(xi_inv, k))
            coeffs.append(smap.to_subfield(big.div(num, denom)))
    b = Poly(small, coeffs)
    quartic = Poly(small, (1, 0, small.neg(beta), 0, 1))
    if b * quartic != Poly.xn_minus_lambda(small, q + 1, small.neg(1)):
        raise CertificationError("dual generator times the quartic is not x^(q+1) + 1")
    want = [1, 0, beta, 0][: q - 2]
    while len(want) < q - 2:
        want.append(small.sub(small.mul(beta, want[-2]), want[-4]))
    if coeffs != want:
        raise CertificationError("dual generator breaks b_k = beta b_(k-2) - b_(k-4)")
    return b


def proof_dual_words(smap, xi):
    """The two shifted dual words x^4 b and x^2 b, reduced mod x^{q+1} + 1."""
    _check_quartic_root(smap, xi)
    small = smap.small
    q = small.q
    n2 = q + 1
    bc = negacyclic_dual_generator(smap, xi).coeffs  # b_0 .. b_{n2-4}
    e = np.zeros(n2, dtype=np.int32)
    e[0] = small.neg(bc[n2 - 4])
    e[4 : 4 + n2 - 4] = bc[: n2 - 4]
    e2 = np.zeros(n2, dtype=np.int32)
    e2[2 : 2 + n2 - 3] = bc
    return e, e2


def dual_orthogonality_probe(c2, word) -> bool:
    """Check that word lies in the dual of c2 and is orthogonal to its rows."""
    word = np.asarray(word, dtype=np.int32)
    dual = c2.dual()
    if not dual.contains(word):
        raise ValueError("word is not in the dual code")
    ctx = c2.ctx
    for row in c2.generator_matrix():
        acc = 0
        for a, b in zip(row, word):
            acc = ctx.add(acc, ctx.mul(int(a), int(b)))
        if acc != 0:
            raise CertificationError("inner product with a generator row is nonzero")
    return True
