"""Cyclic support patterns on Z_n.

A support is stored as a bit mask, bit i set when position i is in the
support.  Because every code here is constacyclic, a distance search only
needs one representative per rotation class; the canonical representative
is the rotation whose characteristic sequence s_0..s_{n-1} is
lexicographically smallest (zeros first, so canonical masks pack their
support toward the high positions).

Supports are handled through their gap sequence (g_1..g_s): g_i zeros
stand before the i-th set bit, the trailing zeros wrapping into g_1.  A
canonical characteristic sequence reads 0^g_1 1 0^g_2 1 .. 0^g_s 1, and
it is the rotation whose gap sequence is lexicographically largest.  So
the canonical supports of a level are exactly the necklaces (in
decreasing order) of length s over gap values summing to n - s; they are
generated directly by the Fredricksen-Kessler-Maiorana recursion with
fixed-density pruning (Ruskey & Sawada, SIAM J. Comput. 29(2), 1999),
each rotation class once.  A proper support with b nonzero gaps has b
cyclic blocks and pair weight s + b, so a pair-weight level is a union
of (size, block count) levels.
"""

from dataclasses import dataclass


def pw_of_mask(mask, n):
    """Pair weight |S u (S-1)| of the support encoded by mask."""
    wrapped = (mask >> 1) | ((mask & 1) << (n - 1))
    return bin(mask | wrapped).count("1")


def _mask_from_gaps(gaps):
    """The mask whose characteristic sequence is 0^g_1 1 0^g_2 1 .. 0^g_s 1."""
    mask = 0
    pos = -1
    for g in gaps:
        pos += g + 1
        mask |= 1 << pos
    return mask


def canonical_rotation(mask, n):
    """Rotation of mask with lexicographically smallest characteristic sequence.

    That rotation is the one whose gap sequence is lexicographically
    largest among the rotations of the gap sequence of mask.
    """
    full = (1 << n) - 1
    mask &= full
    if mask == 0 or mask == full:
        return mask
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    gaps = [positions[0] + n - 1 - positions[-1]]
    gaps += [b - a - 1 for a, b in zip(positions, positions[1:])]
    return _mask_from_gaps(max(gaps[i:] + gaps[:i] for i in range(len(gaps))))


def _gap_necklaces(n, size, blocks=None):
    """Sorted canonical masks of |S| = size, with `blocks` cyclic blocks if given.

    Gap values are tried in decreasing order, each bounded by a[t-p] as
    in the FKM recursion; the gaps must sum to n - size, and no later
    gap can exceed a[1], which prunes prefixes that cannot be completed.
    With `blocks` set, exactly that many gaps are nonzero.
    """
    a = [n - size] + [0] * size
    out = []

    def extend(t, p, left, nonzero):
        if t > size:
            if size % p == 0:
                out.append(_mask_from_gaps(a[1:]))
            return
        remaining = size - t
        v = min(a[t - p], left)
        if blocks is not None:  # each later nonzero gap needs a unit
            v = min(v, left + nonzero + 1 - blocks)
        while v >= 0:
            # later gaps that may be nonzero (that must be, counting blocks)
            later = remaining if blocks is None else blocks - nonzero - (v > 0)
            if later <= remaining and left - v <= later * (a[1] if t > 1 else v):
                a[t] = v
                extend(t + 1, p if v == a[t - p] else t, left - v, nonzero + (v > 0))
                v -= 1
            elif v > 0 and blocks is not None:
                v = 0  # no smaller positive gap fits either; zero still may
            else:
                break

    extend(1, 1, n - size, 0)
    return sorted(out)


def canonical_supports_by_size(n, size):
    """Sorted canonical representatives of all supports with |S| = size."""
    if not 1 <= size <= n:
        raise ValueError(f"size must be in 1..{n}, got {size}")
    return _gap_necklaces(n, size)


def canonical_supports_by_pw(n, pw):
    """Sorted canonical representatives of supports with pair weight pw.

    Ordered by (size, mask) so a search that wants the smallest support
    first can iterate the list directly.  A proper support with b blocks
    has size pw - b, so the block counts run downward and each group
    comes out sorted on its own.
    """
    if not 2 <= pw <= n:
        raise ValueError(f"pair weight must be in 2..{n}, got {pw}")
    out = []
    for blocks in range(pw // 2, 0, -1):
        out.extend(_gap_necklaces(n, pw - blocks, blocks))
    if pw == n:
        out.append((1 << n) - 1)
    return out


@dataclass(frozen=True)
class SupportPattern:
    """A support set on Z_n with cached size and pair weight."""

    n: int
    mask: int
    canonical: bool = False

    @classmethod
    def from_positions(cls, n, positions, canonicalize=False):
        if n < 1:
            raise ValueError("n must be positive")
        mask = 0
        for i in positions:
            if not 0 <= i < n:
                raise ValueError(f"position {i} out of range for n={n}")
            mask |= 1 << i
        if canonicalize:
            return cls(n, canonical_rotation(mask, n), True)
        return cls(n, mask, False)

    def canonicalized(self):
        return SupportPattern(self.n, canonical_rotation(self.mask, self.n), True)

    @property
    def size(self):
        return bin(self.mask).count("1")

    @property
    def pw(self):
        return pw_of_mask(self.mask, self.n)

    @property
    def positions(self):
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def serialize(self):
        return {"n": self.n, "positions": list(self.positions)}
