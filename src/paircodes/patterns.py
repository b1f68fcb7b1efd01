"""Cyclic support patterns on Z_n.

A support is stored as a bit mask, bit i set when position i is in the
support.  Because every code here is constacyclic, a distance search only
needs one representative per rotation class; the canonical representative
is the rotation whose characteristic sequence s_0..s_{n-1} is
lexicographically smallest (zeros first, so canonical masks pack their
support toward the high positions).

Enumeration never walks all 2^n subsets.  A support with b cyclic blocks
of total size s is a pair of compositions (block lengths, gap lengths),
and the pair weight is s + b, so both the by-size and the by-pair-weight
generators run over compositions only.
"""

from dataclasses import dataclass
from itertools import combinations


def _compositions(total, parts):
    """Ordered compositions of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


def pw_of_mask(mask, n):
    """Pair weight |S u (S-1)| of the support encoded by mask."""
    wrapped = (mask >> 1) | ((mask & 1) << (n - 1))
    return bin(mask | wrapped).count("1")


def _lex_key(mask, n):
    # s_0 is the most significant digit of the comparison key
    return format(mask, f"0{n}b")[::-1]


def _rotate_left(mask, t, n):
    full = (1 << n) - 1
    t %= n
    if t == 0:
        return mask
    return ((mask >> t) | (mask << (n - t))) & full


def canonical_rotation(mask, n):
    """Rotation of mask with lexicographically smallest characteristic sequence.

    The winning rotation must start at the beginning of a gap, so only
    gap starts are compared (one candidate per block, not n).  The
    comparison runs on the characteristic string, formatted once.
    """
    full = (1 << n) - 1
    mask &= full
    if mask == 0 or mask == full:
        return mask
    seq = format(mask, f"0{n}b")[::-1]  # s_0 .. s_{n-1}
    # gap starts: positions i with bit i clear and bit i-1 (cyclically) set
    prev = _rotate_left(mask, n - 1, n)
    starts = prev & ~mask & full
    best = None
    i = starts
    while i:
        low = i & -i
        t = low.bit_length() - 1
        cand = seq[t:] + seq[:t]
        if best is None or cand < best:
            best = cand
        i ^= low
    return int(best[::-1], 2)


def _masks_with_blocks(n, size, blocks):
    """All masks with `blocks` cyclic blocks totalling `size`, first block at 0."""
    gaps_total = n - size
    for lens in _compositions(size, blocks):
        for gaps in _compositions(gaps_total, blocks):
            mask = 0
            pos = 0
            for ln, gp in zip(lens, gaps):
                mask |= ((1 << ln) - 1) << pos
                pos += ln + gp
            yield mask


def _canonical_unique(raw, n):
    """Dedupe an iterable of masks into sorted canonical representatives."""
    return sorted({canonical_rotation(m, n) for m in raw})


def canonical_supports_by_size(n, size):
    """Sorted canonical representatives of all supports with |S| = size."""
    if not 1 <= size <= n:
        raise ValueError(f"size must be in 1..{n}, got {size}")
    if size == n:
        return [(1 << n) - 1]
    raw = (
        mask
        for blocks in range(1, min(size, n - size) + 1)
        for mask in _masks_with_blocks(n, size, blocks)
    )
    return _canonical_unique(raw, n)


def canonical_supports_by_pw(n, pw):
    """Sorted canonical representatives of supports with pair weight pw.

    Ordered by (size, mask) so a search that wants the smallest support
    first can iterate the list directly.  Rotation classes with distinct
    block counts have distinct sizes, so each block count is deduped on
    its own and the groups concatenated in ascending-size order.
    """
    if not 2 <= pw <= n:
        raise ValueError(f"pair weight must be in 2..{n}, got {pw}")
    out = []
    for blocks in range(pw // 2, 0, -1):
        size = pw - blocks
        if size > n - blocks:  # gaps need one position per block
            continue
        out.extend(_canonical_unique(_masks_with_blocks(n, size, blocks), n))
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
