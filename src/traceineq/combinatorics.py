"""Index combinatorics for the doubling construction.

Three ingredients determine where each matrix lands in the tensor
product: the Thue-Morse conjugation pattern, the shape parameters
(level count and padding), and the doubling permutation that tracks
how middle factors interleave when the chain length doubles.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidRange

MAX_N = 10  # validated range for the doubling construction


def thue_morse(k: int) -> int:
    """Conjugation exponent for middle slot k >= 2.

    Equals the Thue-Morse sequence shifted by two: the parity of the
    binary digit sum of k - 2. Satisfies a(2) = 0, a(2j) = a(j + 1),
    and the substitution 0 -> 01, 1 -> 10 on consecutive slots.
    """
    if k < 2:
        raise InvalidRange(f"slot index must be >= 2, got {k}")
    return bin(k - 2).count("1") % 2


@dataclass(frozen=True)
class ShapeParams:
    n: int
    level_count: int  # number of doublings
    pad_count: int    # identity factors inserted

    @property
    def factor_count(self) -> int:
        return 2 ** self.level_count

    @property
    def full_n(self) -> int:
        """Chain length after padding up to the next power of two."""
        return 2 ** self.level_count + 2


def shape_params(n: int) -> ShapeParams:
    """Level count ceil(log2(n - 2)) and padding 2^level - (n - 2).

    Computed via bit_length so the boundary cases are integer exact;
    n = 3 pads a single slot at level one.
    """
    if not 3 <= n <= MAX_N:
        raise InvalidRange(f"chain length must be in [3, {MAX_N}], got {n}")
    level = max(1, (n - 3).bit_length())
    return ShapeParams(n, level, 2 ** level - (n - 2))


@lru_cache(maxsize=None)
def doubling_permutation(level: int) -> dict[int, int]:
    """Middle-slot permutation at chain length 2^level + 2.

    Built by the doubling recursion: slot k at the doubled length draws
    from slot (k + 2) / 2 when k is even and mirrors through the end,
    n + 1 - sigma((k + 1) / 2), when k is odd. Level one is the
    identity on {2, 3}.
    """
    if level < 1:
        raise InvalidRange(f"level must be >= 1, got {level}")
    if level == 1:
        return {2: 2, 3: 3}
    prev = doubling_permutation(level - 1)
    n_full = 2 ** level + 2
    out = {}
    for k in range(2, n_full):
        if k % 2 == 0:
            out[k] = prev[(k + 2) // 2]
        else:
            out[k] = n_full + 1 - prev[(k + 1) // 2]
    return out


def slot_sources(n: int) -> tuple[int | None, ...]:
    """Source index per middle slot at the padded length, None = identity.

    Entry j (0-based) describes slot k = j + 2 of the full chain: it
    carries matrix X_{source} when the doubling permutation sends k to
    a live index (at most n - 1), and an identity factor otherwise.
    The live sources enumerate {2, ..., n - 1} exactly once.
    """
    shape = shape_params(n)
    perm = doubling_permutation(shape.level_count)
    out = []
    for k in range(2, shape.full_n):
        src = perm[k]
        out.append(src if src <= n - 1 else None)
    return tuple(out)
