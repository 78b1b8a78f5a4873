"""Deterministic random generation of words and codes for fuzz checks.

Everything takes an explicit ``random.Random`` so runs are reproducible;
no global state is touched.  Codes are searched over the word space's
``core._Packing``, kept once per alphabet and dimension.  A code costs one
``rng.shuffle`` of the space's bit indices, in ``itertools.product``
order; the search that follows walks that order against the packing's
letter masks, draws nothing, and builds a word only when it takes it.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from .alphabet import Alphabet
from .core import STATE_BITS_CAP, Code, Word, _dichotomy_row, _Packing


def random_word(alphabet: Alphabet, dim: int, rng: Random) -> Word:
    return tuple(rng.randrange(alphabet.size) for _ in range(dim))


_packing = lru_cache(maxsize=8)(_Packing)


def _shuffled_space(alphabet: Alphabet, dim: int, rng: Random) -> tuple[_Packing, list[int]]:
    """The space's packing and its bit indices in shuffled word order.
    ``rng.shuffle`` draws by length alone, so the stream is the one a
    shuffle of the word tuples would make."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    size = alphabet.size**dim
    if size > STATE_BITS_CAP:
        raise ValueError(f"word space too large: {size:,} words (cap {STATE_BITS_CAP:,})")
    packing = _packing(alphabet, dim)
    order = list(range(packing.top, -1, -1))
    rng.shuffle(order)
    return packing, order


def random_code(
    alphabet: Alphabet, dim: int, rng: Random, max_size: int | None = None
) -> Code:
    """Greedy code from a shuffled word space; size varies with the draw.
    Each word joins when dichotomous with all words taken before it."""
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    packing, order = _shuffled_space(alphabet, dim, rng)
    letters, words, top = packing.letters, packing.words, packing.top
    candidates = (1 << len(order)) - 1
    chosen: list[Word] = []
    for b in order:
        if candidates >> b & 1:
            q = words[top - b]
            chosen.append(q)
            if len(chosen) == max_size:
                break
            candidates &= _dichotomy_row(letters, q)
            if not candidates:
                break
    return tuple(sorted(chosen))


def random_tiling_code(alphabet: Alphabet, dim: int, rng: Random) -> Code:
    """A uniform-ish cube tiling code found by randomized backtracking:
    the first one completed from the shuffled word space.  A word's bit is
    cleared once tried, so every candidate left lies at or after the index
    where a level resumes, and a branch with fewer candidates left than
    words missing holds none: cutting it does not change which one is
    found."""
    packing, order = _shuffled_space(alphabet, dim, rng)
    letters, words, top = packing.letters, packing.words, packing.top
    chosen: list[Word] = []

    def rec(candidates: int, need: int, j: int) -> bool:
        if need == 0:
            return True
        while candidates.bit_count() >= need:
            while not candidates >> order[j] & 1:
                j += 1
            b = order[j]
            j += 1
            candidates ^= 1 << b
            q = words[top - b]
            chosen.append(q)
            if rec(candidates & _dichotomy_row(letters, q), need - 1, j):
                return True
            chosen.pop()
        return False

    found = rec((1 << len(order)) - 1, 1 << dim, 0)
    del rec  # it calls itself through its cell: free the cycle now
    if not found:
        raise RuntimeError("backtracking failed to complete a tiling code")
    return tuple(sorted(chosen))
