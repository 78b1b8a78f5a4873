"""Deterministic random generation of words and codes for fuzz checks.

Everything takes an explicit ``random.Random`` so runs are reproducible;
no global state is touched.  A code costs one shuffle of the word pool;
the search that follows reads the pool's masks and draws nothing.
"""

from __future__ import annotations

import itertools
from random import Random

from .alphabet import Alphabet
from .core import Code, Word, _dichotomy_row, _letter_masks


def random_word(alphabet: Alphabet, dim: int, rng: Random) -> Word:
    return tuple(rng.randrange(alphabet.size) for _ in range(dim))


def _shuffled_pool(
    alphabet: Alphabet, dim: int, rng: Random
) -> tuple[list[Word], list[list[int]]]:
    pool = list(itertools.product(alphabet.letters(), repeat=dim))
    rng.shuffle(pool)
    return pool, _letter_masks(pool)


def random_code(
    alphabet: Alphabet, dim: int, rng: Random, max_size: int | None = None
) -> Code:
    """Greedy code from a shuffled word pool; size varies with the draw.
    Each word joins when dichotomous with all words taken before it."""
    pool, masks = _shuffled_pool(alphabet, dim, rng)
    candidates = (1 << len(pool)) - 1
    chosen: list[Word] = []
    while candidates:
        q = pool[(candidates & -candidates).bit_length() - 1]
        chosen.append(q)
        if max_size is not None and len(chosen) >= max_size:
            break
        candidates &= _dichotomy_row(masks, q)
    return tuple(sorted(chosen))


def random_tiling_code(alphabet: Alphabet, dim: int, rng: Random) -> Code:
    """A uniform-ish cube tiling code found by randomized backtracking:
    the first one completed from the shuffled pool.  A branch with fewer
    candidates left than words missing holds none, so cutting it does not
    change which one is found."""
    pool, masks = _shuffled_pool(alphabet, dim, rng)
    chosen: list[Word] = []

    def rec(candidates: int, need: int) -> bool:
        if need == 0:
            return True
        while candidates.bit_count() >= need:
            low = candidates & -candidates
            candidates ^= low
            q = pool[low.bit_length() - 1]
            chosen.append(q)
            if rec(candidates & _dichotomy_row(masks, q), need - 1):
                return True
            chosen.pop()
        return False

    if not rec((1 << len(pool)) - 1, 1 << dim):
        raise RuntimeError("backtracking failed to complete a tiling code")
    return tuple(sorted(chosen))
