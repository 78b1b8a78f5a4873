"""Brute-force realization oracle.

Every code has a realization by boxes over the axis set of complement
transversals: the axis holds one point per choice of orientation for each
letter pair (``2**k`` points), and the box of a word keeps, per position,
the points whose choice for that letter's pair matches the letter.  All
boxes have equal volume, and dichotomous words get disjoint boxes.

This module answers cover questions by enumerating cells explicitly: a box
is one int over the ``(2**k)**d`` cells, bit ``c`` for cell ``c``, whose
point at position ``i`` is digit ``i`` of ``c`` in radix ``2**k``.  It
deliberately shares no logic with the weight criterion in :mod:`core`; the
two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from .alphabet import STAR, Alphabet
from .core import Code, Word

CELL_CAP = 1 << 24


def _check_scale(alphabet: Alphabet, dim: int) -> None:
    if (1 << alphabet.pair_count) ** dim > CELL_CAP:
        raise ValueError("realization too large to enumerate")


def _check_dims(v: Word, w: Word) -> None:
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")


def box(v: Word, alphabet: Alphabet) -> int:
    """Cell bitset of the word's box, built position by position.  The box
    over the positions before ``i`` fills block 0 of ``2**k`` blocks; it is
    copied, by doubling, to every block whose point has a 0 for the
    letter's pair, and the copies then shift to the letter's half."""
    _check_scale(alphabet, len(v))
    k = alphabet.pair_count
    cells, block = 1, 1
    for s in v:
        if s == STAR:
            raise ValueError("joker has no realization")
        if not 0 <= s < 2 * k:
            raise ValueError(f"letter {s} is not in the alphabet")
        pair, side = s >> 1, s & 1
        for j in range(k):
            if j != pair:
                cells |= cells << (block << j)
        cells <<= (block << pair) * side
        block <<= k
    return cells


def oracle_is_covered(w: Word, code: Code, alphabet: Alphabet) -> bool:
    """Cell-by-cell containment: no cell of the word's box is left once the
    code's boxes are taken out.  The empty code takes out nothing."""
    cells = box(w, alphabet)
    for v in code:
        _check_dims(v, w)
        cells &= ~box(v, alphabet)
    return not cells


def oracle_boxes_meet(v: Word, w: Word, alphabet: Alphabet) -> bool:
    _check_dims(v, w)
    return bool(box(v, alphabet) & box(w, alphabet))


def oracle_meet_count(code: Code, w: Word, alphabet: Alphabet) -> int:
    """How many boxes of the code intersect the box of ``w``."""
    return sum(1 for v in code if oracle_boxes_meet(v, w, alphabet))
