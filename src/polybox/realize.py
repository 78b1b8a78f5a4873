"""Brute-force realization oracle.

Every code has a realization by boxes over the axis set of complement
transversals: the axis holds one point per choice of orientation for each
letter pair (``2**k`` points), and the box of a word keeps, per position,
the points whose choice for that letter's pair matches the letter.  All
boxes have equal volume, and dichotomous words get disjoint boxes.

This module answers cover questions by enumerating cells explicitly.  It
deliberately shares no logic with the weight criterion in :mod:`core`; the
two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import numpy as np

from .alphabet import STAR, Alphabet
from .core import Code, Word

CELL_CAP = 1 << 24


def _check_scale(alphabet: Alphabet, dim: int) -> None:
    if (1 << alphabet.pair_count) ** dim > CELL_CAP:
        raise ValueError("realization too large to enumerate")


def _check_dims(v: Word, w: Word) -> None:
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")


def _axis(letter: int, alphabet: Alphabet) -> np.ndarray:
    """Membership of each axis point in the letter's half of the axis."""
    if letter == STAR:
        raise ValueError("joker has no realization")
    points = np.arange(1 << alphabet.pair_count)
    return ((points >> (letter >> 1)) & 1) == (letter & 1)


def box(v: Word, alphabet: Alphabet) -> np.ndarray:
    """Boolean cell array of the word's box, shape ``(2**k,) * d``."""
    _check_scale(alphabet, len(v))
    cells = np.ones((), dtype=bool)
    for s in v:
        cells = np.multiply.outer(cells, _axis(s, alphabet))
    return cells


def oracle_is_covered(w: Word, code: Code, alphabet: Alphabet) -> bool:
    """Cell-by-cell containment: no cell of the word's box is left once the
    code's boxes are taken out.  The empty code takes out nothing."""
    cells = box(w, alphabet)
    for v in code:
        _check_dims(v, w)
        cells &= ~box(v, alphabet)
    return not np.any(cells)


def oracle_boxes_meet(v: Word, w: Word, alphabet: Alphabet) -> bool:
    _check_dims(v, w)
    return bool(np.any(box(v, alphabet) & box(w, alphabet)))


def oracle_meet_count(code: Code, w: Word, alphabet: Alphabet) -> int:
    """How many boxes of the code intersect the box of ``w``."""
    return sum(1 for v in code if oracle_boxes_meet(v, w, alphabet))
