"""Brute-force realization oracle.

Every code has a realization by boxes over the axis set of complement
transversals: the axis holds one point per choice of orientation for each
letter pair (``2**k`` points), and the box of a word keeps, per position,
the points whose choice for that letter's pair matches the letter.  All
boxes have equal volume, and dichotomous words get disjoint boxes.

This module answers cover questions by enumerating cells explicitly: a box
is one int over the ``(2**k)**d`` cells, bit ``c`` for cell ``c``, whose
point at position ``i`` is digit ``i`` of ``c`` in radix ``2**k``.  Per
alphabet and dimension it builds one table of cell masks, one for each
position and letter: the cells whose point at that position sits in the
letter's half.  A box is the AND of its word's masks.  The tables are
kept while they fit in the mask bits of one table at the cap.  The module
deliberately shares no logic with the weight criterion in :mod:`core`;
the two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from .alphabet import STAR, Alphabet
from .core import Code, Word

# A table holds 2kd masks of up to (2**k)**d bits: at the cap (kd = 24),
# 48 masks of up to 2 MiB, 94 MiB in all, since each clear-bit mask is
# shorter by its run.  The tables kept hold at most 96 MiB of masks, 48 of
# 2 MiB, so one table at the cap stays beside the small ones.  The trade at
# the cap: the first question there builds its table in about 0.12 s, and
# later boxes, each an AND of d masks of 2 MiB, are slower than shifting
# and ORing one up would be (a 3-word question, one 2-core machine: d=12
# over two pairs 0.005-0.008 s by doubling, 0.019-0.021 s by masks; d=8
# over three pairs 0.009-0.012 s, 0.014-0.016 s).  Up to 2**15 cells the
# masks are the faster route.
CELL_CAP = 1 << 24


def _check_scale(alphabet: Alphabet, dim: int) -> None:
    if (1 << alphabet.pair_count) ** dim > CELL_CAP:
        raise ValueError("realization too large to enumerate")


def _check_dims(v: Word, w: Word) -> None:
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")


def _refuse(s: int) -> None:
    if s == STAR:
        raise ValueError("joker has no realization")
    raise ValueError(f"letter {s} is not in the alphabet")


def _check_letters(v: Word, letters: int) -> None:
    for s in v:
        if not 0 <= s < letters:
            _refuse(s)


# (alphabet, dim) -> that table's masks and their bytes
_tables: dict[tuple[Alphabet, int], tuple[tuple[tuple[int, ...], ...], int]] = {}


def _cell_masks(alphabet: Alphabet, dim: int) -> tuple[tuple[int, ...], ...]:
    """The table kept for the alphabet and dimension, built on its first
    question.  Before a table is built, the largest tables kept are let go
    until it fits beside the rest in 2kd masks of ``CELL_CAP`` bits at kd =
    log2(CELL_CAP), the most a table at the cap could hold."""
    key = (alphabet, dim)
    if key not in _tables:
        need = _mask_bytes(alphabet.pair_count, dim)
        budget = (CELL_CAP.bit_length() - 1) * CELL_CAP // 4
        while _tables and need + sum(size for _, size in _tables.values()) > budget:
            del _tables[max(_tables, key=lambda kept: _tables[kept][1])]
        _tables[key] = _build_masks(alphabet.pair_count, dim), need
    return _tables[key][0]


def _mask_bytes(k: int, dim: int) -> int:
    """The bytes of the masks ``_build_masks`` returns: for each bit ``t``
    of a cell index, a set-bit mask whose top bit is the last cell's and a
    clear-bit mask ``2**t`` bits shorter."""
    cells = 1 << k * dim
    return sum((cells + 7) // 8 + (cells - (1 << t) + 7) // 8 for t in range(k * dim))


def _build_masks(k: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """Per position ``i``, the masks of letters ``0..2k-1``: letter ``s``
    keeps the cells whose point at ``i`` has bit ``s >> 1`` equal to
    ``s & 1``, that is the cells with bit ``t = k*i + (s >> 1)`` of their
    index equal to ``s & 1``.  The mask for a set bit ``t`` is a run of
    ``2**t`` ones above ``2**t`` zeros, doubled until it spans the cells;
    the mask for a clear bit is that one shifted down by ``2**t``."""
    cells = 1 << (k * dim)
    rows = []
    for i in range(dim):
        row = []
        for pair in range(k):
            half = 1 << (k * i + pair)
            upper, span = ((1 << half) - 1) << half, half << 1
            while span < cells:
                upper |= upper << span
                span <<= 1
            row += (upper >> half, upper)
        rows.append(tuple(row))
    return tuple(rows)


def _box(v: Word, rows: tuple[tuple[int, ...], ...], letters: int) -> int:
    """The AND of the word's masks, refusing its letters in order as
    :func:`_check_letters` does.  The empty word's box is the one cell of
    dimension 0."""
    cells = -1 if v else 1
    for s, masks in zip(v, rows):
        if not 0 <= s < letters:
            _refuse(s)
        cells &= masks[s]
    return cells


def _table(v: Word, alphabet: Alphabet) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The masks kept for the word's alphabet and dimension, and the
    letter count.  The word is checked first, so a refused word builds no
    table."""
    letters = 2 * alphabet.pair_count
    _check_scale(alphabet, len(v))
    _check_letters(v, letters)
    return _cell_masks(alphabet, len(v)), letters


def box(v: Word, alphabet: Alphabet) -> int:
    """Cell bitset of the word's box: the AND, over positions ``i``, of
    the mask of cells whose point at ``i`` lies in the letter's half,
    taken from the table kept for the alphabet and dimension."""
    return _box(v, *_table(v, alphabet))


def oracle_is_covered(w: Word, code: Code, alphabet: Alphabet) -> bool:
    """Cell-by-cell containment: no cell of the word's box is left once the
    code's boxes are taken out.  The empty code takes out nothing.  The
    table is fetched once, after the word's own checks."""
    rows, letters = _table(w, alphabet)
    cells = _box(w, rows, letters)
    for v in code:
        if len(v) != len(w):
            _check_dims(v, w)
        cells &= ~_box(v, rows, letters)
    return not cells


def oracle_boxes_meet(v: Word, w: Word, alphabet: Alphabet) -> bool:
    _check_dims(v, w)
    return bool(box(v, alphabet) & box(w, alphabet))


def oracle_meet_count(code: Code, w: Word, alphabet: Alphabet) -> int:
    """How many boxes of the code intersect the box of ``w``."""
    return sum(1 for v in code if oracle_boxes_meet(v, w, alphabet))
