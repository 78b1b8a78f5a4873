"""Paired alphabets: 2k letters closed under a fixed-point-free complement.

Letters are small integers.  Pair j occupies values 2j (unprimed, written
``a``..``h``) and 2j+1 (primed, written ``a'``..``h'``), so complementation
is a single bit toggle.  The joker ``*`` is a reserved sentinel that is its
own complement; it never appears in stored codes, only in glue/cut
intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_PAIRS = 8
MAX_DIM = 8

STAR = -1

_PAIR_CHARS = "abcdefgh"


def letter_name(letter: int) -> str:
    if letter == STAR:
        return "*"
    if not 0 <= letter < 2 * MAX_PAIRS:
        raise ValueError(f"not a letter: {letter}")
    base = _PAIR_CHARS[letter >> 1]
    return base + "'" if letter & 1 else base


def parse_letter(text: str) -> int:
    """Inverse of :func:`letter_name` (``a``, ``a'``, ..., ``h'``, ``*``)."""
    if text == "*":
        return STAR
    if not text or text[0] not in _PAIR_CHARS or len(text) > 2:
        raise ValueError(f"not a letter: {text!r}")
    letter = 2 * _PAIR_CHARS.index(text[0])
    if len(text) == 2:
        if text[1] != "'":
            raise ValueError(f"not a letter: {text!r}")
        letter += 1
    return letter


@dataclass(frozen=True)
class Alphabet:
    """The letter universe used by enumeration and move operations.

    Predicates on words do not need it; anything that has to *produce*
    letters (flips, candidate pools, group elements) does.
    """

    pair_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.pair_count <= MAX_PAIRS:
            raise ValueError(f"pair_count must be in 1..{MAX_PAIRS}")

    @property
    def size(self) -> int:
        return 2 * self.pair_count

    def letters(self) -> range:
        return range(2 * self.pair_count)

    def unprimed(self) -> range:
        return range(0, 2 * self.pair_count, 2)

    def __contains__(self, letter: object) -> bool:
        return self.spells((letter,))

    def spells(self, word: Iterable[object]) -> bool:
        """Whether every letter of ``word`` is an int from 0 to ``size - 1``."""
        size = 2 * self.pair_count
        return all(isinstance(s, int) and 0 <= s < size for s in word)


def inferred_alphabet(words: Iterable[tuple[int, ...]]) -> Alphabet:
    """Smallest alphabet whose pairs cover every letter that occurs."""
    top = 0
    for w in words:
        for s in w:
            if s != STAR:
                top = max(top, s)
    return Alphabet(pair_count=max(1, top // 2 + 1))
