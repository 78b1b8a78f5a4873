"""Words, codes and the cover calculus.

A word is a tuple of letters; a (polybox) code is a sorted tuple of
pairwise dichotomous proper words.  Everything here is a pure function on
immutable data, so all of it is safe to call concurrently.

The central quantity is ``overlap_weight(v, w)``: the product over
positions of 2 (equal letters), 0 (complementary letters) or 1 (letters
from different pairs).  It is proportional to the volume of the
intersection of the boxes realizing ``v`` and ``w``; a word is covered by
a code exactly when its accumulated weight reaches ``2**d``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .alphabet import MAX_DIM, MAX_PAIRS, STAR, Alphabet, letter_name

Word = tuple[int, ...]
Code = tuple[Word, ...]


def _check_dims(v: Word, w: Word) -> None:
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")


def is_proper(v: Word) -> bool:
    """True when the word contains no joker."""
    return STAR not in v


def _require_proper(v: Word) -> None:
    if not is_proper(v):
        raise ValueError(f"proper word required: {format_plain(v)}")


def format_plain(v: Word) -> str:
    return "".join(letter_name(s) for s in v)


def is_dichotomous(v: Word, w: Word) -> bool:
    """Some position carries complementary letters."""
    _check_dims(v, w)
    _require_proper(v)
    _require_proper(w)
    return any(a == b ^ 1 for a, b in zip(v, w))


def _dichotomy_row(masks: list[list[int]], v: Word) -> int:
    """The mask of the words dichotomous with ``v``, over ``_Packing.letters``."""
    row = 0
    for i, s in enumerate(v):
        row |= masks[i][s ^ 1]
    return row


# packed words: a word is its mixed-radix number over the alphabet's
# letters, position 0 most significant, so sorting packed words keeps lex
# order ------------------------------------------------------------------

def pack_word(v: Word, alphabet: Alphabet) -> int:
    radix = alphabet.size
    n = 0
    for s in v:
        if not 0 <= s < radix:
            raise ValueError(
                f"letter {s} is outside the alphabet of {alphabet.pair_count} pairs"
            )
        n = n * radix + s
    return n


class _DigitSum(dict):
    """Packed word -> ``start + lookups[0][last digit] + ...``, least
    significant digit first, each lookup holding one entry per value of
    its digit; filled as words are met, so it holds only those, never the
    whole word space.  With int lookups it is a packed image of words;
    with one-letter tuples it unpacks."""

    __slots__ = ("lookups", "start")

    def __init__(self, lookups: list[tuple], start) -> None:
        super().__init__()
        self.lookups = [(len(lookup), lookup) for lookup in lookups]
        self.start = start

    def __missing__(self, n: int):
        value, rest = self.start, n
        for radix, lookup in self.lookups:
            value = lookup[rest % radix] + value
            rest //= radix
        self[n] = value
        return value


# Flip searches and random codes hold a code as a bit per word, and refuse
# word spaces over this (8 KiB a code): d=5 from five pairs, d=6 from four,
# d>=7 from three.  No repro job, bundled code or benchmark workload needs them.
STATE_BITS_CAP = 1 << 16


class _WordIndex(dict):
    """Word -> packed word, filled as words are met: a word's first sight
    is checked by ``pack_word``, so a refused word is never kept, and then
    sums what each of its letters adds (``values``)."""

    def __init__(self, alphabet: Alphabet, values: list[dict[int, int]]) -> None:
        super().__init__()
        self.alphabet = alphabet
        self.values = values

    def __missing__(self, v: Word) -> int:
        pack_word(v, self.alphabet)
        n = self[v] = sum(map(dict.__getitem__, self.values, v))
        return n


class _Packing:
    """The one numbering of words: ``dim``-letter words over the letters
    ``digits[i]`` at each position ``i`` (by default every letter of the
    alphabet).  A word packs to its mixed-radix number over each
    position's sorted letters, position 0 most significant, so packed
    words keep lex order; ``places[i]`` is what one digit at position ``i``
    adds, and ``values[i]`` what each of its letters adds.  ``index`` maps
    each word met, as a tuple, to its packed word, checking it by
    ``pack_word`` once, and ``words`` maps packed words back; both hold
    only the words met, so a packing over a huge space costs nothing until
    it is used.  ``image`` gives the packed images under an isomorphism.

    A code is one int, packed word ``w`` at bit ``top - w``: between codes
    of one size a larger int is a lex-smaller code, and every word mask
    takes this bit order.  ``letters[i][s]``, built on first read, is the
    mask of the words with letter ``s`` at position ``i``, and 0 for a
    letter the packing does not hold there: at radix ``r`` and place value
    ``p``, the word at bit ``b`` has the digit ``r - 1`` less ``b``'s
    digit, so each digit's mask is a run of ``p`` bits with period
    ``r * p``."""

    def __init__(
        self, alphabet: Alphabet, dim: int, letters: Iterable[Iterable[int]] | None = None
    ) -> None:
        if letters is None:
            letters = [alphabet.letters()] * dim
        self.digits = [tuple(sorted(at)) for at in letters]
        self.places, size = [], 1
        for at in reversed(self.digits):
            self.places.append(size)
            size *= len(at)
        self.places.reverse()
        self.alphabet, self.dim, self.radix, self.top = alphabet, dim, alphabet.size, size - 1
        self.values = [
            {s: d * p for d, s in enumerate(at)} for at, p in zip(self.digits, self.places)
        ]
        self.words = _DigitSum([tuple((s,) for s in at) for at in reversed(self.digits)], ())
        self.index = _WordIndex(alphabet, self.values)

    @cached_property
    def letters(self) -> list[list[int]]:
        size, masks = self.top + 1, []
        for at, place, value in zip(self.digits, self.places, self.values):
            radix, first = len(at), 0
            if size:
                run = ((1 << place) - 1) * ((1 << size) - 1) // ((1 << radix * place) - 1)
                first = run << (radix - 1) * place  # digit 0's mask
            masks.append([first >> value[s] if s in value else 0 for s in range(self.radix)])
        return masks

    def image(self, sigma: Sequence[int], maps: Sequence[Sequence[int]]) -> _DigitSum:
        """Packed word -> packed image under the isomorphism ``out[i] =
        maps[i][word[sigma[i]]]``, which must carry the letters of
        position ``sigma[i]`` onto letters of position ``i``."""
        lookups = []
        for j in reversed(range(self.dim)):
            i = sigma.index(j)
            lookups.append(tuple(self.values[i][maps[i][s]] for s in self.digits[j]))
        return _DigitSum(lookups, 0)

    def pack(self, code: Iterable[Word]) -> int:
        index, top = self.index, self.top
        return sum(1 << top - index[tuple(v)] for v in code)

    def unpack(self, state: int) -> Code:
        words, top, code = self.words, self.top, []
        while state:
            b = state.bit_length() - 1
            code.append(words[top - b])
            state ^= 1 << b
        return tuple(code)


def twin_pair_direction(v: Word, w: Word) -> Optional[int]:
    """The unique position (0-based) where the words differ, if they differ
    there by complementation only; None otherwise."""
    _check_dims(v, w)
    _require_proper(v)
    _require_proper(w)
    direction = None
    for i, (a, b) in enumerate(zip(v, w)):
        if a == b:
            continue
        if a != b ^ 1 or direction is not None:
            return None
        direction = i
    return direction


def overlap_weight(v: Word, w: Word) -> int:
    """Product of per-position factors 2 / 0 / 1 (equal / complementary /
    independent).  Zero exactly when the words are dichotomous."""
    _check_dims(v, w)
    _require_proper(v)
    _require_proper(w)
    weight = 1
    for a, b in zip(v, w):
        if a == b:
            weight <<= 1
        elif a == b ^ 1:
            return 0
    return weight


def cover_weight(w: Word, code: Iterable[Word]) -> int:
    """Total overlap weight of ``w`` against the code."""
    return sum(overlap_weight(v, w) for v in code)


def is_covered(w: Word, code: Iterable[Word]) -> bool:
    """The box of ``w`` lies inside the union of the code's boxes.

    For a code the weight can never exceed ``2**d``, and equality is the
    cover criterion."""
    return cover_weight(w, code) == 1 << len(w)


def code_covered(inner: Iterable[Word], outer: Code) -> bool:
    return all(is_covered(v, outer) for v in inner)


def are_equivalent(first: Code, second: Code) -> bool:
    """Mutual covering.  Disjointness is deliberately a separate predicate:
    several constructions need one without the other."""
    return code_covered(first, second) and code_covered(second, first)


def are_disjoint(first: Iterable[Word], second: Iterable[Word]) -> bool:
    return not set(first) & set(second)


def density(first: Iterable[Word], second: Iterable[Word]) -> int:
    """Minimum over the second code's words of how many words of the first
    one meet it (are not dichotomous with it)."""
    second = tuple(second)
    if not second:
        raise ValueError("density against an empty code")
    first = tuple(first)
    return min(
        sum(1 for v in first if overlap_weight(v, w) > 0) for w in second
    )


def common_density(first: Code, second: Code) -> int:
    return min(density(first, second), density(second, first))


def make_code(words: Iterable[Word], alphabet: Alphabet | None = None) -> Code:
    """Canonical (sorted) code; raises on jokers, duplicates or a
    non-dichotomous pair."""
    out = sorted(words)
    if out and len(out[0]) > MAX_DIM:
        raise ValueError(f"dimension {len(out[0])} above the cap of {MAX_DIM}")
    for v in out:
        _require_proper(v)
        if alphabet is not None and not alphabet.spells(v):
            names = (letter_name(s) if s in Alphabet(MAX_PAIRS) else repr(s) for s in v)
            raise ValueError(f"letter outside alphabet in {''.join(names)}")
    for prev, cur in zip(out, out[1:]):
        if prev == cur:
            raise ValueError(f"duplicate word {format_plain(cur)}")
        if len(prev) != len(cur):
            raise ValueError("mixed dimensions in code")
    # the words are checked above, so each pair needs only the complement test
    for i, v in enumerate(out):
        for w in out[i + 1 :]:
            if not any(a == b ^ 1 for a, b in zip(v, w)):
                raise ValueError(
                    f"not dichotomous: {format_plain(v)} / {format_plain(w)}"
                )
    return tuple(out)


def is_polybox_code(words: Iterable[Word]) -> bool:
    try:
        make_code(words)
    except ValueError:
        return False
    return True


def is_cube_tiling_code(code: Code) -> bool:
    return bool(code) and len(code) == 1 << len(code[0])


# binary codes -----------------------------------------------------------

def binary_code(v: Word) -> tuple[int, ...]:
    """Per-position bit of each letter: 0 for unprimed, 1 for primed."""
    _require_proper(v)
    return tuple(s & 1 for s in v)


def binary_code_set(code: Iterable[Word]) -> frozenset[tuple[int, ...]]:
    """On a code this is injective: dichotomy forces a differing bit."""
    return frozenset(binary_code(v) for v in code)


# distributions ----------------------------------------------------------

def distribution(
    code: Code, position: int, alphabet: Alphabet
) -> tuple[tuple[int, int], ...]:
    """Counts of each letter pair at one position: entry ``j`` is the pair
    (number of words with letter 2j, number with 2j+1)."""
    counts = []
    for s in alphabet.unprimed():
        counts.append(
            (
                sum(1 for v in code if v[position] == s),
                sum(1 for v in code if v[position] == s ^ 1),
            )
        )
    return tuple(counts)


def pairs_at(code: Iterable[Word], position: int) -> frozenset[int]:
    """Letter pairs occurring at one position."""
    return frozenset(v[position] >> 1 for v in code)


def is_simple(code: Code) -> bool:
    """Exactly one letter pair occurs at every position."""
    if not code:
        return True
    return all(len(pairs_at(code, i)) == 1 for i in range(len(code[0])))


def flat_witness(code: Code) -> Optional[tuple[int, int]]:
    """A position and letter shared by every word, if there is one."""
    if not code:
        return None
    for i in range(len(code[0])):
        letters = {v[i] for v in code}
        if len(letters) == 1:
            return i, next(iter(letters))
    return None
