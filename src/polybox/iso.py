"""Isomorphisms of codes: position permutations composed with per-position
letter bijections that respect complementation.

``Group(alphabet, dim, word)`` is the group of isomorphisms fixing a word
(all of them without one), built from the word as ``S_d`` over the
per-position letter-map groups.  Canonical forms are exact lexicographic
orbit minima, found by one of two walks:

* the element walk visits each group element once, each from the one
  before by one step planned from the group's layout
  (``Group._walk_steps``): ``order`` images per orbit.  A code is one int
  in ``core._Packing``'s layout, a bit per word, where a larger int is a
  lex-smaller code, so the orbit minimum is the largest image.  A step
  permutes bits by masked shifts (Knuth, TAOCP 4A, 7.1.3) in one
  expression, ``code & fixed | (code & up) << rise | (code & down) >>
  fall``: it keeps some bits and moves one block up and one down, which
  is all that most steps move; the few others, such as position swaps,
  move their further blocks in a loop;
* the orbit walk goes breadth-first over the orbit and applies every
  generator to every orbit code: ``|generators|`` images per orbit code, so
  its cost scales with the orbit, not with the (possibly huge) group order.
  A code is a sorted tuple of packed words (``core.pack_code``: a word is
  its mixed-radix number over the alphabet's letters, so lex order is
  kept), and a generator a table from packed word to packed image, filled
  as the walk meets words.

Groups of up to ``ELEMENT_WALK_MAX_ORDER`` elements take the element walk,
the rest the orbit walk; both give the same orbit.  The element walk's word
spaces are small (at most 1,024 words, two pairs at d=5); the orbit walk's
can be far too large for a bit per word (6**8 words at three pairs, d=8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .alphabet import STAR, Alphabet, letter_name
from .core import Code, Word, _DigitSum, _Packing, pack_code, place_values, word_table

# The element walk plans its steps once per group (0.5 ms at the 3,840
# elements of the two-pair stabilizer of bbbbb), then makes ``order``
# images per orbit; the orbit walk makes ``|generators|`` images per orbit
# code.  So the element walk wins on near-regular orbits: at 3,840 elements
# the size-10 census of twin-pair-free covers of bbbbb dedups in 0.13-0.18 s
# against 1.8-2.2 s, and one of its canonical forms takes 2-3 ms against
# 40-70 ms; it loses on small orbits (a 2-word cover: 1-2 ms against
# 0.05 ms).  Above this order no family measured favours it throughout: at
# 5,040 (one pair, d=7) 200 random 3-word codes took 0.51 s against 1.10 s,
# 1-word codes 0.33 s against 0.02 s; at 46,080 (two pairs, d=6) a small
# cover's canonical form took 28 ms against 0.4 ms, the walk's plan
# included.  Timed on a 2-core machine, whose speed varies by up to 2x
# between runs.
ELEMENT_WALK_MAX_ORDER = 5_000


@dataclass(frozen=True)
class GroupElement:
    """Acts as ``out[i] = maps[i][word[sigma[i]]]``: permute positions,
    then apply one complement-respecting letter bijection per position."""

    sigma: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]


def element(sigma: Iterable[int], maps: Iterable[Iterable[int]]) -> GroupElement:
    sigma = tuple(sigma)
    maps = tuple(tuple(m) for m in maps)
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError("sigma must be a permutation of positions")
    if len(maps) != len(sigma):
        raise ValueError("need one letter map per position")
    for m in maps:
        if sorted(m) != list(range(len(m))):
            raise ValueError("letter map must be a bijection")
        if any(m[s ^ 1] != m[s] ^ 1 for s in range(len(m))):
            raise ValueError("letter map must respect complementation")
    return GroupElement(sigma=sigma, maps=maps)


def apply_word(g: GroupElement, v: Word) -> Word:
    return tuple(
        STAR if v[g.sigma[i]] == STAR else g.maps[i][v[g.sigma[i]]]
        for i in range(len(v))
    )


def apply_code(g: GroupElement, code: Code) -> Code:
    return tuple(sorted(apply_word(g, v) for v in code))


class Group:
    """The isomorphisms of ``dim``-position codes over the alphabet that fix
    ``word``, or all of them when ``word`` is None.

    Its layout is ``S_d`` over the normal product ``N`` of per-position
    letter-map groups ``N_i``: ``N_i`` holds the complement-respecting maps
    that fix the word's letter at position ``i`` (all of them without a
    word), generated by one orientation flip of the first pair they move
    and the adjacent swaps of the pairs they move (``factors[i]``); the
    position swaps ``swaps[k]`` exchange positions ``k`` and ``k + 1`` and
    carry each of the two letters of the word onto the other.  Every
    position permutation so extends to an element, and ``order`` is
    ``d! * prod |N_i|``.

    A group of at most ``ELEMENT_WALK_MAX_ORDER`` elements is walked element
    by element over one-int codes, along bit steps planned when it first
    walks and kept for its life with the letter masks they are built from.
    Others, such as the three-pair d=5 word stabilizer (3,932,160
    elements), are walked breadth-first over the orbit with the swaps and
    the factors as generators; their tables, one per generator, and the
    table that unpacks words are kept too, but hold only the words met,
    never the whole word space.  Codes with a repeated word are refused,
    since one int per code would merge the repeat.
    """

    def __init__(self, alphabet: Alphabet, dim: int, word: Word | None = None) -> None:
        self.alphabet = alphabet
        self.dim = dim
        self.word = word
        fixed = _identity_map(alphabet)
        self.swaps = []
        for k in range(dim - 1):
            maps = [fixed] * dim
            if word is not None:
                maps[k] = _transport(alphabet, word[k + 1], word[k])
                maps[k + 1] = _transport(alphabet, word[k], word[k + 1])
            self.swaps.append(GroupElement(sigma=_swap(dim, k), maps=tuple(maps)))
        self.factors = []
        for i in range(dim):
            free = [p for p in range(alphabet.pair_count) if word is None or p != word[i] >> 1]
            factor = [_orientation_flip(alphabet, p) for p in free[:1]]
            factor += [_pair_swap(alphabet, p, q) for p, q in zip(free, free[1:])]
            self.factors.append(factor)
        self.generators = self.swaps + [
            _position_element(alphabet, dim, i, m)
            for i, factor in enumerate(self.factors) for m in factor
        ]
        free_count = alphabet.pair_count - (word is not None)
        self.order = math.factorial(dim) * (math.factorial(free_count) << free_count) ** dim
        self._tables: list[_DigitSum] | None = None
        self._words: _DigitSum | None = None
        self._bits: _Packing | None = None
        self._steps: list[tuple[int, int, int, int, int, tuple]] | None = None

    def elements(self) -> Iterator[GroupElement]:
        """Every element, each position permutation with every choice of
        letter maps that carries the permuted word back onto the word."""
        letter_maps = list(_pair_preserving_maps(self.alphabet))
        for sigma in itertools.permutations(range(self.dim)):
            choices = [
                [m for m in letter_maps if self.word is None or m[self.word[j]] == self.word[i]]
                for i, j in enumerate(sigma)
            ]
            for maps in itertools.product(*choices):
                yield GroupElement(sigma=sigma, maps=maps)

    def orbit(self, code: Code) -> frozenset[Code]:
        """All images of the code."""
        packed = self._pack(code)
        if self._walks_elements():
            return self._unpack(set(_bit_walk(packed, self._walk_steps())))
        return self._unpack(self._orbit_walk(packed))

    def _walks_elements(self) -> bool:
        return self.order <= ELEMENT_WALK_MAX_ORDER

    def _pack(self, code: Code) -> int | tuple[int, ...]:
        """The code as its walk takes it: one int for the element walk, a
        sorted tuple of packed words for the orbit walk."""
        if any(len(v) != self.dim for v in code):
            raise ValueError("dimension mismatch")
        if len(set(code)) != len(code):
            raise ValueError("repeated word in code")
        if self._walks_elements():
            return self._packing().pack(code)
        return pack_code(code, self.alphabet)

    def _unpack(self, images: Iterable) -> frozenset[Code]:
        if self._walks_elements():
            return frozenset(map(self._packing().unpack, images))
        if self._words is None:
            self._words = word_table(self.alphabet, self.dim)
        words = self._words
        return frozenset(tuple(map(words.__getitem__, image)) for image in images)

    def _least_image(self, packed: int | tuple[int, ...], pending: set):
        """The packed orbit minimum of a packed code, with the orbit's codes
        taken out of ``pending``.  The element walk's images stream by, and
        only the largest int so far is kept."""
        if self._walks_elements():
            best = packed
            for image in _bit_walk(packed, self._walk_steps()):
                if image in pending:
                    pending.remove(image)
                if image > best:
                    best = image
            return best
        orbit = self._orbit_walk(packed)
        pending.difference_update(orbit)
        return min(orbit)

    def _packing(self) -> _Packing:
        if self._bits is None:
            self._bits = _Packing(self.alphabet, self.dim)
        return self._bits

    def _walk_tables(self) -> list[_DigitSum]:
        """One table per generator from packed word to packed image."""
        if self._tables is None:
            self._tables = [self._table(g) for g in self.generators]
        return self._tables

    def _table(self, g: GroupElement) -> _DigitSum:
        places = place_values(self.alphabet, self.dim)
        # source position j lands at position i with sigma[i] == j
        lookups = []
        for j in reversed(range(self.dim)):
            i = g.sigma.index(j)
            lookups.append(tuple(s * places[i] for s in g.maps[i]))
        return _DigitSum(self.alphabet.size, lookups, 0)

    def _orbit_walk(self, code: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Breadth-first over the orbit: every generator on every image."""
        tables = self._walk_tables()
        seen = {code}
        queue = [code]
        for state in queue:
            for table in tables:
                image = tuple(sorted(map(table.__getitem__, state)))
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        return seen

    def _walk_plan(self) -> tuple[list[GroupElement], list[int]]:
        """The distinct step elements, and the ``order - 1`` steps, as
        indices into them, that carry each element to the next from the
        identity, meeting each once.  ``N`` is walked like an odometer over
        a listing of each ``N_i``: a step left-multiplies one position's
        next entry over its last, so a rerun of the lower positions' walk
        covers them wherever it starts.  The swaps normalise ``N`` and meet
        the relations of ``S_d`` modulo ``N``, so between walks of ``N``,
        swaps in Steinhaus-Johnson-Trotter order step through its cosets."""
        fixed = _identity_map(self.alphabet)
        after = lambda g, m: tuple(map(g.__getitem__, m))
        elements, index, walk = list(self.swaps), {}, []
        for i, factor in enumerate(self.factors):
            listing = _closure(fixed, factor, after)
            lower, walk = walk, list(walk)
            for x in range(1, len(listing)):
                step = (i, after(listing[x], map(listing[x - 1].index, fixed)))
                if step not in index:
                    index[step] = len(elements)
                    elements.append(_position_element(self.alphabet, self.dim, *step))
                walk += [index[step]] + lower
        cosets = list(walk)
        for k in _sjt_swaps(self.dim):
            walk += [k] + cosets
        return elements, walk

    def _walk_steps(self) -> list[tuple[int, int, int, int, int, tuple]]:
        """The planned walk as bit steps, one per distinct element, built
        when the group first walks and kept for its life."""
        if self._steps is None:
            elements, walk = self._walk_plan()
            steps = list(map(self._bit_step, elements))
            self._steps = [steps[k] for k in walk]
        return self._steps

    def _bit_step(self, g: GroupElement) -> tuple[int, int, int, int, int, tuple]:
        """``g`` on one-int codes as ``(fixed, up, rise, down, fall,
        extra)``: the bits of ``fixed`` stay, those of ``up`` move up by
        ``rise`` and those of ``down`` down by ``fall``, and ``extra`` holds
        ``(left, right)``, each ``(mask, shift)`` in ``left`` (``right``)
        moving its bits up (down) by ``shift``, or is empty.  The words with
        given letters at the positions ``g`` moves form one block, the AND
        of those letters' masks, and all move by one shift: a word's bit
        falls by its packed value's rise, the letters' rises times their
        place values.  Most steps move one block each way, so only the
        first block each way has a slot of its own."""
        packing, places = self._packing(), place_values(self.alphabet, self.dim)
        identity = _identity_map(self.alphabet)
        moved = [i for i in range(self.dim) if g.sigma[i] != i or g.maps[i] != identity]
        blocks: dict[int, int] = {}  # shift -> mask
        for letters in itertools.product(identity, repeat=len(moved)):
            v = dict(zip(moved, letters))
            mask, shift = (2 << packing.top) - 1, 0
            for i in moved:
                mask &= packing.letters[i][v[i]]
                shift += (v[i] - g.maps[i][v[g.sigma[i]]]) * places[i]
            blocks[shift] = blocks.get(shift, 0) | mask
        # a step moves some word, so some bits go up and some down
        up, *left = [(mask, shift) for shift, mask in blocks.items() if shift > 0]
        down, *right = [(mask, -shift) for shift, mask in blocks.items() if shift < 0]
        extra = (tuple(left), tuple(right)) if left or right else ()
        return (blocks.get(0, 0), *up, *down, extra)


def _bit_walk(code: int, steps: Iterable[tuple]) -> Iterator[int]:
    """The one-int code, then its image after each step in turn."""
    yield code
    for fixed, up, rise, down, fall, extra in steps:
        image = code & fixed | (code & up) << rise | (code & down) >> fall
        if extra:
            left, right = extra
            for mask, shift in left:
                image |= (code & mask) << shift
            for mask, shift in right:
                image |= (code & mask) >> shift
        code = image
        yield code


def _closure(start, generators, after) -> list:
    """All that ``after(generator, x)`` reaches from ``start``, breadth-first."""
    listing, seen = [start], {start}
    for x in listing:
        for g in generators:
            image = after(g, x)
            if image not in seen:
                seen.add(image)
                listing.append(image)
    return listing


def _sjt_swaps(dim: int) -> list[int]:
    """The ``k`` of each swap of positions ``k``, ``k + 1`` that steps through
    all ``dim!`` permutations in Steinhaus-Johnson-Trotter order (Johnson,
    Math. Comp. 17, 1963): the last sweeps, the others step between sweeps."""
    swaps: list[int] = []
    for n in range(2, dim + 1):
        inner, swaps = swaps, []
        for b in range(len(inner) + 1):
            swaps += range(n - 2, -1, -1) if b % 2 == 0 else range(n - 1)
            if b < len(inner):
                swaps.append(inner[b] + 1 - b % 2)
    return swaps


def _swap(dim: int, k: int) -> tuple[int, ...]:
    sigma = list(range(dim))
    sigma[k], sigma[k + 1] = k + 1, k
    return tuple(sigma)


# letter-map building blocks ----------------------------------------------

def _identity_map(alphabet: Alphabet) -> tuple[int, ...]:
    return tuple(alphabet.letters())

def _orientation_flip(alphabet: Alphabet, pair: int) -> tuple[int, ...]:
    m = list(alphabet.letters())
    m[2 * pair], m[2 * pair + 1] = 2 * pair + 1, 2 * pair
    return tuple(m)

def _pair_swap(alphabet: Alphabet, p: int, q: int) -> tuple[int, ...]:
    m = list(alphabet.letters())
    m[2 * p], m[2 * p + 1] = 2 * q, 2 * q + 1
    m[2 * q], m[2 * q + 1] = 2 * p, 2 * p + 1
    return tuple(m)

def _transport(alphabet: Alphabet, source: int, target: int) -> tuple[int, ...]:
    """A canonical map sending ``source`` to ``target``."""
    if source == target:
        return _identity_map(alphabet)
    if source >> 1 == target >> 1:
        return _orientation_flip(alphabet, source >> 1)
    m = list(_pair_swap(alphabet, source >> 1, target >> 1))
    if (source & 1) != (target & 1):
        m[source & ~1], m[source | 1] = m[source | 1], m[source & ~1]
        m[target & ~1], m[target | 1] = m[target | 1], m[target & ~1]
    return tuple(m)


def _position_element(
    alphabet: Alphabet, dim: int, position: int, letter_map: tuple[int, ...]
) -> GroupElement:
    maps = [_identity_map(alphabet)] * dim
    maps[position] = letter_map
    return GroupElement(sigma=tuple(range(dim)), maps=tuple(maps))


def _pair_preserving_maps(alphabet: Alphabet) -> Iterator[tuple[int, ...]]:
    """All complement-respecting bijections of the alphabet."""
    k = alphabet.pair_count
    for pair_perm in itertools.permutations(range(k)):
        for orientation in itertools.product((0, 1), repeat=k):
            m = [0] * (2 * k)
            for p in range(k):
                m[2 * p] = 2 * pair_perm[p] + orientation[p]
                m[2 * p + 1] = 2 * pair_perm[p] + (orientation[p] ^ 1)
            yield tuple(m)


def word_stabilizer(word: Word, alphabet: Alphabet) -> Group:
    """All isomorphisms fixing the word, refusing letters outside the
    alphabet (the word may come from outside the program)."""
    for s in word:
        if s not in alphabet:
            raise ValueError(
                f"letter {letter_name(s)} of the stabilized word is outside "
                f"the alphabet of {alphabet.pair_count} pairs"
            )
    return Group(alphabet, len(word), word)


def canonical_form(code: Code, group: Group) -> Code:
    """Lexicographic minimum over the orbit; equal on all orbit members.
    Packing keeps lex order, so only the packed minimum is unpacked."""
    (canonical,) = group._unpack([group._least_image(group._pack(code), set())])
    return canonical


def dedup_orbits(family: Iterable[Code], group: Group) -> tuple[Code, ...]:
    """One canonical representative per orbit met by the family.

    The family is packed once and each orbit is walked packed; packing
    keeps lex order, so the packed orbit minimum is the canonical form, and
    only the representatives are unpacked.  Only the family's codes not yet
    met are kept, not the orbits walked: an orbit can hold many codes
    outside the family, and keeping them all set the memory peak."""
    pending = {group._pack(code) for code in family}
    minima = []
    while pending:
        minima.append(group._least_image(pending.pop(), pending))
    return tuple(sorted(group._unpack(minima)))


def greedy_relabel(code: Code) -> Code:
    """Cheap deterministic relabelling (first occurrence per position).

    Not guaranteed canonical: positions are not permuted and letter choices
    are greedy.  Never used where exact class counts matter."""
    if not code:
        return code
    dim = len(code[0])
    maps = []
    for i in range(dim):
        m: dict[int, int] = {}
        nxt = 0
        for v in sorted(code):
            s = v[i]
            if s not in m:
                m[s] = nxt
                m[s ^ 1] = nxt ^ 1
                nxt += 2
        maps.append(m)
    return tuple(sorted(tuple(maps[i][v[i]] for i in range(dim)) for v in code))
