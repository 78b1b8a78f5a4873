"""Isomorphisms of codes: position permutations composed with per-position
letter bijections that respect complementation.

``Group(alphabet, dim, word)`` is the group of isomorphisms fixing a word
(all of them without one), built from the word as ``S_d`` over the
per-position letter-map groups.  Canonical forms are exact lexicographic
orbit minima, found by one of two walks.  Both number words through one
``core._Packing`` per letter set, spanning only the letters the codes
use: each element carries each of the group's letter classes (the fixed
word's letter at a position, its complement, the free letters; without a
word, every letter) onto itself, so the words over the classes the codes
touch hold every image.  Covers of a word never hold its complements, so
the census of covers of ``bbbbb`` over two pairs packs 3**5 words, not
4**5.  The packing keeps lex order, so the packed orbit minimum is the
canonical form.

* the element walk visits each group element once, each from the one
  before by one step planned from the group's layout
  (``Group._walk_plan``): ``order`` images per orbit.  A code is one int
  in the packing, a bit per word, where a larger int is a lex-smaller
  code, so the orbit minimum is the largest image.  A step permutes bits
  by masked shifts (Knuth, TAOCP 4A, 7.1.3) in one expression, ``code &
  fixed | (code & up) << rise | (code & down) >> fall``: it keeps some
  bits and moves one block up and one down, which is all that most steps
  move; the few others, such as position swaps, move their further
  blocks in a loop;
* the orbit walk goes breadth-first over the orbit and applies every
  generator to every orbit code: ``|generators|`` images per orbit code, so
  its cost scales with the orbit, not with the (possibly huge) group order.
  A code is a sorted tuple of packed words, and a generator a table from
  packed word to packed image (``_Packing.image``), filled as the walk
  meets words.

Groups of up to ``ELEMENT_WALK_MAX_ORDER`` elements take the element walk,
the rest the orbit walk, chosen when the group is built; both give the same
orbit.  The element walk's word spaces are small (at most 1,024 words, two
pairs at d=5); the orbit walk's can be far too large for a bit per word
(5**8 words for covers of ``b...b`` over three pairs at d=8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .alphabet import STAR, Alphabet, letter_name
from .core import Code, Word, _Packing, pack_word

# The element walk plans its steps once per group and letter set (0.3-0.6
# ms at the 3,840 elements of the two-pair stabilizer of bbbbb), then makes
# ``order`` images per orbit; the orbit walk makes ``|generators|`` images
# per orbit code.  So the element walk wins on near-regular orbits: at
# 3,840 elements the size-10 census of twin-pair-free covers of bbbbb
# dedups in 0.08 s against 1.6-1.9 s, and one of its canonical forms takes
# 1.2 ms against 36-39 ms; it loses on small orbits (a 2-word cover: 0.9 ms
# against 0.2 ms).  Above this order no family measured favours it
# throughout: at 5,040 (one pair, d=7) 200 random 3-word codes took 0.29 s
# against 0.72 s, 1-word codes 0.27-0.38 s against 0.02-0.03 s; at 46,080
# (two pairs, d=6) a 2-word cover's canonical form took 12-20 ms against
# 0.3-0.5 ms, the walk's plan included.  Timed (best of 2-3, process time)
# on a 2-core machine, whose speed varies by up to 2x between runs.
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

    The walk is chosen when the group is built.  A group of at most
    ``ELEMENT_WALK_MAX_ORDER`` elements is walked element by element over
    one-int codes, by one plan made then; others, such as the three-pair
    d=5 word stabilizer (3,932,160 elements), are walked breadth-first over
    the orbit with the swaps and the factors as generators.  Each call packs
    its codes over the letters of the letter classes their words touch
    (``_check``), and per letter set the group keeps that packing and its
    walk over it (``_walk``): the plan's bit steps, or one table per
    generator holding only the words met, never the whole word space.
    Codes with a repeated word are refused, since one int per code would
    merge the repeat.
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
        # per position, each letter's class as a bit: the word's letter,
        # its complement or a free letter; without a word, one class
        if word is None:
            self._classes = [[1] * alphabet.size] * dim
        else:
            self._classes = [
                [1 if s == w else 2 if s == w ^ 1 else 4 for s in alphabet.letters()] for w in word
            ]
        # the walk, chosen once: the element walk's plan, or None for the
        # orbit walk; then per letter set, its packing and the walk over it
        self._plan = self._walk_plan() if self.order <= ELEMENT_WALK_MAX_ORDER else None
        self._walks: dict[int, tuple[_Packing, list]] = {}

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
        packing, walk = self._walk(self._check([code]))
        packed = self._pack(code, packing)
        images = _orbit_walk(packed, walk) if self._plan is None else set(_bit_walk(packed, walk))
        return self._unpack(images, packing)

    def _check(self, codes: Iterable[Code]) -> int:
        """The letter classes the codes' words touch, as bits, once each
        code is checked in turn: its dimension, then its repeats, since
        one int per code would merge a repeat, then each word not met
        before, by ``pack_word``.  Each element carries each class onto
        itself, so every image of the codes packs over those classes'
        letters."""
        dim, alphabet, letter_classes = self.dim, self.alphabet, self._classes
        seen: set[Word] = set()
        classes = 0
        for code in codes:
            if any(map(dim.__ne__, map(len, code))):
                raise ValueError("dimension mismatch")
            words = set(code)
            if len(words) != len(code):
                raise ValueError("repeated word in code")
            if not words <= seen:
                for v in code:
                    if v not in seen:
                        pack_word(v, alphabet)
                        seen.add(v)
                        for at, s in zip(letter_classes, v):
                            classes |= at[s]
        return classes

    def _walk(self, classes: int) -> tuple[_Packing, list]:
        """The packing over the letters of ``classes``, and the group's walk
        over it: the element walk's bit steps, one per step of the plan, or
        the orbit walk's tables, one per generator from packed word to packed
        image.  Built when the group first meets the letter set, and kept."""
        kept = self._walks.get(classes)
        if kept is None:
            letters = [[s for s, c in enumerate(at) if c & classes] for at in self._classes]
            packing = _Packing(self.alphabet, self.dim, letters)
            if self._plan is None:
                walk = [packing.image(g.sigma, g.maps) for g in self.generators]
            else:
                elements, plan = self._plan
                steps = [self._bit_step(g, packing) for g in elements]
                walk = [steps[k] for k in plan]
            kept = self._walks[classes] = packing, walk
        return kept

    def _pack(self, code: Code, packing: _Packing) -> int | tuple[int, ...]:
        """The checked code as its walk takes it: one int for the element
        walk, a sorted tuple of packed words for the orbit walk."""
        if self._plan is None:
            return tuple(sorted(map(packing.index.__getitem__, code)))
        return packing.pack(code)

    def _unpack(self, images: Iterable, packing: _Packing) -> frozenset[Code]:
        if self._plan is None:
            words = packing.words
            return frozenset(tuple(map(words.__getitem__, image)) for image in images)
        return frozenset(map(packing.unpack, images))

    def _least_image(
        self, packed: int | tuple[int, ...], pending: set, walk: list
    ) -> int | tuple[int, ...]:
        """The packed orbit minimum of a packed code, with the orbit's codes
        taken out of ``pending``.  The element walk's images stream by, and
        only the largest int so far is kept."""
        if self._plan is None:
            orbit = _orbit_walk(packed, walk)
            pending.difference_update(orbit)
            return min(orbit)
        best = packed
        for image in _bit_walk(packed, walk):
            if image in pending:
                pending.remove(image)
            if image > best:
                best = image
        return best

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

    def _bit_step(self, g: GroupElement, packing: _Packing) -> tuple:
        """``g`` on one-int codes in ``packing`` as ``(fixed, up, rise,
        down, fall, extra)``: the bits of ``fixed`` stay, those of ``up``
        move up by ``rise`` and those of ``down`` down by ``fall``, and
        ``extra`` holds ``(left, right)``, each ``(mask, shift)`` in
        ``left`` (``right``) moving its bits up (down) by ``shift``, or is
        empty.  The words with given letters at the positions ``g`` moves
        form one block, the AND of those letters' masks, and all move by one
        shift: a word's bit falls by its packed value's rise, what the
        image's letters add less what the word's add (``packing.values``).
        Most steps move one block each way, so only the first block each
        way has a slot of its own; a step that moves no word of the packing
        keeps every bit."""
        identity = _identity_map(self.alphabet)
        moved = [i for i in range(self.dim) if g.sigma[i] != i or g.maps[i] != identity]
        masks, values = packing.letters, packing.values
        blocks: dict[int, int] = {}  # shift -> mask
        for choice in itertools.product(*(packing.digits[i] for i in moved)):
            letter = dict(zip(moved, choice))
            mask, shift = (2 << packing.top) - 1, 0
            for i, s in zip(moved, choice):
                mask &= masks[i][s]
                shift += values[i][s] - values[i][g.maps[i][letter[g.sigma[i]]]]
            blocks[shift] = blocks.get(shift, 0) | mask
        # a permutation of bits moves some up exactly when it moves some down
        up, *left = [(mask, shift) for shift, mask in blocks.items() if shift > 0] or [(0, 0)]
        down, *right = [(mask, -shift) for shift, mask in blocks.items() if shift < 0] or [(0, 0)]
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


def _orbit_walk(code: tuple, tables: list[dict[int, int]]) -> set[tuple]:
    """Breadth-first over the orbit: every generator's table on every image."""
    seen = {code}
    queue = [code]
    for state in queue:
        for table in tables:
            image = tuple(sorted(map(table.__getitem__, state)))
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


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
    """Lexicographic minimum over the orbit; equal on all orbit members."""
    (canonical,) = dedup_orbits((code,), group)
    return canonical


def dedup_orbits(family: Iterable[Code], group: Group) -> tuple[Code, ...]:
    """One canonical representative per orbit met by the family.

    The family's distinct words are scanned once for the letter classes
    they touch, the family is packed once over those classes' letters, and
    each orbit is walked packed; packing keeps lex order, so the packed
    orbit minimum is the canonical form, and only the representatives are
    unpacked.  Only the family's codes not yet met are kept, not the orbits
    walked: an orbit can hold many codes outside the family, and keeping
    them all set the memory peak."""
    family = list(family)
    packing, walk = group._walk(group._check(family))
    pending = {group._pack(code, packing) for code in family}
    minima = []
    while pending:
        minima.append(group._least_image(pending.pop(), pending, walk))
    return tuple(sorted(group._unpack(minima, packing)))


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
