"""Isomorphisms of codes: position permutations composed with per-position
letter bijections that respect complementation.

Canonical forms are exact lexicographic orbit minima.  Orbits of groups
with generators are walked over packed words (``core.pack_code``: a word
is its mixed-radix number over the alphabet's letters, so a code is a
sorted tuple of ints in the same lex order), with one table per generator
from packed word to packed image, filled as the walks meet words.  There are two walks:

* the element walk visits each group element once, over a Schreier tree,
  and derives each element's image of the code from its tree parent's with
  one table: ``order`` images per orbit;
* the orbit walk goes breadth-first over the orbit and applies every
  generator to every orbit code: ``|generators|`` images per orbit code, so
  its cost scales with the orbit, not with the (possibly huge) group order.

Groups of known order up to ``ELEMENT_WALK_MAX_ORDER`` take the element
walk, the rest the orbit walk; both give the same orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .alphabet import STAR, Alphabet, letter_name
from .core import Code, Word, _DigitSum, pack_code, place_values, word_table

# The element walk pays for a Schreier tree once per group (about 10 us
# per element) and then ``order`` images per orbit, whatever the orbit's
# size; the orbit walk pays ``|generators|`` images per orbit code.  So the
# element walk wins on near-regular orbits, such as the two-pair census of
# twin-pair-free covers of bbbbb (3,840 elements, orbits averaging 2,837
# codes): sizes 5-10 dedup in 1.0 s against 2.7 s on a 2-core machine.  It
# loses on small orbits: one canonical form, or the 2-4-word covers of
# bbbbb, cost about 35 ms more, the tree.  Above this order it gained on no
# family measured: at 5,040 elements (one pair, d=7) dedup of random 3-word
# codes broke even, and at 46,080 (two pairs, d=6) one canonical form took
# 0.42 s against 6 ms.
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


def identity(alphabet: Alphabet, dim: int) -> GroupElement:
    return GroupElement(
        sigma=tuple(range(dim)),
        maps=(tuple(alphabet.letters()),) * dim,
    )


def apply_word(g: GroupElement, v: Word) -> Word:
    return tuple(
        STAR if v[g.sigma[i]] == STAR else g.maps[i][v[g.sigma[i]]]
        for i in range(len(v))
    )


def apply_code(g: GroupElement, code: Code) -> Code:
    return tuple(sorted(apply_word(g, v) for v in code))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """The element acting as ``g`` after ``h``."""
    sigma = tuple(h.sigma[g.sigma[i]] for i in range(len(g.sigma)))
    maps = tuple(
        tuple(g.maps[i][h.maps[g.sigma[i]][s]] for s in range(len(g.maps[i])))
        for i in range(len(g.sigma))
    )
    return GroupElement(sigma=sigma, maps=maps)


def inverse(g: GroupElement) -> GroupElement:
    dim = len(g.sigma)
    sigma_inv = [0] * dim
    for i, j in enumerate(g.sigma):
        sigma_inv[j] = i
    maps = []
    for j in range(dim):
        forward = g.maps[sigma_inv[j]]
        back = [0] * len(forward)
        for s, t in enumerate(forward):
            back[t] = s
        maps.append(tuple(back))
    return GroupElement(sigma=tuple(sigma_inv), maps=tuple(maps))


class Group:
    """A finite group of code isomorphisms.

    Carries generators (for orbit walks) and optionally a lazy element
    enumerator; ``order`` is exact when known.

    A group whose ``order`` is known and at most ``ELEMENT_WALK_MAX_ORDER``
    is walked element by element over a Schreier tree, built when it first
    walks and kept for its life; others, such as the three-pair d=5 word
    stabilizer (3,932,160 elements), breadth-first over the orbit.  The
    generator tables and the table that unpacks words are kept too, but
    hold only the words met, never the whole word space.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        dim: int,
        generators: tuple[GroupElement, ...],
        elements_factory: Callable[[], Iterator[GroupElement]] | None = None,
        order: int | None = None,
    ) -> None:
        self.alphabet = alphabet
        self.dim = dim
        self.generators = generators
        self._elements_factory = elements_factory
        self.order = order
        self._tables: list[_DigitSum] | None = None
        self._words: _DigitSum | None = None
        self._tree: list[tuple[int, _DigitSum]] | None = None

    def elements(self) -> Iterator[GroupElement]:
        if self._elements_factory is not None:
            return self._elements_factory()
        return self._close_generators()

    def _close_generators(self) -> Iterator[GroupElement]:
        seen = {identity(self.alphabet, self.dim)}
        frontier = list(seen)
        yield from frontier
        while frontier:
            new: list[GroupElement] = []
            for g in frontier:
                for gen in self.generators:
                    candidate = compose(gen, g)
                    if candidate not in seen:
                        seen.add(candidate)
                        new.append(candidate)
                        yield candidate
            frontier = new

    def orbit(self, code: Code) -> frozenset[Code]:
        """All images of the code."""
        return self._unpack(self._packed_orbit(self._pack(code)))

    def _packed_orbit(self, code: tuple[int, ...]) -> set[tuple[int, ...]]:
        """All images of a packed code, packed."""
        if self.order is not None and self.order <= ELEMENT_WALK_MAX_ORDER:
            return self._element_walk(code)
        return self._orbit_walk(code)

    def _walk_tables(self) -> list[_DigitSum]:
        """One table per generator from packed word to packed image."""
        if self._tables is None:
            places = place_values(self.alphabet, self.dim)
            self._tables = []
            for g in self.generators:
                # source position j lands at position i with sigma[i] == j
                lookups = []
                for j in reversed(range(self.dim)):
                    i = g.sigma.index(j)
                    lookups.append(tuple(s * places[i] for s in g.maps[i]))
                self._tables.append(_DigitSum(self.alphabet.size, lookups, 0))
        return self._tables

    def _pack(self, code: Code) -> tuple[int, ...]:
        if any(len(v) != self.dim for v in code):
            raise ValueError("dimension mismatch")
        return pack_code(code, self.alphabet)

    def _unpack(self, images: Iterable[tuple[int, ...]]) -> frozenset[Code]:
        if self._words is None:
            self._words = word_table(self.alphabet, self.dim)
        words = self._words
        return frozenset(tuple(map(words.__getitem__, image)) for image in images)

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

    def _element_walk(self, code: tuple[int, ...]) -> set[tuple[int, ...]]:
        """The code's image under every element, each from its tree
        parent's image by one generator table."""
        images = [code]
        append = images.append
        for parent, table in self._schreier_tree():
            append(tuple(sorted(map(table.__getitem__, images[parent]))))
        return set(images)

    def _schreier_tree(self) -> list[tuple[int, _DigitSum]]:
        """A breadth-first spanning tree of the Cayley graph: entry ``e - 1``
        is ``(parent, generator table)`` of element ``e``, which acts as
        that generator after its parent; element 0 is the identity.

        Elements are told apart by their images of a base: the all-``a``
        word gives every position's letter map at ``a``, and for each
        position and each other pair, the word with that pair's unprimed
        letter there shows where the position goes and what the pair
        becomes (with one pair, ``a'`` shows where it goes).  So only the
        identity fixes the base."""
        if self._tree is None:
            tables = self._walk_tables()
            base = (0,) + tuple(
                s * place
                for place in place_values(self.alphabet, self.dim)
                for s in range(2, self.alphabet.size, 2) or (1,)
            )
            seen = {base}
            keys = [base]
            tree: list[tuple[int, _DigitSum]] = []
            for parent, key in enumerate(keys):
                for table in tables:
                    image = tuple(map(table.__getitem__, key))
                    if image not in seen:
                        seen.add(image)
                        keys.append(image)
                        tree.append((parent, table))
                if len(keys) > self.order:
                    break
            if len(keys) != self.order:
                raise ValueError(
                    f"generators reach {len(keys)} elements, not the order {self.order}"
                )
            self._tree = tree
        return self._tree


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


def _constrained_maps(
    alphabet: Alphabet, source: int, target: int
) -> Iterator[tuple[int, ...]]:
    """All complement-respecting bijections sending ``source`` to ``target``."""
    for m in _pair_preserving_maps(alphabet):
        if m[source] == target:
            yield m


def full_group(alphabet: Alphabet, dim: int) -> Group:
    generators = []
    for i in range(dim - 1):
        sigma = list(range(dim))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        generators.append(
            GroupElement(sigma=tuple(sigma), maps=(_identity_map(alphabet),) * dim)
        )
    for i in range(dim):
        generators.append(_position_element(alphabet, dim, i, _orientation_flip(alphabet, 0)))
        for p in range(alphabet.pair_count - 1):
            generators.append(
                _position_element(alphabet, dim, i, _pair_swap(alphabet, p, p + 1))
            )

    def enumerate_all() -> Iterator[GroupElement]:
        letter_maps = list(_pair_preserving_maps(alphabet))
        for sigma in itertools.permutations(range(dim)):
            for maps in itertools.product(letter_maps, repeat=dim):
                yield GroupElement(sigma=sigma, maps=maps)

    per_position = math.factorial(alphabet.pair_count) * 2**alphabet.pair_count
    return Group(
        alphabet,
        dim,
        generators=tuple(generators),
        elements_factory=enumerate_all,
        order=math.factorial(dim) * per_position**dim,
    )


def word_stabilizer(word: Word, alphabet: Alphabet) -> Group:
    """All isomorphisms fixing the word.

    Every position permutation extends to a stabilizing element; the letter
    maps are then constrained to carry the permuted letter back."""
    for s in word:
        if s not in alphabet:
            raise ValueError(
                f"letter {letter_name(s)} of the stabilized word is outside "
                f"the alphabet of {alphabet.pair_count} pairs"
            )
    dim = len(word)
    generators = []
    for i in range(dim - 1):
        sigma = list(range(dim))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        maps = [_identity_map(alphabet)] * dim
        maps[i] = _transport(alphabet, word[i + 1], word[i])
        maps[i + 1] = _transport(alphabet, word[i], word[i + 1])
        generators.append(GroupElement(sigma=tuple(sigma), maps=tuple(maps)))
    for i in range(dim):
        fixed_pair = word[i] >> 1
        others = [p for p in range(alphabet.pair_count) if p != fixed_pair]
        for p in others:
            generators.append(
                _position_element(alphabet, dim, i, _orientation_flip(alphabet, p))
            )
        for p, q in zip(others, others[1:]):
            generators.append(
                _position_element(alphabet, dim, i, _pair_swap(alphabet, p, q))
            )

    def enumerate_all() -> Iterator[GroupElement]:
        for sigma in itertools.permutations(range(dim)):
            constrained = [
                list(_constrained_maps(alphabet, word[sigma[i]], word[i]))
                for i in range(dim)
            ]
            for maps in itertools.product(*constrained):
                yield GroupElement(sigma=sigma, maps=maps)

    per_position = math.factorial(alphabet.pair_count - 1) * 2 ** (
        alphabet.pair_count - 1
    )
    return Group(
        alphabet,
        dim,
        generators=tuple(generators),
        elements_factory=enumerate_all,
        order=math.factorial(dim) * per_position**dim,
    )


def canonical_form(code: Code, group: Group) -> Code:
    """Lexicographic minimum over the orbit; equal on all orbit members."""
    return min(group.orbit(code))


def dedup_orbits(family: Iterable[Code], group: Group) -> tuple[Code, ...]:
    """One canonical representative per orbit met by the family.

    The family is packed once and each orbit is walked packed; packing
    keeps lex order, so the packed orbit minimum is the canonical form, and
    only the representatives are unpacked.  Only the family's codes not yet
    met are kept, not the orbits walked: an orbit can hold many codes
    outside the family, and keeping them all set the memory peak."""
    pending = {group._pack(code) for code in family}
    minima = []
    for packed in sorted(pending):
        if packed not in pending:
            continue
        orbit = group._packed_orbit(packed)
        pending -= orbit
        minima.append(min(orbit))
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
