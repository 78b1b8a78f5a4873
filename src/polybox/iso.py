"""Isomorphisms of codes: position permutations composed with per-position
letter bijections that respect complementation.

Canonical forms are exact lexicographic orbit minima.  Orbits of groups
with generators are walked over packed words (``core.pack_code``: a word
is its mixed-radix number over the alphabet's letters, so a code is a
sorted tuple of ints in the same lex order), with one table per step
element from packed word to packed image, filled as walks meet words:

* the element walk visits each group element once, each from the one
  before by one table, planned from the layout of the generators
  (``Group._walk_steps``): ``order`` images per orbit;
* the orbit walk goes breadth-first over the orbit and applies every
  generator to every orbit code: ``|generators|`` images per orbit code, so
  its cost scales with the orbit, not with the (possibly huge) group order.

Groups of known order up to ``ELEMENT_WALK_MAX_ORDER`` take the element
walk, the rest the orbit walk; both give the same orbit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator

from .alphabet import STAR, Alphabet, letter_name
from .core import Code, Word, _DigitSum, pack_code, place_values, word_table

# The element walk plans its steps once per group (0.5 ms at the 3,840
# elements of the two-pair stabilizer of bbbbb), then maps ``order`` images
# per orbit; the orbit walk maps ``|generators|`` images per orbit code.
# So the element walk wins on near-regular orbits: at 3,840 elements the
# size-10 census of twin-pair-free covers of bbbbb dedups in 0.42 s against
# 3.2 s, and one of its canonical forms takes 10 ms against 85 ms; it loses
# on small orbits (a 2-word cover: 6 ms against 0.4 ms).  Above this order
# no family measured favours it throughout: at 5,040 (one pair, d=7) 200
# random 3-word codes took 1.0 s against 1.5 s, 1-word codes 0.85 s against
# 0.03 s; at 46,080 (two pairs, d=6) a small cover's canonical form took
# 60 ms against 1.5 ms.  Timed on a 2-core machine.
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
    sigma = tuple(map(h.sigma.__getitem__, g.sigma))
    maps = tuple(tuple(map(m.__getitem__, h.maps[j])) for m, j in zip(g.maps, g.sigma))
    return GroupElement(sigma=sigma, maps=maps)


class Group:
    """A finite group of code isomorphisms.

    Carries generators (for orbit walks) and optionally a lazy element
    enumerator; ``order`` is exact when known.

    A group whose ``order`` is known and at most ``ELEMENT_WALK_MAX_ORDER``
    is walked element by element, along steps planned when it first walks
    and kept for its life; others, such as the three-pair d=5 word
    stabilizer (3,932,160 elements), breadth-first over the orbit.  Their
    tables, per step or per generator, and the table that unpacks words are
    kept too, but hold only the words met, never the whole word space.
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
        self._steps: list[_DigitSum] | None = None

    def elements(self) -> Iterator[GroupElement]:
        if self._elements_factory is not None:
            return self._elements_factory()
        return iter(_closure(identity(self.alphabet, self.dim), self.generators, compose))

    def orbit(self, code: Code) -> frozenset[Code]:
        """All images of the code."""
        return self._unpack(self._packed_orbit(self._pack(code)))

    def _packed_orbit(self, code: tuple[int, ...]) -> Collection[tuple[int, ...]]:
        """All images of a packed code, packed (the element walk's repeat)."""
        if self.order is not None and self.order <= ELEMENT_WALK_MAX_ORDER:
            return self._element_walk(code)
        return self._orbit_walk(code)

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

    def _element_walk(self, code: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The code's image under every element, each from the last."""
        images = [code]
        append = images.append
        for table in self._walk_steps():
            code = tuple(sorted(map(table.__getitem__, code)))
            append(code)
        return images

    def _walk_steps(self) -> list[_DigitSum]:
        """``order - 1`` tables that carry each element to the next from the
        identity, meeting each once.  Each generator must act at one position
        or swap adjacent positions, all swaps present.  The group must be
        ``S_d`` over the normal product ``N`` of the letter-map groups ``N_i``
        at each position, as ``word_stabilizer`` and ``full_group`` build it:
        the swaps are checked to normalise ``N`` and to meet the relations of
        ``S_d`` modulo ``N``, and ``d! * |N|`` to equal the order.  ``N`` is
        walked like an odometer over a listing of each ``N_i``: a step
        left-multiplies one position's next entry over its last, so a rerun of
        the lower positions' walk covers them wherever it starts.  Between
        walks of ``N``, swaps in Steinhaus-Johnson-Trotter order step through
        its cosets."""
        if self._steps is None:
            dim, fixed = self.dim, _identity_map(self.alphabet)
            swaps, factors = {}, [[] for _ in range(dim)]
            for g in self.generators:
                if g.sigma != tuple(range(dim)):
                    swaps[g.sigma] = g
                    continue
                moved = [i for i in range(dim) if g.maps[i] != fixed]
                if len(moved) > 1:
                    raise ValueError("element walk generators must act at one position")
                for i in moved:
                    factors[i].append(g.maps[i])
            if swaps.keys() != {_swap(dim, k) for k in range(dim - 1)}:
                raise ValueError("element walk generators must swap adjacent positions")
            after = lambda g, m: tuple(map(g.__getitem__, m))
            listings = [_closure(fixed, factor, after) for factor in factors]
            count = math.factorial(dim) * math.prod(map(len, listings))
            ordered = [swaps[_swap(dim, k)] for k in range(dim - 1)]
            # t normalises N when its map at j conjugates N_sigma[j] into N_j
            members = [set(listing) for listing in listings]
            coxeter = [
                functools.reduce(compose, [compose(t, u)] * {k: 1, k + 1: 3}.get(j, 2))
                for k, t in enumerate(ordered) for j, u in enumerate(ordered[k:], k)
            ]
            if not all(
                after(after(t.maps[j], m), map(t.maps[j].index, fixed)) in members[j]
                for t in ordered for j in range(dim) for m in factors[t.sigma[j]]
            ) or not all(all(map(set.__contains__, members, g.maps)) for g in coxeter):
                count = f"more than {count}"  # never the order
            if count != self.order:
                raise ValueError(f"generators reach {count} elements, not the order {self.order}")
            walk, tables = [], {}  # a listing repeats steps: one table each
            for i, listing in enumerate(listings):
                lower, walk = walk, list(walk)
                for x in range(1, len(listing)):
                    step = (i, after(listing[x], map(listing[x - 1].index, fixed)))
                    if step not in tables:
                        tables[step] = self._table(_position_element(self.alphabet, dim, *step))
                    walk += [tables[step]] + lower
            self._steps = list(walk)
            swap_tables = [self._table(t) for t in ordered]
            for k in _sjt_swaps(dim):
                self._steps += [swap_tables[k]] + walk
        return self._steps


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
        generators.append(GroupElement(sigma=_swap(dim, i), maps=(_identity_map(alphabet),) * dim))
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
        maps = [_identity_map(alphabet)] * dim
        maps[i] = _transport(alphabet, word[i + 1], word[i])
        maps[i + 1] = _transport(alphabet, word[i], word[i + 1])
        generators.append(GroupElement(sigma=_swap(dim, i), maps=tuple(maps)))
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
    """Lexicographic minimum over the orbit; equal on all orbit members.
    Packing keeps lex order, so only the packed minimum is unpacked."""
    (canonical,) = group._unpack([min(group._packed_orbit(group._pack(code)))])
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
    for packed in sorted(pending):
        if packed not in pending:
            continue
        orbit = group._packed_orbit(packed)
        pending.difference_update(orbit)
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
