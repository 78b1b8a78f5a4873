"""Code isomorphisms: group laws, action invariance, stabilizers,
canonical forms and orbit deduplication."""

import functools
import itertools
import math
import os
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybox.alphabet import MAX_DIM, MAX_PAIRS, Alphabet
from polybox.core import (
    code_covered,
    density,
    is_covered,
    is_dichotomous,
    is_simple,
    make_code,
    overlap_weight,
    pack_word,
    twin_pair_direction,
)
from polybox.catalog import small_covers
from polybox import iso
from polybox.iso import (
    ELEMENT_WALK_MAX_ORDER,
    Group,
    GroupElement,
    apply_code,
    apply_word,
    canonical_form,
    dedup_orbits,
    element,
    greedy_relabel,
    word_stabilizer,
)
from polybox.pbxio import parse_word
from polybox.search import _cover_pool, _top_transversal, cover_word, enumerate_minimal_covers
from strategies import codes, codes_over

W = parse_word
V5 = W("bbbbb")
B = V5[0]
LONG = os.environ.get("POLYBOX_LONG") == "1"


def _random_element(group: Group, rng: Random) -> GroupElement:
    """A product of one to seven generators, each acting after the last."""
    g = rng.choice(group.generators)
    for _ in range(rng.randrange(7)):
        h = rng.choice(group.generators)
        g = GroupElement(
            sigma=tuple(map(g.sigma.__getitem__, h.sigma)),
            maps=tuple(tuple(map(m.__getitem__, g.maps[j])) for m, j in zip(h.maps, h.sigma)),
        )
    return g


class TestGroupLaws:
    def test_element_validation(self):
        with pytest.raises(ValueError, match="complement"):
            element((0,), ((0, 2, 1, 3),))
        with pytest.raises(ValueError, match="permutation"):
            element((0, 0), ((0, 1, 2, 3),) * 2)


class TestActionInvariance:
    @given(codes(max_dim=3), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_predicates_preserved(self, data, seed):
        alphabet, code = data
        if len(code) < 2:
            return
        rng = Random(seed)
        group = Group(alphabet, len(code[0]))
        g = _random_element(group, rng)
        image = apply_code(g, code)
        v, w = code[0], code[1]
        gv, gw = apply_word(g, v), apply_word(g, w)
        assert overlap_weight(gv, gw) == overlap_weight(v, w)
        assert is_dichotomous(gv, gw) == is_dichotomous(v, w)
        assert (twin_pair_direction(gv, gw) is None) == (
            twin_pair_direction(v, w) is None
        )
        assert is_covered(gv, image) == is_covered(v, code)
        assert is_simple(image) == is_simple(code)
        assert density(image, (gv,)) == density(code, (v,))

    def test_covering_transported(self):
        # swapping the first two letter pairs everywhere maps the two-word
        # cover of bbbbb onto a cover of aaaaa -- wait: b maps to a, so the
        # image covers the image word
        alphabet = Alphabet(3)
        swap = [2, 3, 0, 1, 4, 5]
        g = element(tuple(range(5)), (tuple(swap),) * 5)
        cover = small_covers()[3]
        image = apply_code(g, cover)
        assert is_covered(W("aaaaa"), image)


class TestStabilizers:
    def test_word_stabilizer_order(self):
        stab = word_stabilizer(W("bbbbb"), Alphabet(2))
        assert stab.order == 120 * 2**5

    def test_word_stabilizer_small_enumeration(self):
        alphabet = Alphabet(2)
        v = W("bb")
        stab = word_stabilizer(v, alphabet)
        elements = list(stab.elements())
        assert len(elements) == stab.order == 2 * 2 * 2
        assert all(apply_word(g, v) == v for g in elements)
        # generator walk reaches the same orbit as full enumeration
        code = make_code([W("ab"), W("a'b")])
        assert stab.orbit(code) == frozenset(
            apply_code(g, code) for g in elements
        )

    def test_full_group_generators_cover_the_group(self):
        alphabet = Alphabet(2)
        group = Group(alphabet, 2)
        code = make_code([W("ab")])
        assert group.orbit(code) == frozenset(
            apply_code(g, code) for g in group.elements()
        )

    def test_identity_enumerated(self):
        stab = word_stabilizer(W("bb"), Alphabet(2))
        assert GroupElement(sigma=(0, 1), maps=((0, 1, 2, 3),) * 2) in set(stab.elements())

    def test_word_stabilizer_refuses_foreign_letters(self):
        for word in W("cc"), W("cccccc"), W("bc"), (2, -1):
            with pytest.raises(ValueError, match="outside the alphabet of 2 pairs"):
                word_stabilizer(word, Alphabet(2))


class TestCanonicalForms:
    def test_idempotent(self):
        stab = word_stabilizer(W("bbbbb"), Alphabet(3))
        for cover in small_covers():
            canonical = canonical_form(cover, stab)
            assert canonical_form(canonical, stab) == canonical

    def test_constant_on_orbits(self):
        alphabet = Alphabet(2)
        stab = word_stabilizer(W("bbbbb"), alphabet)
        cover = small_covers()[0]
        rng = Random(5)
        for _ in range(5):
            g = _random_element(stab, rng)
            assert canonical_form(apply_code(g, cover), stab) == canonical_form(
                cover, stab
            )

    def test_small_cover_dedup(self):
        alphabet = Alphabet(3)
        stab = word_stabilizer(W("bbbbb"), alphabet)
        family = []
        rng = Random(9)
        for cover in small_covers():
            family.append(cover)
            for _ in range(3):
                family.append(apply_code(_random_element(stab, rng), cover))
        assert len(dedup_orbits(family, stab)) == 4

    def test_orbit_stabilizer_consistency(self):
        alphabet = Alphabet(2)
        v = W("bb")
        stab = word_stabilizer(v, alphabet)
        code = make_code([W("ab"), W("a'b")])
        orbit = stab.orbit(code)
        fixing = sum(
            1 for g in stab.elements() if apply_code(g, code) == code
        )
        assert len(orbit) * fixing == stab.order

    def test_greedy_relabel_deterministic_not_canonical(self):
        code = make_code([W("cb"), W("c'b")])
        relabelled = greedy_relabel(code)
        assert relabelled == make_code([W("aa"), W("a'a")])
        assert greedy_relabel(relabelled) == relabelled


# differential tests of the two packed walks ------------------------------

def _old_orbit(group: Group, code):
    """The breadth-first generator walk over unpacked words."""
    caches = [{} for _ in group.generators]
    seen = {code}
    frontier = [code]
    while frontier:
        new = []
        for state in frontier:
            for gen, cache in zip(group.generators, caches):
                image_words = []
                for w in state:
                    if w not in cache:
                        cache[w] = apply_word(gen, w)
                    image_words.append(cache[w])
                image = tuple(sorted(image_words))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return frozenset(seen)


def _old_representatives(group: Group, family):
    """The sorted orbit minima of the family, by the old walk."""
    expected, seen = [], set()
    for code in sorted(set(family)):
        if code not in seen:
            orbit = _old_orbit(group, code)
            seen |= orbit
            expected.append(min(orbit))
    return tuple(sorted(expected))


@functools.lru_cache(maxsize=None)
def _cover_family(size: int):
    return cover_word(V5, size, Alphabet(2))


@functools.lru_cache(maxsize=None)
def _elements(group: Group) -> list[GroupElement]:
    return list(group.elements())


@functools.lru_cache(maxsize=None)
def _census_group():
    """The stabilizer of bbbbb over two pairs, shared, so it builds its
    tables and walk steps once."""
    return word_stabilizer(V5, Alphabet(2))


def _both_walks(group: Group):
    """The group rebuilt under each walk: the element walk, then the orbit
    walk, which a group takes when built with no room for the element
    walk.  Each is checked to take its walk, so no pair runs one twice."""
    rebuild = lambda: Group(group.alphabet, group.dim, group.word)
    first = rebuild()
    assert first._plan is not None
    yield first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iso, "ELEMENT_WALK_MAX_ORDER", 0)
        second = rebuild()
    assert second._plan is None
    yield second


def _counted_walks(monkeypatch) -> list[int]:
    """The number of images each element walk yields, walk by walk."""
    counts = []
    walk = iso._bit_walk

    def counted(code, steps):
        counts.append(0)
        for image in walk(code, steps):
            counts[-1] += 1
            yield image

    monkeypatch.setattr(iso, "_bit_walk", counted)
    return counts


def _sample_codes(group: Group, rng: Random, count: int):
    """Sets of one to four words (of at most as many as there are)."""
    words = list(itertools.product(group.alphabet.letters(), repeat=group.dim))
    return [
        tuple(sorted(rng.sample(words, rng.randint(1, min(4, len(words))))))
        for _ in range(count)
    ]


def _anchor(pairs: int, dim: int):
    """A word with every pair in it where there is room."""
    return tuple(2 * (i % pairs) + (i // pairs) % 2 for i in range(dim))


def _class_letters(group: Group) -> dict[int, list[list[int]]]:
    """Per union of the group's letter classes, as its bits (1 the word's
    letter, 2 its complement, 4 the free letters; without a word, 1 every
    letter), the letters each position takes, in order."""
    def bits(i: int, s: int) -> int:
        if group.word is None:
            return 1
        return 1 if s == group.word[i] else 2 if s == group.word[i] ^ 1 else 4

    letters = group.alphabet.letters()
    present = {bits(i, s) for i in range(group.dim) for s in letters}
    return {
        classes: [[s for s in letters if bits(i, s) & classes] for i in range(group.dim)]
        for classes in range(8)
        if all(b in present for b in (1, 2, 4) if classes & b)
    }


def _all_classes(group: Group) -> int:
    """The union of all the group's letter classes, as its bits: its
    packing holds every letter."""
    return max(_class_letters(group))


def _touched(group: Group, codes) -> int:
    """The least union of the group's letter classes that holds every
    letter of the codes, as its bits."""
    return min(
        (
            classes
            for classes, letters in _class_letters(group).items()
            if all(s in at for code in codes for v in code for s, at in zip(v, letters))
        ),
        key=int.bit_count,
    )


def _mixed_radix(v, letters) -> int:
    """The word's number over each position's letters, in order."""
    n = 0
    for s, at in zip(v, letters):
        n = n * len(at) + at.index(s)
    return n


def _stabilizers(pairs_dims):
    return [
        pytest.param(word_stabilizer(_anchor(p, d), Alphabet(p)), id=f"stab-{p}-{d}")
        for p, d in pairs_dims
    ]


def _full_groups(pairs_dims):
    return [
        pytest.param(Group(Alphabet(p), d), id=f"full-{p}-{d}")
        for p, d in pairs_dims
    ]


# groups small enough to enumerate: both walks against Group.elements();
# stab-4-2 has 48-element letter-map groups per position, full-5-1 one of
# 3,840 elements, the d=1 groups no position swaps and stab-2-0 no positions
ENUMERABLE = _stabilizers(
    [(p, d) for p in (1, 2) for d in (2, 3, 4, 5)] + [(3, 2), (3, 3), (4, 2), (2, 1), (2, 0)]
) + _full_groups([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 1), (5, 1)])
# larger ones: the orbit walk against the old walk, on small covers of b...b
LARGE = [4, 5]
# cover_word families of bbbbb over two pairs; sizes 8 and 9 (4 and 19
# classes) take about 0.3 s and 3 s of walks
SIZES = [5, 6, 7] + [
    pytest.param(size, marks=pytest.mark.skipif(not LONG, reason="runs with POLYBOX_LONG=1"))
    for size in (8, 9)
]


class TestWalks:
    @pytest.mark.parametrize("group", ENUMERABLE)
    def test_walks_match_element_enumeration(self, group):
        elements = _elements(group)
        assert len(elements) == group.order
        samples = _sample_codes(group, Random(group.order), 2)
        for walked in _both_walks(group):
            for code in samples:
                expected = frozenset(apply_code(g, code) for g in elements)
                assert walked.orbit(code) == expected
                assert canonical_form(code, walked) == min(expected)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_canonical_forms_are_constant_on_orbits(self, data):
        group = data.draw(st.sampled_from([param.values[0] for param in ENUMERABLE]))
        code = data.draw(codes_over(group.alphabet, group.dim))
        g = _elements(group)[data.draw(st.integers(0, group.order - 1))]
        for walked in _both_walks(group):
            assert canonical_form(apply_code(g, code), walked) == canonical_form(code, walked)

    @pytest.mark.parametrize("group", ENUMERABLE)
    def test_bit_steps_move_each_word_as_their_elements(self, group):
        """Each distinct planned step, as the walk takes it, carries the
        one-bit code of every word to that of the word's image: over every
        letter, and over the letters of each union of the group's letter
        classes, the packings the element walk narrows to."""
        elements, walk = group._plan
        packing, steps = group._walk(_all_classes(group))
        assert len(walk) == len(steps) == group.order - 1
        alphabet, top = group.alphabet, group.alphabet.size**group.dim - 1
        assert packing.top == top
        for k, g in enumerate(elements):
            step = steps[walk.index(k)]
            for v in itertools.product(alphabet.letters(), repeat=group.dim):
                _, image = iso._bit_walk(1 << top - pack_word(v, alphabet), [step])
                assert image == 1 << top - pack_word(apply_word(g, v), alphabet)
        for classes, letters in _class_letters(group).items():
            packing, steps = group._walk(classes)
            assert len(steps) == len(walk)
            top = math.prod(map(len, letters)) - 1
            assert packing.top == top
            for k, g in enumerate(elements):
                step = steps[walk.index(k)]
                for v in itertools.product(*letters):
                    _, image = iso._bit_walk(1 << top - _mixed_radix(v, letters), [step])
                    assert image == 1 << top - _mixed_radix(apply_word(g, v), letters)

    def test_element_walks_stay_within_1024_words(self):
        """Every group the element walk takes, with or without a word, has
        at most 1,024 words, so its one-int codes stay small; two pairs at
        d=5 reach that."""
        largest = 0
        for pairs, fixing in itertools.product(range(1, MAX_PAIRS + 1), (False, True)):
            for dim in range(MAX_DIM + 1):
                group = Group(Alphabet(pairs), dim, _anchor(pairs, dim) if fixing else None)
                if group.order > ELEMENT_WALK_MAX_ORDER:
                    break
                largest = max(largest, group.alphabet.size**dim)
        assert largest == 1024

    @pytest.mark.parametrize("dim", LARGE)
    def test_orbit_walk_matches_old_walk(self, dim):
        alphabet = Alphabet(3)
        group = word_stabilizer((B,) * dim, alphabet)
        assert group.order > ELEMENT_WALK_MAX_ORDER
        family = [
            c for size in (2, 3) for c in enumerate_minimal_covers((B,) * dim, size, alphabet)
        ]
        for code in Random(dim).sample(family, 4):
            expected = _old_orbit(group, code)
            assert group.orbit(code) == expected
            assert canonical_form(code, group) == min(expected)

    def test_orbit_walk_matches_element_enumeration(self):
        """The orbit walk's generators reach every element: the d=4
        three-pair stabilizer (98,304 elements, each ``N_i`` of order 8
        from one flip and one pair swap) against ``elements()``."""
        alphabet = Alphabet(3)
        group = word_stabilizer((B,) * 4, alphabet)
        assert group.order == 98_304 > ELEMENT_WALK_MAX_ORDER
        elements = list(group.elements())
        assert len(elements) == group.order
        family = [c for size in (2, 3) for c in enumerate_minimal_covers((B,) * 4, size, alphabet)]
        for code in Random(4).sample(family, 2):
            expected = frozenset(apply_code(g, code) for g in elements)
            assert group.orbit(code) == expected

    @pytest.mark.parametrize("group", ENUMERABLE)
    def test_schreier_tree_reaches_the_order(self, group):
        """The element walk's steps form a spanning path of the group, a
        Schreier tree with one branch: from the identity they meet
        ``order`` elements, each once.  Elements are told apart by their
        images of a base, each word walked as a one-bit code: the all-``a``
        word gives every position's letter map at ``a``, and for each
        position and each other pair, the word with that pair's unprimed
        letter there shows where the position goes and what the pair
        becomes (with one pair, ``a'`` shows where it goes).  So only the
        identity fixes the base."""
        dim = group.dim
        base = [(0,) * dim] + [
            (0,) * i + (s,) + (0,) * (dim - 1 - i)
            for i in range(dim)
            for s in range(2, group.alphabet.size, 2) or (1,)
        ]
        top, (_, steps) = group.alphabet.size**dim - 1, group._walk(_all_classes(group))
        walks = [iso._bit_walk(1 << top - pack_word(v, group.alphabet), steps) for v in base]
        keys = list(zip(*walks))
        assert len(set(keys)) == len(keys) == group.order

    @pytest.mark.parametrize("size", SIZES)
    def test_dedup_walks_match_old_walk_on_cover_families(self, size):
        stab = _census_group()
        family = _cover_family(size)
        expected = _old_representatives(stab, family)
        for group in _both_walks(stab):
            assert dedup_orbits(family, group) == expected

    def test_dedup_under_a_relabelled_anchor(self):
        # the stabilizer of a non-constant word, as in the benchmark's
        # relabelled census
        g = element(
            (2, 0, 4, 1, 3),
            ((2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3), (3, 2, 1, 0), (2, 3, 1, 0)),
        )
        anchor = apply_word(g, V5)
        assert anchor == W("ab'ba'a'")
        stab = word_stabilizer(anchor, Alphabet(2))
        for size, classes in ((5, 1), (6, 1), (7, 3)):
            family = [apply_code(g, code) for code in _cover_family(size)]
            expected = _old_representatives(stab, family)
            assert dedup_orbits(family, stab) == expected
            assert len(expected) == classes

    def test_dedup_unpacks_only_the_representatives(self, monkeypatch):
        stab = _census_group()
        family = _cover_family(7)
        expected = dedup_orbits(family, stab)
        unpacked = []
        unpack = Group._unpack

        def counting(self, images, packing):
            images = list(images)
            unpacked.append(len(images))
            return unpack(self, images, packing)

        monkeypatch.setattr(Group, "_unpack", counting)
        monkeypatch.setattr(Group, "orbit", None)  # dedup never calls it
        for group in _both_walks(stab):
            unpacked.clear()
            assert dedup_orbits(family, group) == expected
            assert unpacked == [len(expected)] == [3]

    def test_dedup_of_a_family_that_is_no_union_of_orbits(self):
        stab = _census_group()
        part = sorted(set(_cover_family(7)))[::7]
        expected = tuple(sorted({canonical_form(c, stab) for c in part}))
        for group in _both_walks(stab):
            assert dedup_orbits(part + part[:3], group) == expected

    def test_dedup_walks_each_class_once(self, monkeypatch):
        """Effort regression: the size-9 census walks its 19 classes, one
        element walk of ``order`` images each, and no other code."""
        stab, family = _census_group(), _cover_family(9)
        counts = _counted_walks(monkeypatch)
        assert len(dedup_orbits(family, stab)) == 19
        assert counts == [stab.order] * 19 and stab.order == 3840

    def test_canonical_form_walks_the_group_once(self, monkeypatch):
        stab = _census_group()
        counts = _counted_walks(monkeypatch)
        canonical_form(_cover_family(7)[0], stab)
        assert counts == [stab.order]

    def test_least_image_takes_out_exactly_the_pending_orbit_codes(self):
        family = _cover_family(7)
        code = family[-1]
        for group in _both_walks(_census_group()):
            packing, walk = group._walk(group._check(family))
            pack = functools.partial(group._pack, packing=packing)
            orbit = set(map(pack, group.orbit(code)))
            pending = set(map(pack, family))
            assert pending & orbit and pending - orbit
            expected = pending - orbit
            least = group._least_image(pack(code), pending, walk)
            assert pending == expected
            assert group._unpack([least], packing) == {min(group.orbit(code))}

    def test_tables_hold_only_the_words_met(self):
        # the code touches b and the free letters, so its packing holds
        # 5**8 words; each generator's table holds the orbit's 32 words
        group = word_stabilizer((B,) * 8, Alphabet(3))
        code = make_code([(0,) + (B,) * 7])
        classes = group._check([code])
        assert canonical_form(code, group) == code
        assert len(group.orbit(code)) == 32
        packing, tables = group._walk(classes)
        assert packing.top + 1 == 5**8
        assert [len(table) for table in tables] == [32] * len(group.generators)

    def test_repeated_words_are_refused(self):
        """A one-int code would merge a repeated word, so both walks
        refuse it."""
        stab = word_stabilizer(W("bb"), Alphabet(2))
        code = (W("ab"), W("ab"), W("a'b"))
        for group in _both_walks(stab):
            for call in (
                lambda: canonical_form(code, group),
                lambda: dedup_orbits([code], group),
                lambda: group.orbit(code),
            ):
                with pytest.raises(ValueError, match="repeated word"):
                    call()

    def test_letters_outside_the_alphabet_are_refused(self):
        stab = word_stabilizer(W("bb"), Alphabet(2))
        with pytest.raises(ValueError, match="alphabet"):
            stab.orbit(((0, 4),))
        with pytest.raises(ValueError, match="dimension"):
            stab.orbit(((0, 1, 2),))


# the element walk over the letters the codes use ---------------------------

def _brute_orbit(group: Group, code):
    return frozenset(apply_code(g, code) for g in _elements(group))


def _brute_representatives(group: Group, family):
    return tuple(sorted({min(_brute_orbit(group, code)) for code in family}))


def _words(group: Group, keep) -> list:
    """The words whose every position's letter passes ``keep(i, s)``."""
    return list(itertools.product(*(
        [s for s in group.alphabet.letters() if keep(i, s)] for i in range(group.dim)
    )))


def _families(group: Group, rng: Random) -> dict[str, list]:
    """Families of sets of one to three words, by the letters they use."""
    word = group.word or (None,) * group.dim
    meeting = _words(group, lambda i, s: word[i] is None or s != word[i] ^ 1)
    free = _words(group, lambda i, s: word[i] is None or s >> 1 != word[i] >> 1)
    apart = [v for v in _words(group, lambda i, s: True) if v not in meeting]

    def sample(words, count):
        sizes = [rng.randint(1, min(3, len(words))) for _ in range(count)]
        return [tuple(sorted(rng.sample(words, size))) for size in sizes]

    families = {"meeting": sample(meeting, 6), "empty": [()]}
    if apart:
        families["mixed"] = sample(meeting, 3) + [
            tuple(sorted({rng.choice(apart)} | set(code))) for code in sample(meeting, 3)
        ]
    if free and free != meeting:
        families["free"] = sample(free, 4)
    return families


# (pairs, dim, fixing a word): small enough to enumerate; (2, 0) has no
# positions, and the groups without a word have one letter class
NARROWED = [
    (2, 3, True), (3, 2, True), (2, 4, True), (1, 3, True),
    (2, 2, False), (1, 3, False), (2, 0, True), (2, 0, False),
]


class TestPackedImages:
    """``_Packing.image`` maps packed words as ``apply_word`` maps words,
    over every letter set a walk packs over and over the cover pool's."""

    @staticmethod
    def _check(packing, elements):
        words = [packing.words[n] for n in range(packing.top + 1)]
        for g in elements:
            image = packing.image(g.sigma, g.maps)
            assert [image[n] for n in range(len(words))] == [
                packing.index[apply_word(g, v)] for v in words
            ]

    @pytest.mark.parametrize(
        "pairs,dim,fixing", [(2, 3, True), (3, 2, True), (1, 3, True), (2, 3, False)]
    )
    def test_agrees_with_apply_word_over_every_letter_set(self, pairs, dim, fixing):
        """Every union of the group's letter classes, on the generators
        (the position swaps among them) and on random products of them."""
        group = Group(Alphabet(pairs), dim, _anchor(pairs, dim) if fixing else None)
        rng = Random(pairs * 10 + dim)
        elements = group.generators + [_random_element(group, rng) for _ in range(12)]
        for classes in _class_letters(group):
            self._check(group._walk(classes)[0], elements)

    @pytest.mark.parametrize("pairs, dim", [(2, 4), (3, 3)])
    def test_agrees_with_apply_word_over_the_pool_letters(self, pairs, dim):
        packing = _cover_pool(pairs, dim).packing
        elements = [
            GroupElement(sigma=source, maps=maps)
            for level in range(dim)
            for _, source, maps in _top_transversal(pairs, dim, level)[::3]
        ]
        assert any(g.sigma != tuple(range(dim)) for g in elements)
        self._check(packing, elements)


class TestNarrowedPackings:
    @pytest.mark.parametrize("pairs,dim,fixing", NARROWED)
    def test_walks_match_brute_force(self, pairs, dim, fixing):
        """Canonical forms, orbits and dedup against every element applied
        to every code, and each walk packs each family over exactly the
        letter classes its words touch."""
        anchor = _anchor(pairs, dim) if fixing else None
        base = Group(Alphabet(pairs), dim, anchor)
        families = _families(base, Random(pairs * 10 + dim))
        for name, family in families.items():
            for group in _both_walks(base):
                assert dedup_orbits(family, group) == _brute_representatives(base, family), name
                touched = _touched(group, family)
                assert [touched] == list(group._walks), name
                assert group._walks[touched][0].digits == [
                    tuple(at) for at in _class_letters(group)[touched]
                ]
                for code in family:
                    orbit = _brute_orbit(base, code)
                    assert group.orbit(code) == orbit, name
                    assert canonical_form(code, group) == min(orbit), name

    def test_the_census_packs_over_the_letters_that_meet_its_anchor(self):
        """Every word of a cover meets the anchor, so the size-10 census
        packs over 3**5 words, as given and relabelled."""
        g = element(
            (2, 0, 4, 1, 3),
            ((2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3), (3, 2, 1, 0), (2, 3, 1, 0)),
        )
        family = _cover_family(10)
        relabelled = [apply_code(g, code) for code in family]
        for anchor, codes in ((V5, family), (apply_word(g, V5), relabelled)):
            group = word_stabilizer(anchor, Alphabet(2))
            assert len(dedup_orbits(codes, group)) == 51
            assert [packing.top for packing, _ in group._walks.values()] == [242]

    def test_each_step_is_built_once_per_letter_set(self, monkeypatch):
        built = []
        bit_step = Group._bit_step

        def counted(self, g, packing):
            built.append(packing.top)
            return bit_step(self, g, packing)

        monkeypatch.setattr(Group, "_bit_step", counted)
        group = word_stabilizer(V5, Alphabet(2))
        distinct = len(group._plan[0])
        family = _cover_family(7)
        for _ in range(2):
            dedup_orbits(family, group)
            canonical_form(family[0], group)
            group.orbit(family[0])
        assert built == [242] * distinct
        canonical_form((V5,), group)  # the word alone: one letter a position
        canonical_form(((0,) * 5, W("b'bbbb")), group)  # every class
        canonical_form(((0,) * 5,), group)  # the free letters alone
        assert built == [242] * distinct + [0] * distinct + [1023] * distinct + [31] * distinct

    def test_refusals_keep_their_messages_and_order(self):
        """A dimension mismatch and a letter outside the alphabet, each in
        the middle of a family, are refused as before, by the first code
        that holds one; within a code, the dimension comes first."""
        stab = word_stabilizer(W("bb"), Alphabet(2))
        good = (W("ab"), W("a'b"))
        short, foreign = (W("ab"), W("a")), (W("bb"), (0, 4), (5, 1))
        dimension = "^dimension mismatch$"
        letter = "^" + re.escape("letter 4 is outside the alphabet of 2 pairs") + "$"
        cases = [
            ([good, short, good], dimension),
            ([good, foreign, good], letter),
            ([good, foreign, short], letter),
            ([good, short, foreign], dimension),
            ([good, foreign + (W("a"),)], dimension),
        ]
        for group in _both_walks(stab):
            for family, message in cases:
                with pytest.raises(ValueError, match=message):
                    dedup_orbits(family, group)
                code = next(c for c in family if c is not good)
                with pytest.raises(ValueError, match=message):
                    canonical_form(code, group)
                with pytest.raises(ValueError, match=message):
                    group.orbit(code)
