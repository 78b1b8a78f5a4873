"""Enumeration and reconstruction: weight compositions, cover families,
joins and second-code rebuilding, and the reference cycles they leave."""

import gc
import itertools
import os
import tracemalloc
from collections import Counter
from functools import lru_cache
from random import Random

import pytest
from polybox.alphabet import Alphabet
from polybox.core import (
    Code,
    _Packing,
    are_equivalent,
    binary_code_set,
    code_covered,
    common_density,
    density,
    format_plain,
    is_covered,
    is_dichotomous,
    is_polybox_code,
    is_proper,
    make_code,
    overlap_weight,
)
from polybox.catalog import special_pair
from polybox.iso import apply_code, dedup_orbits, word_stabilizer
from polybox.moves import closure, twin_pairs
from polybox import search
from polybox.pbxio import parse_word
from polybox.repro import _mirror_to_second_word
from polybox.sampling import random_tiling_code
from polybox.search import (
    ANCHOR_LETTER,
    _cover_pool,
    _grow,
    _tiling_census,
    _top_transversal,
    cover_code,
    cover_word,
    enumerate_minimal_covers,
    find_second_codes,
    standard_seeds,
    weight_compositions,
)

W = parse_word
V5 = W("bbbbb")
LONG = os.environ.get("POLYBOX_LONG") == "1"


class TestWeightCompositions:
    def test_every_composition_balances(self):
        for dim in (2, 3, 5):
            for size in (2, 4, 7):
                for x in weight_compositions(dim, size):
                    assert sum(x) == size
                    assert sum(c << i for i, c in enumerate(x)) == 1 << dim

    def test_lowest_occupied_level_is_even(self):
        for x in weight_compositions(5, 9):
            first = next(i for i in range(5) if x[i])
            assert x[first] % 2 == 0

    def test_exhaustive_at_d2(self):
        assert set(weight_compositions(2, 2)) == {(0, 2)}
        assert set(weight_compositions(2, 3)) == {(2, 1)}
        assert set(weight_compositions(2, 4)) == {(4, 0)}


class TestCoverWord:
    def test_seed_pairs_are_twin_free_codes(self):
        for seed in standard_seeds():
            assert is_polybox_code(seed)
            assert not twin_pairs(seed)

    def test_class_counts_small(self):
        alphabet = Alphabet(2)
        stabilizer = word_stabilizer(V5, alphabet)
        expected = {5: 1, 6: 1, 7: 3}
        for size, count in expected.items():
            family = cover_word(V5, size, alphabet)
            assert len(dedup_orbits(family, stabilizer)) == count

    def test_outputs_are_twin_free_minimal_covers(self):
        alphabet = Alphabet(2)
        for cover in cover_word(V5, 6, alphabet):
            assert is_covered(V5, cover)
            assert not twin_pairs(cover)
            assert all(overlap_weight(c, V5) > 0 for c in cover)

    def test_weight_accounting(self):
        alphabet = Alphabet(2)
        for cover in cover_word(V5, 7, alphabet):
            assert sum(overlap_weight(c, V5) for c in cover) == 32
            for c in cover:
                b_count = sum(1 for s in c if s == 2)
                assert overlap_weight(c, V5) == 1 << b_count

    def test_layout_embedding_does_not_change_classes(self):
        # mapping the family through every position permutation, as growing
        # from each seed's placements would, gives valid covers but no class
        alphabet = Alphabet(2)
        stabilizer = word_stabilizer(V5, alphabet)
        for size in (5, 6, 7):
            family = cover_word(V5, size, alphabet)
            embedded = {
                tuple(sorted(permute(perm, w) for w in cover))
                for cover in family
                for perm in itertools.permutations(range(5))
            }
            assert set(family) < embedded <= set(direct_twin_free(2, size))
            assert set(dedup_orbits(family, stabilizer)) == set(
                dedup_orbits(embedded, stabilizer)
            )

    def test_agrees_with_direct_enumeration(self):
        # complete up to the stabilizer: every class of the direct family
        # has a cover that holds a standard seed on its lowest level
        alphabet = Alphabet(2)
        stabilizer = word_stabilizer(V5, alphabet)
        for size in (5, 6, 7, 8):
            seeded = cover_word(V5, size, alphabet)
            direct = direct_twin_free(2, size)
            assert set(seeded) <= set(direct)
            assert set(dedup_orbits(seeded, stabilizer)) == set(
                dedup_orbits(direct, stabilizer)
            )

    def test_rejects_non_anchor_words(self):
        with pytest.raises(ValueError, match="anchored"):
            cover_word(W("aaaaa"), 5, Alphabet(2))

    def test_refuses_other_dimensions_before_building_the_pool(self):
        # the (3, 6) pool would be 61 MB of bitmask rows, built for nothing
        before = _cover_pool.cache_info()
        with pytest.raises(ValueError, match="dimension 5"):
            cover_word(W("bbbbbb"), 7, Alphabet(3))
        assert _cover_pool.cache_info() == before


class TestCoverPoolCap:
    def test_cell_tables_count_against_the_cap(self):
        # (4, 5): 67 MB of word rows alone fit; with the cell tables they
        # do not, and the refusal comes before anything is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="208,301,756 in total"):
                _cover_pool(4, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_direct_enumeration_needs_the_pair_of_b(self):
        with pytest.raises(ValueError, match="two letter pairs"):
            enumerate_minimal_covers(W("bb"), 4, Alphabet(1))


class TestPoolNumbering:
    @pytest.mark.parametrize("pairs, dim", [(2, 5), (3, 4), (3, 5)])
    def test_pool_index_is_the_packed_word(self, pairs, dim):
        """Pool word ``n`` is packed word ``n``; ``b...b`` has its own index
        but is in no level mask and no compatibility row, and its sub-box
        is the whole box."""
        pool = _cover_pool(pairs, dim)
        index, top = pool.packing.index, pool.packing.top
        assert all(index[w] == n for n, w in enumerate(pool.words))
        assert len(pool.words) == top + 1
        anchor = index[(ANCHOR_LETTER,) * dim]
        assert pool.words[anchor] == (ANCHOR_LETTER,) * dim
        assert not any(mask >> top - anchor & 1 for mask in pool.level_masks)
        assert pool.dichotomous[anchor] == pool.twin_free[anchor] == 0
        assert not any(row >> top - anchor & 1 for row in pool.dichotomous + pool.twin_free)
        assert pool.cells[anchor] == (1 << len(pool.cell_words)) - 1


class TestOneBitOrder:
    """Pool rows and packed codes share one bit order: a cover's pool
    indices at bits ``top - n`` are its packed code, and the pool's rows
    and level masks read that int as they read any index set."""

    @pytest.mark.parametrize("pairs, dim, sizes, twin_free", [
        (2, 5, range(5, 9), True),
        (3, 4, range(2, 6), False),
    ])
    def test_covers_are_packed_codes(self, monkeypatch, pairs, dim, sizes, twin_free):
        pool = _cover_pool(pairs, dim)
        packing, top = pool.packing, pool.packing.top
        compat = pool.twin_free if twin_free else pool.dichotomous
        grown_ids = []

        def recording(base, allowed, level_seq, pool, collect, twin_free):
            def record(ids):
                grown_ids.append(ids)
                collect(ids)
            _grow(base, allowed, level_seq, pool, record, twin_free)

        monkeypatch.setattr(search, "_grow", recording)
        alphabet, u = Alphabet(pairs), (ANCHOR_LETTER,) * dim
        covers = set()
        for size in sizes:
            if dim == 5:
                covers.update(cover_word(u, size, alphabet))
            covers.update(enumerate_minimal_covers(u, size, alphabet, twin_free=twin_free))
        assert covers and grown_ids
        for ids in grown_ids:
            state = sum(1 << top - n for n in ids)
            assert state == packing.pack(map(pool.words.__getitem__, ids))
            assert packing.unpack(state) in covers
        for cover in covers:
            ids = [packing.index[w] for w in cover]
            state = packing.pack(cover)
            assert sum(1 << top - n for n in ids) == state
            for n in ids:
                assert compat[n] & state == state ^ 1 << top - n
            assert [(state & mask).bit_count() for mask in pool.level_masks] == [
                sum(w.count(ANCHOR_LETTER) == level for w in cover) for level in range(dim)
            ]


class TestEnumerateMinimalCovers:
    def test_small_cover_census_d2(self):
        alphabet = Alphabet(3)
        v = W("bb")
        fam = []
        for size in (2, 3, 4):
            fam.extend(enumerate_minimal_covers(v, size, alphabet))
        classes = dedup_orbits(fam, word_stabilizer(v, alphabet))
        assert len(classes) == 4

    def test_small_cover_census_d5(self):
        # the bundled list of four plus the two genuine higher-dimensional
        # classes; all verified against the realization oracle
        alphabet = Alphabet(3)
        fam = []
        for size in (2, 3, 4):
            fam.extend(enumerate_minimal_covers(V5, size, alphabet))
        classes = dedup_orbits(fam, word_stabilizer(V5, alphabet))
        assert len(classes) == 6

    def test_keep_filter_streams(self):
        alphabet = Alphabet(2)
        everything = enumerate_minimal_covers(V5, 5, alphabet, twin_free=True)
        filtered = enumerate_minimal_covers(
            V5, 5, alphabet, twin_free=True, keep=lambda c: c[0][0] == 0
        )
        assert set(filtered) == {c for c in everything if c[0][0] == 0}


class TestTopTransversal:
    @pytest.mark.parametrize("pairs, dim", [(2, 5), (3, 4), (3, 5)])
    def test_elements_fix_the_anchor_and_reach_every_top_word(self, pairs, dim):
        pool = _cover_pool(pairs, dim)
        pool_words = set(pool.words)
        pool_letters = {s for v in pool.words for s in v}
        assert 3 not in pool_letters
        anchor = (2,) * dim
        for level in range(dim):
            elements = _top_transversal(pairs, dim, level)
            level_words = [w for w in pool.words if w.count(2) == level]
            assert [w for w, _, _ in elements] == level_words
            w0 = level_words[0]
            assert w0 == (0,) * (dim - level) + (2,) * level
            for n, (w, source, maps) in enumerate(elements):
                assert sorted(source) == list(range(dim))
                for m in maps:
                    assert sorted(m) == list(range(2 * pairs))
                    assert all(m[s ^ 1] == m[s] ^ 1 for s in range(2 * pairs))
                    assert m[2] == 2
                    # with b fixed, a permutation of the pool letters maps
                    # pool words, b...b excluded, onto pool words
                    assert {m[s] for s in pool_letters} == pool_letters
                apply = lambda v: tuple(maps[p][v[source[p]]] for p in range(dim))
                assert apply(w0) == w
                assert apply(anchor) == anchor
                if n % 97 == 0 or n == len(elements) - 1:
                    assert {apply(v) for v in pool_words} == pool_words


class TestEnumerateThroughTopWords:
    @pytest.mark.parametrize(
        "pairs, size, twin_free",
        [(2, 7, True), (2, 8, True), (3, 4, False), (3, 6, True)],
    )
    def test_keep_sees_every_cover_once(self, pairs, size, twin_free):
        seen = Counter()

        def keep(code):
            seen[code] += 1
            return True

        family = enumerate_minimal_covers(
            V5, size, Alphabet(pairs), twin_free=twin_free, keep=keep
        )
        assert set(seen.values()) == {1}
        assert tuple(sorted(seen)) == family

    def test_covers_at_other_dimensions(self):
        for dim in (1, 2, 3, 4):
            alphabet = Alphabet(3 if dim < 4 else 2)
            for size in range(2, 7):
                direct = direct_covers(size, alphabet, False, dim)
                got = enumerate_minimal_covers((2,) * dim, size, alphabet)
                assert got == tuple(sorted(set().union(*direct.values()))), (dim, size)


class TestCoverCode:
    def test_single_word_passthrough(self):
        fam = (make_code([W("ab"), W("a'b")]),)
        out = cover_code((W("bb"),), 4, {W("bb"): fam})
        assert out == fam

    def test_join_of_two_words(self):
        alphabet = Alphabet(2)
        v, w = W("bb"), W("b'b")
        fam_v = [c for c in enumerate_minimal_covers(v, 2, alphabet)]
        # covers of b'b: mirror of covers of bb through b<->b' at position 1
        def mirror(code):
            return tuple(
                sorted(tuple((s ^ 1 if s >> 1 == 1 and i == 0 else s) for i, s in enumerate(x)) for x in code)
            )
        fam_w = [mirror(c) for c in fam_v]
        joint = cover_code((v, w), 4, {v: fam_v, w: fam_w})
        assert joint
        for code in joint:
            assert is_polybox_code(code)
            assert code_covered((v, w), code)
            assert len(code) <= 4

    def test_every_word_needs_a_family(self):
        with pytest.raises(ValueError, match="family"):
            cover_code((W("bb"),), 4, {})

    def test_words_are_checked_at_entry(self):
        v, w = W("bb"), W("b'b")
        with pytest.raises(ValueError, match="mix dimensions"):
            cover_code((v, w), 4, {v: [(W("ab"), W("a'b"))], w: [(W("abb"),)]})
        with pytest.raises(ValueError, match="proper word required"):
            cover_code((v,), 4, {v: [(W("ab"), (1, -1))]})

    @pytest.mark.parametrize("max_size", [3, 4, 5, 6, 8])
    def test_matches_the_pairwise_join(self, max_size):
        # covers of bbb and of two of its mirrors over three pairs, of two to
        # four words; at caps 4-6 the first join takes candidates from the
        # word index (s > 0) for some pairs of cover sizes and every cover of
        # the size (s <= 0) for others
        alphabet = Alphabet(3)
        v = W("bbb")
        family = [c for n in (2, 3, 4) for c in enumerate_minimal_covers(v, n, alphabet)]
        families = {v: family}
        for flipped in ((0,), (0, 1)):
            word = tuple(s ^ 1 if i in flipped else s for i, s in enumerate(v))
            families[word] = [
                tuple(sorted(
                    tuple(s ^ 1 if i in flipped and s >> 1 == 1 else s for i, s in enumerate(x))
                    for x in c
                ))
                for c in Random(len(flipped)).sample(family, 60)
            ]
        sizes = {len(c) for c in family}
        shares = {p + q - max_size for p in sizes for q in sizes}
        assert (min(shares) <= 0 < max(shares)) == (max_size in (4, 5, 6))
        # every third cover in reverse word order, and two covers twice
        for word, fam in families.items():
            fam[::3] = [c[::-1] for c in fam[::3]]
            fam.extend([fam[1], tuple(sorted(fam[0]))])
        code = tuple(sorted(families))
        joint = cover_code(code, max_size, families)
        assert joint == slow_cover_code(code, max_size, families)
        assert joint == counter_cover_code(code, max_size, families)
        for c in joint:
            assert is_polybox_code(c) and code_covered(code, c) and len(c) <= max_size

    @pytest.mark.parametrize("case", ["one letter", "high pairs", "unprimed top"])
    def test_sparse_universes_match_the_pairwise_join(self, case):
        """The join packs words over the letters each position uses, in the
        alphabet of the largest letter: here a position that carries one
        letter, positions that carry letters of high pairs only, and a
        largest letter that is unprimed."""
        relabel, holds = {
            "one letter": (lambda x: (0,) + x, lambda at: at[0] == {0}),
            "high pairs": (lambda x: tuple(s + 4 for s in x), lambda at: min(map(min, at)) >= 4),
            "unprimed top": (lambda x: x + (6,), lambda at: max(map(max, at)) == 6),
        }[case]
        families = two_word_families(relabel)
        code = tuple(sorted(families))
        words = {x for fam in families.values() for c in fam for x in c}
        assert holds([set(column) for column in zip(*words)])
        for max_size in (3, 4, 5, 6):
            joint = cover_code(code, max_size, families)
            assert joint == slow_cover_code(code, max_size, families)
            assert joint or max_size == 3

    def test_matches_the_counter_join_on_the_anchor_pair(self):
        # the sabc-partial families at sizes 5-7: covers of bbbbb over three
        # pairs, twin-free, bridge-filtered as the repro job filters them,
        # and their mirrors onto b'b'b'bb; 7,744 covers each, too many for
        # the pairwise twin
        alphabet = Alphabet(3)
        w = tuple([ANCHOR_LETTER ^ 1] * 3 + [ANCHOR_LETTER] * 2)
        bridges = {
            q for q in itertools.product(alphabet.letters(), repeat=5)
            if overlap_weight(q, w) > 0
        }
        family_v = [
            c for size in (5, 6, 7)
            for c in enumerate_minimal_covers(
                V5, size, alphabet, twin_free=True,
                keep=lambda c: len(c) - len(bridges.intersection(c)) <= 3,
            )
        ]
        mirror = _mirror_to_second_word(alphabet)
        families = {V5: family_v, w: [apply_code(mirror, c) for c in family_v]}
        assert len(family_v) == 7744
        joint = cover_code((V5, w), 8, families)
        assert joint == counter_cover_code((V5, w), 8, families)
        assert sum(len(c) == 8 for c in joint) == 64


class TestFindSecondCodes:
    def test_rebuild_dropped_word(self):
        first, second = special_pair()
        family = find_second_codes(second, first[:-1], Alphabet(2))
        assert family == (first,)

    def test_members_share_binary_codes(self):
        first, second = special_pair()
        for code in find_second_codes(second, first[:-1], Alphabet(2)):
            assert binary_code_set(code) == binary_code_set(second)
            assert are_equivalent(code, second)

    def test_every_drop_position_recovers(self):
        first, second = special_pair()
        for drop in (0, 5, 11):
            partial = tuple(w for i, w in enumerate(first) if i != drop)
            family = find_second_codes(second, partial, Alphabet(2))
            assert first in family

    def test_low_density_rejected(self):
        with pytest.raises(ValueError, match="sparse"):
            find_second_codes(
                make_code([W("aa"), W("a'a"), W("aa'"), W("a'a'")]),
                make_code([W("aa")]),
                Alphabet(2),
            )

    def test_full_partial_rejected(self):
        first, second = special_pair()
        with pytest.raises(ValueError, match="strictly smaller"):
            find_second_codes(second, first, Alphabet(2))

    def test_slot_product_over_budget_rejected(self, monkeypatch):
        first, second = special_pair()
        monkeypatch.setattr(search, "MAX_SECOND_CANDIDATES", 0)
        with pytest.raises(ValueError, match="candidate budget"):
            find_second_codes(second, first[:-1], Alphabet(2))

    @pytest.mark.parametrize("pairs,dim", [(2, 3), (3, 3), (2, 4)])
    def test_matches_the_subset_twin(self, pairs, dim):
        # any two cube tiling codes of one dimension are equivalent, so a
        # seeded pair with one to three words dropped from the second is
        # a reconstruction instance
        alphabet = Alphabet(pairs)
        largest = 0
        for seed in range(4):
            rng = Random(seed)
            known = random_tiling_code(alphabet, dim, rng)
            first = random_tiling_code(alphabet, dim, rng)
            for drop in (1, 2, 3):
                partial = tuple(sorted(rng.sample(first, len(first) - drop)))
                for min_density in (1, 2, 3):
                    twin = slow_second_codes(known, partial, alphabet, min_density)
                    if density(known, partial) < min_density:
                        assert twin == ()
                        with pytest.raises(ValueError, match="sparse"):
                            find_second_codes(known, partial, alphabet, min_density)
                        continue
                    got = find_second_codes(known, partial, alphabet, min_density)
                    assert got == twin, (seed, drop, min_density)
                    largest = max(largest, len(got))
        assert largest > 1


# slow twin: ``find_second_codes`` from its definition, every subset of the
# words that extend the partial code, with no binary-code slots -----------

def slow_second_codes(known, partial, alphabet, min_density):
    words = [
        q for q in itertools.product(alphabet.letters(), repeat=len(known[0]))
        if q not in partial and all(is_dichotomous(q, r) for r in partial)
    ]
    out = []
    for extra in itertools.combinations(words, len(known) - len(partial)):
        candidate = tuple(sorted(partial + extra))
        if (
            is_polybox_code(candidate)
            and are_equivalent(candidate, known)
            and common_density(candidate, known) >= min_density
        ):
            out.append(candidate)
    return tuple(sorted(out))


def two_word_families(relabel=lambda x: x) -> dict:
    """Cover families for the code ``{bb, b'b}`` over two pairs: the
    minimal covers of ``bb`` of two to four words, and their mirrors under
    ``b <-> b'`` at position 0, with every word relabelled."""
    family = [c for n in (2, 3, 4) for c in enumerate_minimal_covers(W("bb"), n, Alphabet(2))]
    mirror = lambda x: (x[0] ^ (x[0] >> 1 == 1),) + x[1:]
    return {
        relabel(u): [tuple(sorted(map(relabel, map(move, c)))) for c in family]
        for u, move in ((W("bb"), lambda x: x), (W("b'b"), mirror))
    }


# nested searches that call themselves through their cells are freed on
# return: with the collector off, one call leaves no cycle behind ----------

@pytest.mark.parametrize(
    "call",
    [
        lambda: weight_compositions(5, 7),
        lambda: random_tiling_code(Alphabet(3), 3, Random(1)),
        lambda: cover_word(V5, 7, Alphabet(2)),
        lambda: enumerate_minimal_covers(V5, 4, Alphabet(3)),
        lambda: _tiling_census(Alphabet(2), 3),
        lambda families=two_word_families(): cover_code(tuple(sorted(families)), 5, families),
    ],
    ids=[
        "weight_compositions", "random_tiling_code", "cover_word", "enumerate", "tiling_census",
        "cover_code",
    ],
)
def test_leaves_no_reference_cycles(call):
    call()  # fill the caches first
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# slow twin: ``cover_code`` as it was before the word bitmasks, joining
# every pair of partial and family cover through pairwise checks ----------

def slow_cover_code(code, max_size, families):
    current = {frozenset(c) for c in families[code[0]] if len(c) <= max_size}
    for u in code[1:]:
        new = set()
        for partial in current:
            for d in map(frozenset, families[u]):
                union = partial | d
                if len(union) <= max_size and all(
                    is_dichotomous(x, y) for x in partial - d for y in d - partial
                ):
                    new.add(union)
        current = new
    return tuple(sorted(tuple(sorted(c)) for c in current))


# slow twin: ``cover_code`` as it was before the pigeonhole join, counting
# per partial cover the words each family cover shares with it; it reaches
# the full-size families the pairwise twin cannot.  It checks a join by
# ``is_dichotomous`` on each pair of words, remembered, not over word
# bitmasks, so it shares no mask kernel with ``cover_code`` ----------------

def counter_cover_code(code, max_size, families):
    words = sorted(code)
    if not words:
        raise ValueError("cannot cover an empty code")
    for u in words:
        if u not in families or not families[u]:
            raise ValueError("every word needs a non-empty cover family")
    fams = [[c for c in families[u] if len(c) <= max_size] for u in words]
    universe = sorted({w for fam in fams for c in fam for w in c})
    if len({len(w) for w in universe}) > 1:
        raise ValueError("the cover families mix dimensions")
    for w in universe:
        if not is_proper(w):
            raise ValueError(f"proper word required: {format_plain(w)}")
    index = {w: i for i, w in enumerate(universe)}
    apart = lru_cache(maxsize=None)(lambda i, j: is_dichotomous(universe[i], universe[j]))

    def members(fam: list[Code]) -> list[tuple[int, ...]]:
        return sorted({tuple(sorted(index[w] for w in c)) for c in fam})

    current = members(fams[0])
    for fam in map(members, fams[1:]):
        # the least overlap any union within max_size needs
        least = min(map(len, current), default=0) + min(map(len, fam), default=0) - max_size
        containing: dict[int, list[int]] = {}
        for m, ids in enumerate(fam):
            for i in ids:
                containing.setdefault(i, []).append(m)
        new: set[tuple[int, ...]] = set()
        for partial in current:
            room = max_size - len(partial)
            if least > 0:
                shared = Counter(itertools.chain.from_iterable(
                    [containing.get(i, ()) for i in partial]
                ))
                candidates = [m for m, n in shared.items() if len(fam[m]) - n <= room]
            else:
                candidates = range(len(fam))
            have = set(partial)
            for m in candidates:
                extra = [i for i in fam[m] if i not in have]
                if len(extra) <= room and all(apart(i, j) for i in partial for j in extra):
                    new.add(tuple(sorted(have.union(extra))))
        current = sorted(new)
    return tuple(tuple(universe[i] for i in ids) for ids in current)


# slow twin: ``_grow`` as it was before the exact-cover phase, over counts
# alone, as the reference the two-phase search must match; like it, it
# takes the highest set bit first, pool word ``top - b`` at bit ``b`` -----

def slow_grow(
    base: tuple[int, ...],
    allowed: int,
    level_seq: tuple[int, ...],
    pool,
    collect,
    twin_free: bool,
) -> None:
    if not level_seq:
        collect(frozenset(base))
        return
    compat = pool.twin_free if twin_free else pool.dichotomous
    masks, top = pool.level_masks, pool.packing.top
    groups: list[tuple[int, int]] = []
    for level in sorted(set(level_seq), reverse=True):
        groups.append((level, level_seq.count(level)))

    def feasible(mask: int, after: int) -> bool:
        for level, need in groups[after:]:
            if (mask & masks[level]).bit_count() < need:
                return False
        return True

    def pick(gi: int, candidates: int, mask: int, need: int, chosen: tuple[int, ...]) -> None:
        if need == 0:
            if gi + 1 == len(groups):
                collect(frozenset(chosen))
            else:
                level, count = groups[gi + 1]
                pick(gi + 1, mask & masks[level], mask, count, chosen)
            return
        while candidates:
            b = candidates.bit_length() - 1
            candidates ^= 1 << b
            idx = top - b
            nmask = mask & compat[idx]
            if need > 1 and (candidates & nmask).bit_count() < need - 1:
                continue
            if not feasible(nmask, gi + 1):
                continue
            pick(gi, candidates & nmask, nmask, need - 1, chosen + (idx,))

    level, count = groups[0]
    if feasible(allowed, 0):
        pick(0, allowed & masks[level], allowed, count, base)


def grown(grow, base, allowed, level_seq, pool, twin_free) -> frozenset:
    """The index sets one ``_grow`` call collects; each exactly once."""
    calls = []
    grow(base, allowed, level_seq, pool, calls.append, twin_free)
    assert len(calls) == len(set(calls)), "an index set was collected twice"
    return frozenset(calls)


@pytest.fixture
def twinned_grow(monkeypatch):
    """Every ``_grow`` call the searches make is also run through the slow
    twin and must collect the same index sets; the calls are recorded as
    ``(base, level_seq, covers found)``."""
    calls = []

    def twin(base, allowed, level_seq, pool, collect, twin_free):
        args = (base, allowed, level_seq, pool, twin_free)
        got = grown(_grow, *args)
        assert got == grown(slow_grow, *args), (base, level_seq)
        calls.append((base, level_seq, len(got)))
        for ids in got:
            collect(ids)

    monkeypatch.setattr(search, "_grow", twin)
    return calls


def profile(level_seq: tuple[int, ...], dim: int = 5) -> tuple[int, ...]:
    counts = Counter(level_seq)
    return tuple(counts[level] for level in range(dim))


def direct_covers(size: int, alphabet: Alphabet, twin_free: bool, dim: int = 5) -> dict:
    """Slow twin of ``enumerate_minimal_covers``: the per-composition loop
    it replaced, one unseeded ``_grow`` per level profile, with no
    symmetry.  The covers of ``b...b`` found, per profile."""
    pool = _cover_pool(alphabet.pair_count, dim)
    full = (1 << len(pool.words)) - 1
    out = {}
    for x in weight_compositions(dim, size):
        seq = tuple(level for level in range(dim) for _ in range(x[level]))
        found = grown(_grow, (), full, seq, pool, twin_free)
        out[x] = {tuple(sorted(pool.words[i] for i in ids)) for ids in found}
    return out


def through_lowest_top_word(calls, alphabet: Alphabet, size: int) -> dict:
    """Checks one call per weight composition, each grown from the lowest
    pool word of the composition's top level; the covers through that
    word, per level profile."""
    words = _cover_pool(alphabet.pair_count, 5).words
    found = {}
    for base, seq, n in calls:
        (w0,) = base
        level = words[w0].count(2)
        assert level >= max(seq, default=0)
        assert words[w0] == (0,) * (5 - level) + (2,) * level
        found[profile(seq + (level,))] = n
    assert len(calls) == len(found)
    assert set(found) == set(weight_compositions(5, size))
    return found


class TestGrowAgainstSlowTwin:
    @pytest.mark.parametrize("size", range(5, 10))
    def test_direct_twin_free_two_pairs(self, twinned_grow, size):
        alphabet = Alphabet(2)
        family = enumerate_minimal_covers(V5, size, alphabet, twin_free=True)
        through_lowest_top_word(twinned_grow, alphabet, size)
        direct = direct_covers(size, alphabet, twin_free=True)
        assert family == tuple(sorted(set().union(*direct.values())))

    @pytest.mark.parametrize(
        "size, twin_free", [(2, False), (3, False), (4, False), (5, True), (6, True)]
    )
    def test_direct_three_pairs(self, twinned_grow, size, twin_free):
        alphabet = Alphabet(3)
        family = enumerate_minimal_covers(V5, size, alphabet, twin_free=twin_free)
        through_lowest_top_word(twinned_grow, alphabet, size)
        direct = direct_covers(size, alphabet, twin_free)
        assert family == tuple(sorted(set().union(*direct.values()))) != ()

    def test_every_profile_of_the_size_7_three_pair_family(self, twinned_grow):
        alphabet = Alphabet(3)
        family = enumerate_minimal_covers(V5, 7, alphabet, twin_free=True)
        found = through_lowest_top_word(twinned_grow, alphabet, 7)
        direct = direct_covers(7, alphabet, twin_free=True)
        assert family == tuple(sorted(set().union(*direct.values())))
        assert len(family) == sum(map(len, direct.values())) == 66560
        # profiles whose counts leave room but whose cells cannot be tiled
        # twin-free: the exact-cover phase cuts these short, and they are
        # searched once, through one top-level word
        for dead in ((0, 0, 6, 1, 0), (0, 4, 2, 0, 1)):
            assert found[dead] == len(direct[dead]) == 0
        # a live profile yields more covers than pass through its w0
        assert all(found[x] <= len(direct[x]) for x in direct)
        assert sum(found.values()) < len(family)

    @pytest.mark.parametrize("size", range(5, 10))
    def test_seeded_two_pairs(self, twinned_grow, size):
        family = cover_word(V5, size, Alphabet(2))
        assert family
        assert twinned_grow and all(len(base) == 2 for base, _, _ in twinned_grow)


# slow twin: ``cover_word`` as a filter on the direct enumeration, keeping
# the covers that hold a standard seed on their lowest occupied level ------

@lru_cache(maxsize=8)
def direct_twin_free(pairs: int, size: int) -> tuple:
    return enumerate_minimal_covers(V5, size, Alphabet(pairs), twin_free=True)


@lru_cache(maxsize=8)
def last_seed_units(pairs: int, size: int) -> dict:
    """Per cover of the direct twin-free family that holds a standard seed
    on its lowest occupied level, in sorted order, the last (composition,
    seed) unit with such a seed."""
    compositions = weight_compositions(5, size)
    seeds = [(seed[0].count(ANCHOR_LETTER), set(seed)) for seed in standard_seeds()]
    out = {}
    for cover in direct_twin_free(pairs, size):
        levels = [w.count(ANCHOR_LETTER) for w in cover]
        ci = compositions.index(profile(levels))
        units = [
            (ci, si) for si, (level, seed) in enumerate(seeds)
            if level == min(levels) and seed <= set(cover)
        ]
        if units:
            out[cover] = units[-1]
    return out


def permute(source, word):
    return tuple(word[p] for p in source)


def placed_direct(pairs: int, size: int) -> tuple:
    """The covers of the direct twin-free family that hold some
    position-permuted placement of a standard seed on their lowest occupied
    level."""
    placements = {
        (seed[0].count(ANCHOR_LETTER), frozenset(permute(perm, w) for w in seed))
        for seed in standard_seeds()
        for perm in itertools.permutations(range(5))
    }
    out = []
    for cover in direct_twin_free(pairs, size):
        lowest = min(w.count(ANCHOR_LETTER) for w in cover)
        if any(level == lowest and placed <= set(cover) for level, placed in placements):
            out.append(cover)
    return tuple(out)


def seeded_direct(pairs: int, size: int, resume=(0, 0)) -> tuple:
    """The covers ``cover_word`` must find: those with a seed at a unit at
    or after ``resume``."""
    return tuple(c for c, unit in last_seed_units(pairs, size).items() if unit >= resume)


class TestCoverWordAgainstSlowTwin:
    @pytest.mark.parametrize("size", [5, 6, 7, 8, 9] + [
        pytest.param(10, marks=pytest.mark.skipif(not LONG, reason="runs with POLYBOX_LONG=1"))
    ])
    def test_two_pairs(self, size):
        family = cover_word(V5, size, Alphabet(2))
        assert family == seeded_direct(2, size) != ()

    @pytest.mark.parametrize("size", [5, 6, 7])
    def test_three_pairs(self, size):
        family = cover_word(V5, size, Alphabet(3))
        assert family == seeded_direct(3, size) != ()

    @pytest.mark.parametrize("pairs, size", [(2, 7), (2, 8), (2, 9), (3, 7)])
    def test_without_layouts(self, pairs, size):
        # growing from each seed alone, not from its position-permuted
        # placements, drops covers but no class
        alphabet = Alphabet(pairs)
        family = cover_word(V5, size, alphabet)
        placed = placed_direct(pairs, size)
        assert set(family) < set(placed)
        stabilizer = word_stabilizer(V5, alphabet)
        assert set(dedup_orbits(family, stabilizer)) == set(
            dedup_orbits(placed, stabilizer)
        )

    @pytest.mark.parametrize("three_pairs", [False, True])
    def test_resume_cursors(self, three_pairs):
        # the unit at each cursor finds covers that no later unit finds, so
        # skipping it shows; at two pairs, (5, 1) sits past seed 0's unit of
        # composition 5, which must be skipped
        if three_pairs:
            self.check_resume_cursors(3, 7, [(1, 1), (6, 0)])
        else:
            self.check_resume_cursors(2, 9, [(1, 1), (3, 1), (5, 0), (5, 1)])

    @pytest.mark.skipif(not LONG, reason="runs with POLYBOX_LONG=1")
    def test_resume_cursors_at_size_10(self):
        self.check_resume_cursors(2, 10, [(0, 1), (1, 1), (4, 0), (5, 0), (5, 3), (9, 0)])

    @staticmethod
    def check_resume_cursors(pairs, size, cursors):
        alphabet = Alphabet(pairs)
        compositions = len(weight_compositions(5, size))
        whole = cover_word(V5, size, alphabet)
        counts = []
        for cursor in [*cursors, (compositions, 0)]:
            family = cover_word(V5, size, alphabet, resume=cursor)
            assert family == seeded_direct(pairs, size, cursor)
            assert set(family) <= set(whole)
            counts.append(len(family))
        # the first cursor skips nothing, and each later one cuts more off
        assert counts[0] == len(whole) and counts[-1] == 0
        assert counts == sorted(set(counts), reverse=True)


# slow twin: the census of cube tiling codes as a backtracker over rows of
# the whole word space built by pairwise ``is_dichotomous``, word ``j`` at
# bit ``j``; no cells, no pool and no packing ------------------------------

def slow_tiling_census(alphabet: Alphabet, dim: int) -> set:
    words = list(itertools.product(alphabet.letters(), repeat=dim))
    rows = [sum(1 << j for j, w in enumerate(words) if is_dichotomous(v, w)) for v in words]
    found = set()
    chosen = []

    def rec(candidates: int, need: int) -> None:
        if need == 0:
            found.add(tuple(chosen))
            return
        while candidates.bit_count() >= need:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            chosen.append(words[j])
            rec(candidates & rows[j], need - 1)
            chosen.pop()

    rec((1 << len(words)) - 1, 1 << dim)
    return found


def tiling_codes(alphabet: Alphabet, dim: int) -> set[Code]:
    """``_tiling_census`` decoded to sorted codes."""
    return set(map(_Packing(alphabet, dim).unpack, _tiling_census(alphabet, dim)))


class TestTilingCodes:
    @pytest.mark.parametrize("pairs", [2, 3])
    def test_d3_against_the_backtracker(self, pairs):
        alphabet = Alphabet(pairs)
        assert tiling_codes(alphabet, 3) == slow_tiling_census(alphabet, 3)

    @pytest.mark.parametrize("pairs, count", [(1, 1), (2, 12)])
    def test_d2_against_brute_force(self, pairs, count):
        alphabet = Alphabet(pairs)
        words = itertools.product(alphabet.letters(), repeat=2)
        brute = {c for c in itertools.combinations(words, 4) if is_polybox_code(c)}
        got = tiling_codes(alphabet, 2)
        assert got == brute == slow_tiling_census(alphabet, 2)
        assert len(got) == count

    @pytest.mark.parametrize("dim, pairs", [(2, 2), (3, 2), (3, 3)])
    def test_census_is_packed_like_the_closure(self, dim, pairs):
        """The census and the closure of the simple code compare as ints."""
        alphabet = Alphabet(pairs)
        census = _tiling_census(alphabet, dim)
        closed = closure(make_code(itertools.product((0, 1), repeat=dim)), alphabet)
        assert closed.exhausted and census == closed.packed
        assert tiling_codes(alphabet, dim) == closed.states

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_sampled_codes_are_members(self, pairs):
        alphabet = Alphabet(pairs)
        census = tiling_codes(alphabet, 3)
        for seed in range(20):
            assert random_tiling_code(alphabet, 3, Random(seed)) in census

    def test_large_pools_are_refused_before_building(self):
        # (7, 3): 145 MB of bitmask rows and cell tables
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cover pool too large"):
                _tiling_census(Alphabet(6), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dimension_one_is_refused(self):
        with pytest.raises(ValueError, match="from dimension 2"):
            _tiling_census(Alphabet(2), 1)
