"""The bitmask random code generators against their slow twins, and the
cover pool's mask rows against the pairwise word predicates."""

import itertools
from collections import Counter
from random import Random

import pytest

from polybox.alphabet import Alphabet
from polybox.core import (
    is_cube_tiling_code,
    is_dichotomous,
    is_polybox_code,
    twin_pair_direction,
)
from polybox.moves import STATE_BITS_CAP
from polybox.realize import box
from polybox.sampling import _packing, random_code, random_tiling_code, random_word
from polybox.search import ANCHOR_LETTER, _cover_pool

ORACLE_FUZZ_SEED = 20240831  # the stream of ``polybox repro oracle-fuzz``
CASES = [(d, k) for d in (2, 3, 4) for k in (2, 3)]


# slow twins: a tuple pool, each word tested against every word taken ------

def slow_random_code(alphabet, dim, rng, max_size=None):
    pool = list(itertools.product(alphabet.letters(), repeat=dim))
    rng.shuffle(pool)
    chosen = []
    for q in pool:
        if all(is_dichotomous(q, v) for v in chosen):
            chosen.append(q)
            if max_size is not None and len(chosen) >= max_size:
                break
    return tuple(sorted(chosen))


def slow_random_tiling_code(alphabet, dim, rng):
    pool = list(itertools.product(alphabet.letters(), repeat=dim))
    rng.shuffle(pool)
    target = 1 << dim
    chosen = []

    def rec(start):
        if len(chosen) == target:
            return True
        for i in range(start, len(pool)):
            q = pool[i]
            if all(is_dichotomous(q, v) for v in chosen):
                chosen.append(q)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0):
        raise RuntimeError("backtracking failed to complete a tiling code")
    return tuple(sorted(chosen))


def fuzz_codes(rng, instances, tiling=random_tiling_code, code=random_code):
    """The codes of the ``oracle-fuzz`` procedure as (d, k, max_size, code),
    max_size None for a tiling code; the word draws are made as well, so
    the stream stays the procedure's."""
    for dim, pairs in itertools.islice(itertools.cycle(CASES), instances):
        alphabet = Alphabet(pairs)
        roll = rng.random()
        max_size = None
        if roll < 0.4:
            drawn = tiling(alphabet, dim, rng)
        else:
            max_size = rng.randrange(1, 2**dim + 1)
            drawn = code(alphabet, dim, rng, max_size=max_size)
        if roll < 0.2 and drawn:
            rng.randrange(len(drawn))
        else:
            random_word(alphabet, dim, rng)
        yield dim, pairs, max_size, drawn


def twinned(fast, slow, calls):
    """``fast``, checked against ``slow`` run on a copy of the generator:
    equal codes, and equal generator states after the call."""

    def call(alphabet, dim, rng, **kwargs):
        twin = Random()
        twin.setstate(rng.getstate())
        expected = slow(alphabet, dim, twin, **kwargs)
        got = fast(alphabet, dim, rng, **kwargs)
        assert got == expected
        assert rng.getstate() == twin.getstate()
        calls[fast.__name__, dim, alphabet.pair_count] += 1
        return got

    return call


@pytest.mark.parametrize("seed", [ORACLE_FUZZ_SEED, 3, 8])
def test_generators_match_their_slow_twins(seed):
    calls = Counter()
    tiling = twinned(random_tiling_code, slow_random_tiling_code, calls)
    code = twinned(random_code, slow_random_code, calls)
    for _ in fuzz_codes(Random(seed), 200, tiling, code):
        pass
    assert set(calls) == {
        (name, d, k)
        for name in ("random_tiling_code", "random_code")
        for d, k in CASES
    }


def test_unconstrained_greedy_code_matches_its_slow_twin():
    rng = Random(17)
    code = twinned(random_code, slow_random_code, Counter())
    for dim, pairs in CASES:
        code(Alphabet(pairs), dim, rng)


@pytest.mark.parametrize(
    "dim, pairs", [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (5, 2)]
)
def test_spaces_beyond_the_fuzz_cases_match_their_slow_twins(dim, pairs):
    """One position, or one letter pair, where every two distinct words
    are dichotomous and a tiling code is the whole space; and greedy codes
    at d=5, where the slow tiling twin would backtrack too long."""
    alphabet = Alphabet(pairs)
    tiling = twinned(random_tiling_code, slow_random_tiling_code, Counter())
    code = twinned(random_code, slow_random_code, Counter())
    rng = Random(10 * dim + pairs)
    for max_size in (None, 1, 2, 2**dim, 2**dim + 1):
        if dim < 5:
            tiling(alphabet, dim, rng)
        code(alphabet, dim, rng, max_size=max_size)


def test_warm_cache_keeps_the_stream():
    """A space's second call, with other spaces called in between, draws
    and returns what its first call on a cold cache did."""
    alphabet = Alphabet(3)

    def calls(rng):
        return [random_tiling_code(alphabet, 3, rng), random_code(alphabet, 3, rng, max_size=5)]

    _packing.cache_clear()
    first, second = Random(6), Random(6)
    codes = calls(first)
    other = Random(7)
    for dim, pairs in CASES:
        random_tiling_code(Alphabet(pairs), dim, other)
        random_code(Alphabet(pairs), dim, other)
    assert calls(second) == codes
    assert second.getstate() == first.getstate()


@pytest.mark.parametrize("max_size", [0, -5])
def test_random_code_refuses_max_size_below_one(max_size):
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="max_size"):
        random_code(Alphabet(2), 3, rng, max_size=max_size)
    assert rng.getstate() == state


@pytest.mark.parametrize("generate", [random_code, random_tiling_code])
def test_generators_refuse_dimension_zero(generate):
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="dimension"):
        generate(Alphabet(2), 0, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("generate", [random_code, random_tiling_code])
@pytest.mark.parametrize("pairs, dim", [(8, 8), (8, 5), (3, 7), (2, 9)])
def test_generators_refuse_word_spaces_over_the_cap(generate, pairs, dim):
    """Refused before the packing is built or the shuffle list made."""
    assert (2 * pairs) ** dim > STATE_BITS_CAP
    rng = Random(1)
    state, misses = rng.getstate(), _packing.cache_info().misses
    with pytest.raises(ValueError, match="too large"):
        generate(Alphabet(pairs), dim, rng)
    assert rng.getstate() == state
    assert _packing.cache_info().misses == misses


def test_random_code_takes_a_word_space_at_the_cap():
    assert Alphabet(8).size ** 4 == STATE_BITS_CAP
    (word,) = random_code(Alphabet(8), 4, Random(1), max_size=1)
    assert len(word) == 4


def test_heavy_tailed_stream_completes():
    """Seed 2's stream is the slowest of seeds 0-9 for the slow twins,
    about twenty times the ``oracle-fuzz`` seed's own."""
    for dim, pairs, max_size, code in fuzz_codes(Random(2), 1000):
        assert is_polybox_code(code) and len(code[0]) == dim
        assert all(s < 2 * pairs for v in code for s in v)
        if max_size is None:
            assert is_cube_tiling_code(code)
        else:
            assert 1 <= len(code) <= max_size


# cover pool rows -------------------------------------------------------------

def pairwise_rows(words, i):
    v = words[i]
    dichotomous = [is_dichotomous(v, w) for w in words]
    twin_free = [
        d and twin_pair_direction(v, w) is None for d, w in zip(dichotomous, words)
    ]
    pack = lambda bits: sum(1 << j for j, bit in enumerate(bits) if bit)
    return pack(dichotomous), pack(twin_free)


@pytest.mark.parametrize(
    "pairs, dim, rows", [(2, 5, None), (3, 4, None), (3, 5, 200)]
)
def test_cover_pool_rows_match_pairwise_predicates(pairs, dim, rows):
    pool = _cover_pool(pairs, dim)
    words = pool.words
    # every word without b', b...b included: it is in no level mask
    assert len(words) == (2 * pairs - 1) ** dim
    for level, mask in enumerate(pool.level_masks):
        assert mask == sum(
            1 << j for j, w in enumerate(words) if w.count(ANCHOR_LETTER) == level
        )
    picked = range(len(words)) if rows is None else Random(5).sample(range(len(words)), rows)
    for i in picked:
        assert (pool.dichotomous[i], pool.twin_free[i]) == pairwise_rows(words, i)


POOL_CASES = [(2, 5), (3, 4), (3, 5)]


@pytest.mark.parametrize("pairs, dim", POOL_CASES)
def test_cell_tables_tile_the_box_of_the_anchor(pairs, dim):
    """Disjoint sub-boxes exactly for dichotomous words, ``2**level`` parts
    in ``2**dim`` of the box per word, and the two tables transposed."""
    pool = _cover_pool(pairs, dim)
    words, cells = pool.words, pool.cells
    ncells = len(pool.cell_words)
    assert ncells == 1 << ((pairs - 1) * dim)
    rng = Random(pairs * 10 + dim)
    for i in rng.sample(range(len(words)), 60):
        level = words[i].count(ANCHOR_LETTER)
        assert cells[i].bit_count() == ncells >> (dim - level)
        meets = sum(1 << j for j, other in enumerate(cells) if cells[i] & other)
        assert meets == pool.dichotomous[i] ^ ((1 << len(words)) - 1)
        assert cells[i] == sum(
            1 << c for c, row in enumerate(pool.cell_words) if row >> i & 1
        )
    for c in rng.sample(range(ncells), min(ncells, 60)):
        assert pool.cell_words[c] == sum(
            1 << i for i, row in enumerate(cells) if row >> c & 1
        )


@pytest.mark.parametrize("pairs, dim", POOL_CASES)
def test_cell_tables_match_the_realization_oracle(pairs, dim):
    """A word's cells are the oracle's box of the word, inside the box of
    ``b...b``: position ``i``'s ``k - 1`` bits are the point's bits for the
    pairs other than ``b``'s, whose own bit is 0 there."""
    alphabet = Alphabet(pairs)
    pool = _cover_pool(pairs, dim)
    others = [p for p in range(pairs) if p != ANCHOR_LETTER >> 1]

    def oracle_cell(c):
        cell = 0
        for i in reversed(range(dim)):
            value = c >> (len(others) * i)
            point = sum((value >> q & 1) << p for q, p in enumerate(others))
            cell = cell << pairs | point
        return cell

    to_oracle = [oracle_cell(c) for c in range(len(pool.cell_words))]
    for i in Random(dim).sample(range(len(pool.words)), 60):
        oracle = box(pool.words[i], alphabet)
        assert pool.cells[i] == sum(
            1 << c for c, cell in enumerate(to_oracle) if oracle >> cell & 1
        )
