"""The cell-enumeration oracle, and its agreement with the weight
criterion (the two deliberately independent cover routes)."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings

from polybox.alphabet import STAR, Alphabet
from polybox.core import (
    density,
    is_covered,
    make_code,
    overlap_weight,
)
from polybox.catalog import small_covers
from polybox.pbxio import parse_word
from polybox.realize import (
    box,
    oracle_boxes_meet,
    oracle_is_covered,
    oracle_meet_count,
)
from polybox.sampling import random_code, random_word

from strategies import codes, word_pairs

W = parse_word


def test_box_volume_is_half_per_position():
    alphabet = Alphabet(2)
    cells = box(W("ab"), alphabet)
    assert cells.bit_count() == (4 // 2) ** 2


def _cell_box(v, alphabet):
    """The box as a cell bitset, one cell at a time: cell ``c`` has point
    ``p[i]`` at position ``i`` (digit ``i`` of ``c``, radix ``2**k``), and
    lies in the box when every point sits in its letter's half."""
    points = 1 << alphabet.pair_count
    bits = 0
    for p in product(range(points), repeat=len(v)):
        if all((p[i] >> (s >> 1)) & 1 == s & 1 for i, s in enumerate(v)):
            bits |= 1 << sum(p[i] * points**i for i in range(len(v)))
    return bits


@pytest.mark.parametrize("pairs", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_matches_per_cell_membership(pairs, dim):
    alphabet = Alphabet(pairs)
    for v in product(alphabet.letters(), repeat=dim):
        assert box(v, alphabet) == _cell_box(v, alphabet)


def test_letters_without_a_box_are_refused():
    alphabet = Alphabet(2)
    with pytest.raises(ValueError, match="joker"):
        box((0, STAR, 2), alphabet)
    with pytest.raises(ValueError, match="joker"):
        oracle_is_covered((0, 0, 0), ((0, STAR, 2),), alphabet)
    # c and c' lie outside two pairs; core.is_covered, which needs no
    # alphabet, says ca and c'a are covered by {aa, a'a}
    for c in (4, 5):
        with pytest.raises(ValueError, match="not in the alphabet"):
            oracle_is_covered((c, 0), ((0, 0), (1, 0)), alphabet)


def test_reference_cover_is_covered():
    assert oracle_is_covered(W("bbbbb"), small_covers()[1], Alphabet(3))


def test_self_cover():
    v = W("abc")
    assert oracle_is_covered(v, (v,), Alphabet(3))


def test_scale_cap():
    with pytest.raises(ValueError, match="too large"):
        oracle_is_covered((0,) * 8, ((0,) * 8,), Alphabet(8))


@given(word_pairs())
@settings(max_examples=60)
def test_boxes_meet_iff_not_dichotomous(data):
    alphabet, v, w = data
    assert oracle_boxes_meet(v, w, alphabet) == (overlap_weight(v, w) > 0)


@given(codes(max_dim=3))
@settings(max_examples=40, deadline=None)
def test_density_equals_oracle_meet_count(data):
    alphabet, code = data
    if not code:
        return
    w = code[0]
    assert density(code, (w,)) == oracle_meet_count(code, w, alphabet)


def test_oracle_agrees_with_weight_criterion_on_random_instances():
    rng = Random(7)
    for _ in range(150):
        dim = rng.choice((2, 3))
        alphabet = Alphabet(rng.choice((2, 3)))
        code = random_code(alphabet, dim, rng, max_size=rng.randrange(1, 2**dim + 1))
        word = random_word(alphabet, dim, rng)
        assert is_covered(word, code) == oracle_is_covered(word, code, alphabet)


def test_empty_code_covers_nothing_by_either_route():
    rng = Random(11)
    for dim in (1, 2, 3, 4):
        for pairs in (1, 2, 3):
            alphabet = Alphabet(pairs)
            for _ in range(3):
                word = random_word(alphabet, dim, rng)
                assert is_covered(word, ()) is False
                assert oracle_is_covered(word, (), alphabet) is False


def test_dimension_mismatch_is_refused_by_either_route():
    alphabet = Alphabet(2)
    cases = [
        ((0, 0, 0), ((0, 0),)),  # the smaller box's bits would stand for other cells
        ((0, 0, 1), ((0,), (1,))),
        ((0, 0), ((0, 0, 0),)),
    ]
    for word, code in cases:
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_covered(word, code)
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle_is_covered(word, code, alphabet)
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle_boxes_meet(code[0], word, alphabet)
