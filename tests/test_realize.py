"""The cell-enumeration oracle, and its agreement with the weight
criterion (the two deliberately independent cover routes)."""

from random import Random

import pytest
from hypothesis import given, settings

from polybox.alphabet import Alphabet
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
    assert cells.sum() == (4 // 2) ** 2


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
        ((0, 0, 0), ((0, 0),)),  # numpy would broadcast the smaller box
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
