"""Bundled data: transcription locks."""

import pytest

from polybox.core import (
    are_disjoint,
    are_equivalent,
    binary_code_set,
    common_density,
    is_covered,
    is_cube_tiling_code,
    is_polybox_code,
)
from polybox.catalog import (
    entries,
    entry,
    example_pair,
    example_trace,
    small_covers,
    special_pair,
)
from polybox.moves import replay, twin_pairs
from polybox.pbxio import parse_word

W = parse_word


def test_every_entry_validates():
    for item in entries().values():
        for code in item.codes:
            assert is_polybox_code(code)


def test_unknown_entry():
    with pytest.raises(KeyError, match="unknown"):
        entry("missing")


class TestSpecialPair:
    def test_transcription_lock(self):
        first, second = special_pair()
        assert len(first) == len(second) == 12
        assert not twin_pairs(first) and not twin_pairs(second)
        assert are_disjoint(first, second)
        assert are_equivalent(first, second)
        assert binary_code_set(first) == binary_code_set(second)
        assert common_density(first, second) >= 5


class TestSmallCovers:
    def test_sizes(self):
        assert [len(c) for c in small_covers()] == [4, 4, 3, 2]

    def test_all_cover_the_anchor(self):
        v = W("bbbbb")
        for cover in small_covers():
            assert is_covered(v, cover)


class TestExampleFlip:
    def test_codes_are_square_tilings(self):
        first, second = example_pair()
        assert is_cube_tiling_code(first) and is_cube_tiling_code(second)

    def test_trace_connects_the_pair(self):
        first, second = example_pair()
        assert replay(first, example_trace()) == second
