"""The cell-enumeration oracle, and its agreement with the weight
criterion (the two deliberately independent cover routes)."""

import ast
from itertools import product
from pathlib import Path
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
from polybox import realize
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


def slow_box(v, alphabet):
    """The box built position by position, with no table.  The box over
    the positions before ``i`` fills block 0 of ``2**k`` blocks; it is
    copied, by doubling, to every block whose point has a 0 for the
    letter's pair, and the copies then shift to the letter's half."""
    k = alphabet.pair_count
    cells, block = 1, 1
    for s in v:
        assert 0 <= s < 2 * k
        pair, side = s >> 1, s & 1
        for j in range(k):
            if j != pair:
                cells |= cells << (block << j)
        cells <<= (block << pair) * side
        block <<= k
    return cells


@pytest.mark.parametrize("pairs", [1, 2, 3])
@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_box_matches_the_doubling_on_every_word(pairs, dim):
    alphabet = Alphabet(pairs)
    for v in product(alphabet.letters(), repeat=dim):
        assert box(v, alphabet) == slow_box(v, alphabet)


@pytest.mark.parametrize("pairs", [2, 3])
def test_box_matches_the_doubling_on_sampled_words_at_d5(pairs):
    alphabet = Alphabet(pairs)
    rng = Random(pairs)
    for _ in range(200):
        v = random_word(alphabet, 5, rng)
        assert box(v, alphabet) == slow_box(v, alphabet)


def test_letters_are_refused_position_by_position():
    alphabet = Alphabet(2)
    outside_first, joker_first = (0, 4, STAR), (0, STAR, 4)
    for word, message in ((outside_first, "not in the alphabet"), (joker_first, "joker")):
        with pytest.raises(ValueError, match=message):
            box(word, alphabet)
        with pytest.raises(ValueError, match=message):
            oracle_is_covered(word, ((0, 0, 0),), alphabet)
        with pytest.raises(ValueError, match=message):
            oracle_is_covered((0, 0, 0), ((1, 1, 1), word), alphabet)


def test_dimension_mismatch_comes_after_the_asked_words_checks():
    alphabet = Alphabet(2)
    short = ((0, 0),)
    with pytest.raises(ValueError, match="too large"):
        oracle_is_covered((0,) * 13, short, alphabet)
    with pytest.raises(ValueError, match="joker"):
        oracle_is_covered((0, STAR, 0), short, alphabet)
    with pytest.raises(ValueError, match="not in the alphabet"):
        oracle_is_covered((0, 0, 4), short, alphabet)
    # each code word is measured before its letters are read
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracle_is_covered((0, 0, 0), ((1, 1, 1), (STAR,)), alphabet)


# the oracle is the independent cover route: it may take only the word
# and code types from core, and nothing from the searchers
ORACLE_CORE_NAMES = {"Code", "Word"}
ORACLE_FORBIDDEN = {"sampling", "search", "moves", "iso"}


def _oracle_import_faults(source):
    """The imports of a module of ``polybox`` that would tie the oracle
    to the other cover route."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "polybox" and (
                    len(parts) == 1 or parts[1] in ORACLE_FORBIDDEN | {"core"}
                ):
                    faults.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "polybox" and not module.startswith("polybox."):
                    continue
                module = module.removeprefix("polybox").removeprefix(".")
            names = {alias.name for alias in node.names}
            if not module:
                faults += sorted(names & (ORACLE_FORBIDDEN | {"core", "*"}))
            elif module.split(".")[0] in ORACLE_FORBIDDEN:
                faults.append(module)
            elif module == "core":
                faults += sorted(names - ORACLE_CORE_NAMES)
    return faults


def test_oracle_imports_nothing_of_the_other_cover_route():
    source = Path(realize.__file__).read_text()
    assert "from .core import Code, Word" in source
    assert _oracle_import_faults(source) == []


@pytest.mark.parametrize(
    "line",
    [
        "from .core import Code, Word, _letter_masks",
        "from .core import _Packing",
        "from polybox.core import *",
        "from . import sampling",
        "from .search import _cover_pool",
        "from polybox.moves import closure",
        "import polybox.iso",
        "import polybox.core",
        "import polybox",
    ],
)
def test_oracle_import_guard_catches(line):
    assert _oracle_import_faults(line)


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


def test_scale_cap(monkeypatch):
    # refused before a table is built or a kept one let go
    before = dict(realize._tables)
    monkeypatch.setattr(realize, "_build_masks", None)
    with pytest.raises(ValueError, match="too large"):
        oracle_is_covered((0,) * 8, ((0,) * 8,), Alphabet(8))
    with pytest.raises(ValueError, match="too large"):
        box((STAR,) * 8, Alphabet(8))
    assert realize._tables.keys() == before.keys()
    assert all(realize._tables[key] is before[key] for key in before)


def _kept_bytes() -> int:
    """The bytes of every mask the oracle keeps, from the ints themselves."""
    return sum(
        (mask.bit_length() + 7) // 8
        for rows, _ in realize._tables.values()
        for row in rows
        for mask in row
    )


@pytest.mark.parametrize("pairs,dim", [(1, 1), (2, 3), (3, 4), (4, 2), (1, 0)])
def test_mask_bytes_are_the_masks_bytes(pairs, dim, monkeypatch):
    monkeypatch.setattr(realize, "_tables", {})
    box((0,) * dim, Alphabet(pairs))
    assert _kept_bytes() == realize._mask_bytes(pairs, dim)


def test_cell_cap_questions_keep_one_table_and_the_small_ones(monkeypatch):
    """Three questions at the cell cap keep one table of at most 96 MiB of
    masks; the six small tables asked before stay, so asking them again
    builds nothing."""
    monkeypatch.setattr(realize, "_tables", {})
    small = [(Alphabet(k), d) for d in (2, 3, 4) for k in (2, 3)]
    for alphabet, dim in small:
        assert not oracle_is_covered((0,) * dim, ((1,) + (0,) * (dim - 1),), alphabet)
    for pairs, dim in ((3, 8), (2, 12), (4, 6)):
        w = (0,) * dim
        assert oracle_is_covered(w, (w, (1,) + w[1:]), Alphabet(pairs))
        assert _kept_bytes() <= 96 << 20
        assert list(realize._tables)[-1] == (Alphabet(pairs), dim)
    assert list(realize._tables) == small + [(Alphabet(4), 6)]
    monkeypatch.setattr(realize, "_build_masks", None)
    for alphabet, dim in small:
        assert oracle_is_covered((0,) * dim, ((0,) * dim,), alphabet)


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
