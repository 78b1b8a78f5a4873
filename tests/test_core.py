"""Core predicates: dichotomy, twin pairs, weights, covers, densities,
binary codes and distributions; packed words."""

import ast
import itertools
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings

import polybox
from polybox.alphabet import Alphabet, STAR, letter_name
from polybox.core import (
    _Packing,
    are_disjoint,
    are_equivalent,
    binary_code_set,
    code_covered,
    common_density,
    cover_weight,
    density,
    distribution,
    flat_witness,
    is_covered,
    is_cube_tiling_code,
    is_dichotomous,
    is_polybox_code,
    is_simple,
    make_code,
    overlap_weight,
    pack_word,
    twin_pair_direction,
)
from polybox.catalog import example_pair, small_covers, special_pair
from polybox.pbxio import parse_code, parse_word

from strategies import codes, word_pairs

W = parse_word


class TestDichotomy:
    def test_complement_at_first_position(self):
        assert is_dichotomous(W("aa"), W("a'b"))

    def test_no_complemented_position(self):
        assert not is_dichotomous(W("aa"), W("ab"))

    def test_special_pair_words_pairwise(self):
        code, _ = special_pair()
        assert all(
            is_dichotomous(v, w)
            for i, v in enumerate(code)
            for w in code[i + 1 :]
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_dichotomous(W("aa"), W("aaa"))


class TestTwinPairs:
    def test_direction_first(self):
        assert twin_pair_direction(W("bbbbb"), W("b'bbbb")) == 0

    def test_not_a_twin_pair(self):
        assert twin_pair_direction(W("bbbbb"), W("b'b'b'bb")) is None

    def test_direction_second(self):
        assert twin_pair_direction(W("aa"), W("aa'")) == 1


class TestOverlapWeight:
    def test_self_weight_is_full(self):
        assert overlap_weight(W("bbbbb"), W("bbbbb")) == 32

    def test_independent_letters(self):
        assert overlap_weight(W("aaaaa"), W("bbbbb")) == 1

    def test_partial_agreement(self):
        assert overlap_weight(W("aabbb"), W("bbbbb")) == 8

    @given(word_pairs())
    def test_zero_exactly_on_dichotomous(self, data):
        _, v, w = data
        assert (overlap_weight(v, w) == 0) == is_dichotomous(v, w)

    @given(word_pairs())
    def test_symmetric(self, data):
        _, v, w = data
        assert overlap_weight(v, w) == overlap_weight(w, v)


class TestCovering:
    def test_single_letter_pair_covers_the_line(self):
        assert cover_weight(W("b"), make_code([W("a"), W("a'")])) == 2

    def test_reference_cover_weight(self):
        assert cover_weight(W("bbbbb"), small_covers()[1]) == 32

    def test_self_cover(self):
        assert cover_weight(W("bbbbb"), (W("bbbbb"),)) == 32

    def test_is_covered_on_reference_cover(self):
        assert is_covered(W("bbbbb"), small_covers()[1])

    def test_single_word_does_not_cover(self):
        assert not is_covered(W("bbbbb"), (W("aabbb"),))

    def test_special_pair_mutual_word_covering(self):
        first, second = special_pair()
        assert all(is_covered(w, second) for w in first)
        assert all(is_covered(w, first) for w in second)

    @given(codes())
    @settings(max_examples=60)
    def test_partition_bound(self, data):
        alphabet, code = data
        if not code:
            return
        dim = len(code[0])
        for w in code[:3]:
            assert cover_weight(w, code) <= 1 << dim

    def test_code_covered_reflexive(self):
        code, _ = special_pair()
        assert code_covered(code, code)

    def test_code_covered_fails_across(self):
        assert not code_covered((W("bbbbb"),), (W("aabbb"),))


class TestEquivalence:
    def test_special_pair(self):
        first, second = special_pair()
        assert are_equivalent(first, second)
        assert are_disjoint(first, second)

    def test_reflexive(self):
        code, _ = example_pair()
        assert are_equivalent(code, code)
        assert not are_disjoint(code, code)

    def test_example_pair(self):
        first, second = example_pair()
        assert are_equivalent(first, second)


class TestDensity:
    def test_three_word_cover(self):
        assert density(small_covers()[2], (W("bbbbb"),)) == 3

    def test_word_meeting_only_itself(self):
        code = make_code([W("aa"), W("a'a'")])
        assert density(code, code) == 1

    def test_special_pair_common_density(self):
        first, second = special_pair()
        assert common_density(first, second) == 5

    def test_empty_second_code_raises(self):
        with pytest.raises(ValueError):
            density((W("aa"),), ())


class TestBinaryCodes:
    def test_example_code_bits(self):
        first, _ = example_pair()
        assert binary_code_set(first) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_equal_on_the_example_pair(self):
        first, second = example_pair()
        assert binary_code_set(first) == binary_code_set(second)

    @given(codes())
    @settings(max_examples=60)
    def test_injective_on_codes(self, data):
        _, code = data
        assert len(binary_code_set(code)) == len(code)


class TestDistributions:
    def test_simple_power_code(self):
        code = make_code([W("aa"), W("aa'"), W("a'a"), W("a'a'")])
        assert is_simple(code)

    def test_special_pair_distributions(self):
        first, _ = special_pair()
        alphabet = Alphabet(2)
        for i in (0, 1):
            assert distribution(first, i, alphabet) == ((3, 3), (3, 3))
        for i in (2, 3):
            assert distribution(first, i, alphabet) == ((1, 1), (5, 5))

    def test_distribution_total(self):
        first, _ = special_pair()
        # every word is counted once, under its letter's pair
        assert sum(map(sum, distribution(first, 0, Alphabet(2)))) == 12

    def test_example_partner_not_simple(self):
        _, second = example_pair()
        assert not is_simple(second)

    def test_flat_witness(self):
        code = make_code([W("ab"), W("a'b")])
        assert flat_witness(code) == (1, 2)
        assert flat_witness(make_code([W("ab"), W("a'b'")])) is None


class _Letter(int):
    pass


class TestCodeValidation:
    def test_duplicate_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_code([W("aa"), W("aa")])

    def test_non_dichotomous_raises(self):
        with pytest.raises(ValueError, match="dichotomous"):
            make_code([W("aa"), W("ab")])
        # the first failing pair in sorted order is the one reported
        with pytest.raises(ValueError, match="^not dichotomous: aa / ab$"):
            make_code([W("ac"), W("ab"), W("aa")])

    def test_joker_rejected(self):
        with pytest.raises(ValueError, match="proper"):
            make_code([(0, STAR)])

    # (letter, taken, its name): ``in`` takes ints and int subclasses, bools
    # among them, from 0 to 2k - 1, and nothing else; only ints have names
    LETTERS = {
        "bool": (True, True, "a'"),
        "float": (1.0, False, None),
        "int subclass": (_Letter(1), True, "a'"),
        "numpy int": (numpy.int64(1), False, None),
        "2k": (4, False, "c"),
    }

    @pytest.mark.parametrize("case", LETTERS)
    def test_alphabet_check_is_letter_membership(self, case):
        """``make_code`` takes exactly the letters ``in`` takes, and refuses
        the others with its own message, which names a letter without a
        name by its ``repr``."""
        letter, taken, name = self.LETTERS[case]
        alphabet, code = Alphabet(2), [(1, 0), (0, letter)]
        assert (letter in alphabet) == alphabet.spells((0, letter)) == taken
        if name is None:
            with pytest.raises(ValueError, match="^not a letter: "):
                letter_name(letter)
        else:
            assert letter_name(letter) == name
        if taken:
            assert make_code(code, alphabet) == ((0, letter), (1, 0))
            return
        with pytest.raises(ValueError) as refused:
            make_code(code, alphabet)
        assert str(refused.value) == f"letter outside alphabet in a{name or repr(letter)}"

    def test_is_polybox_code(self):
        assert is_polybox_code([W("aa"), W("aa'")])
        assert not is_polybox_code([W("aa"), W("ab")])

    def test_cube_tiling_predicate(self):
        first, _ = example_pair()
        assert is_cube_tiling_code(first)
        assert not is_cube_tiling_code(special_pair()[0])

    def test_simple_code_of_full_size_is_a_tiling(self):
        _, code = parse_code("aa\naa'\na'a\na'a'\n")
        assert is_simple(code) and is_cube_tiling_code(code)


class TestPackedWords:
    """``_Packing`` is the one numbering of words."""

    def test_packing_is_lex_order_and_round_trips(self):
        alphabet = Alphabet(3)
        # every letter, the cover pool's (all but b'), and per position
        for letters in (None, [[0, 1, 2, 4, 5]] * 3, [[2], [5, 0, 4], [1, 3]]):
            packing = _Packing(alphabet, 3, letters)
            words = list(itertools.product(*packing.digits))  # lex order
            packed = [packing.index[v] for v in words]
            assert packed == list(range(packing.top + 1))
            assert [packing.words[n] for n in packed] == words
        assert words[0] == (2, 0, 1)

    def test_position_zero_is_most_significant(self):
        packing = _Packing(Alphabet(2), 2)
        assert packing.places == [4, 1]
        assert packing.index[W("ba")] == pack_word(W("ba"), Alphabet(2)) == 2 * 4 + 0
        assert packing.index[W("ab")] == pack_word(W("ab"), Alphabet(2)) == 2

    def test_code_packs_sorted(self):
        _, second = example_pair()
        packing = _Packing(Alphabet(3), 2)
        assert packing.unpack(packing.pack(reversed(second))) == second

    def test_letters_outside_the_alphabet_are_refused(self):
        for word in ((0, 4), (STAR, 0), (-2, 0)):
            with pytest.raises(ValueError, match="alphabet"):
                pack_word(word, Alphabet(2))
            with pytest.raises(ValueError, match="alphabet"):
                _Packing(Alphabet(2), 2).index[word]

    def test_table_holds_only_the_words_met_and_shares_them(self):
        packing = _Packing(Alphabet(8), 8)  # 16**8 words
        assert packing.top + 1 == 16**8
        n = packing.index[W("bbbbbbbb")]
        assert packing.words[n] is packing.words[n]
        assert len(packing.words) == len(packing.index) == 1
        assert "letters" not in vars(packing)  # its masks are never built

    def test_masks_are_built_on_first_read(self):
        """``letters[i][s]`` holds word ``n`` at bit ``top - n`` exactly when
        it has letter ``s`` at position ``i``, so it is 0 for a letter the
        packing does not hold there."""
        alphabet = Alphabet(2)
        packing = _Packing(alphabet, 3, [[0, 1, 2], [3], [1, 2]])
        assert "letters" not in vars(packing)
        for masks in packing.letters:
            assert len(masks) == alphabet.size
            assert not any(m >> packing.top + 1 for m in masks)
        for n in range(packing.top + 1):
            word = packing.words[n]
            for masks, s in zip(packing.letters, word):
                assert [m >> packing.top - n & 1 for m in masks] == [
                    t == s for t in alphabet.letters()
                ]


class TestWordIndex:
    """``_Packing.index`` memoizes ``pack_word``'s values and refusals: a
    word is numbered on first sight, and a refused word is refused again on
    every sight."""

    def test_refused_word_is_refused_on_every_call(self):
        packing = _Packing(Alphabet(2), 3)
        good, bad = (0, 1, 2), (0, 4, 1)
        message = "letter 4 is outside the alphabet of 2 pairs"
        for code in ([bad], [good, bad], [bad, good]):
            with pytest.raises(ValueError, match=message):
                packing.pack(code)
        assert packing.pack([good]) == 1 << packing.top - pack_word(good, Alphabet(2))
        with pytest.raises(ValueError, match=message):
            packing.pack([good, bad])
        assert dict(packing.index) == {good: pack_word(good, Alphabet(2))}

    def test_letters_the_packing_does_not_hold_are_refused(self):
        # b' is in the alphabet but not in the packing; 4 is in neither,
        # and refused as pack_word refuses it, wherever it stands
        packing = _Packing(Alphabet(2), 2, [[0, 1, 2]] * 2)
        with pytest.raises(KeyError):
            packing.index[(0, 3)]
        for word in ((4, 0), (3, 4)):
            with pytest.raises(ValueError, match="letter 4 is outside the alphabet of 2 pairs"):
                packing.index[word]
        assert not packing.index

    @given(codes())
    @settings(max_examples=100, deadline=None)
    def test_memoized_values_are_pack_word(self, data):
        alphabet, code = data
        packing = _Packing(alphabet, len(code[0]))
        expected = sum(1 << packing.top - pack_word(v, alphabet) for v in code)
        assert packing.pack(code) == packing.pack(code) == expected
        assert dict(packing.index) == {v: pack_word(v, alphabet) for v in code}

    def test_bools_pack_as_their_ints(self):
        for first, second in (((True, 0), (1, 0)), ((1, 0), (True, 0))):
            packing = _Packing(Alphabet(1), 2)
            assert packing.pack([first]) == packing.pack([second]) == 1 << packing.top - 2

    def test_list_words_pack_as_tuples(self):
        packing = _Packing(Alphabet(2), 2)
        words = [[0, 0], [1, 0], [0, 3]]
        assert packing.pack(words) == packing.pack(map(tuple, words))
        assert all(type(v) is tuple for v in packing.index)


# one word numbering: only core builds mixed-radix numbers ----------------

NUMBERING_FREE = ("search", "iso", "moves", "sampling")


def _numbering_faults(source: str, module: str) -> list[str]:
    """Where a module other than ``core`` names ``_DigitSum`` (defines,
    imports or reads it), and where one of ``NUMBERING_FREE`` computes a
    place value: a power whose exponent is itself arithmetic, as in
    ``size ** (dim - 1 - i)``."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if "_DigitSum" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            faults.append(f"{module}: _DigitSum")
        elif (
            module in NUMBERING_FREE
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.BinOp)
        ):
            faults.append(f"{module}: {ast.unparse(node)}")
    return faults


def test_only_core_numbers_words():
    sources = sorted(Path(polybox.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} >= {"core", *NUMBERING_FREE}
    faults = []
    for path in sources:
        if path.stem != "core":
            faults += _numbering_faults(path.read_text(), path.stem)
    assert faults == []


@pytest.mark.parametrize(
    "line",
    [
        "from .core import _DigitSum",
        "from polybox.core import Code, _DigitSum as Sum",
        "table = core._DigitSum([], 0)",
        "class _DigitSum(dict): pass",
        "unit = (width - 1) ** (dim - 1 - p)",
        "places = [size ** (dim - 1 - i) for i in range(dim)]",
    ],
)
def test_numbering_guard_catches(line):
    assert _numbering_faults(line, "iso")
