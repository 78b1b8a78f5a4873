"""Text formats: .pbx codes, flip traces, error reporting."""

import pytest
from hypothesis import given, settings

from polybox.alphabet import Alphabet
from polybox.core import make_code
from polybox.catalog import example_pair, example_trace
from polybox.moves import replay
from polybox.pbxio import (
    ParseError,
    format_code,
    format_trace,
    format_word,
    parse_code,
    parse_trace,
    parse_word,
)

from strategies import codes


class TestWords:
    def test_parse_simple(self):
        assert parse_word("ab'c") == (0, 3, 4)

    def test_round_trip(self):
        for text in ("a", "a'b'c'd", "hh'", "bbbbb"):
            assert format_word(parse_word(text)) == text

    def test_star_needs_permission(self):
        # no parser grants it: the joker is never part of a stored word
        with pytest.raises(ParseError, match="joker not allowed here"):
            parse_word("a*b")

    def test_garbage_rejected(self):
        for bad in ("", "z", "a''", "'a"):
            with pytest.raises(ParseError):
                parse_word(bad)


class TestCodes:
    @given(codes(min_size=1))
    @settings(max_examples=50)
    def test_round_trip(self, data):
        _, code = data
        if not code:
            return
        parsed_alphabet, parsed = parse_code(format_code(code))
        assert parsed == code

    def test_comments_and_blank_lines(self):
        text = "# heading\n\naa\n# middle\naa'\n"
        _, code = parse_code(text)
        assert code == make_code([(0, 0), (0, 1)])

    def test_alphabet_inferred(self):
        alphabet, _ = parse_code("ac\na'c\n")
        assert alphabet == Alphabet(3)

    def test_duplicate_reported_with_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_code("aa\naa'\naa\n")

    def test_dimension_mismatch_reported(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_code("aa\na\n")

    def test_non_code_rejected(self):
        with pytest.raises(ParseError, match="dichotomous"):
            parse_code("aa\nab\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="no words"):
            parse_code("# nothing here\n")


class TestTraces:
    def test_bundled_trace_round_trips(self):
        trace = example_trace()
        assert parse_trace(format_trace(trace)) == trace

    def test_replay_after_round_trip(self):
        first, second = example_pair()
        trace = parse_trace(format_trace(example_trace()))
        assert replay(first, trace) == second

    def test_direction_is_one_based_in_text(self):
        line = format_trace(example_trace()[:1])
        assert line.startswith("2: ")

    def test_bad_direction_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_trace("3: aa aa' -> ac ac'\n")

    def test_mismatched_replacement_rejected(self):
        with pytest.raises(ParseError):
            parse_trace("2: aa aa' -> ac bc'\n")

    def test_words_of_unequal_length_rejected(self):
        for text in "2: aa aa' -> b b'\n", "1: a a' -> ab a'b\n", "1: aa a' -> ba b'a\n":
            with pytest.raises(ParseError, match="line 1: words of a move differ in length"):
                parse_trace(text)
