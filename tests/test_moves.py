"""The flip calculus: glue/cut round trips, flip invariants, closures,
lock tests, extraction and layer simplification."""

import ast
import dataclasses
import itertools
from collections import deque
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybox
from polybox.alphabet import Alphabet, STAR
from polybox.core import (
    _Packing,
    are_equivalent,
    binary_code_set,
    density,
    is_polybox_code,
    is_simple,
    make_code,
    overlap_weight,
    pairs_at,
    twin_pair_direction,
)
from polybox.catalog import (
    example_pair,
    example_trace,
    small_cover_extraction_trace,
    small_covers,
    special_pair,
)
from polybox.moves import (
    DEFAULT_STATE_BUDGET,
    MAX_MERGES,
    STATE_MEMORY_CAP,
    FlipMove,
    SimplifyResult,
    Verdict,
    _lift_move,
    _merge_layer_moves,
    _packed,
    _packing,
    apply_flip,
    closure,
    cut,
    extract_word,
    find_flip_path,
    flip_move,
    glue,
    inverse_flip,
    is_locked_cover,
    is_strongly_equivalent,
    layer,
    neighbors,
    replay,
    simplify_tiling,
    twin_pairs,
)
from polybox.pbxio import parse_word
from polybox.realize import box
from polybox.repro import TILING_CODE_LEVELS
from polybox.sampling import random_code, random_tiling_code
from polybox.search import enumerate_minimal_covers

from strategies import codes

W = parse_word


class TestGlueCut:
    def test_glue_example_pair(self):
        assert glue(W("aa"), W("aa'")) == (0, STAR)

    def test_glue_first_direction(self):
        assert glue(W("bbbbb"), W("b'bbbb")) == (STAR, 2, 2, 2, 2)

    def test_cut_other_pair(self):
        assert cut((0, STAR), 1, 4) == (W("ac"), W("ac'"))

    def test_cut_restores_glued_pair(self):
        assert cut(glue(W("aa"), W("aa'")), 1, 0) == (W("aa"), W("aa'"))

    def test_cut_is_a_twin_pair(self):
        q, r = cut((STAR, 2), 0, 0)
        assert twin_pair_direction(q, r) == 0

    def test_glue_requires_twin_pair(self):
        with pytest.raises(ValueError):
            glue(W("aa"), W("a'a'"))

    def test_cut_requires_joker(self):
        with pytest.raises(ValueError):
            cut(W("aa"), 0, 2)


class TestApplyFlip:
    def test_reference_first_step(self):
        first, _ = example_pair()
        move = flip_move(W("aa"), W("aa'"), 4)
        assert apply_flip(first, move) == make_code(
            [W("ac"), W("ac'"), W("a'b"), W("a'b'")]
        )

    def test_identity_replacement_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            flip_move(W("aa"), W("aa'"), 0)

    def test_third_step_direction(self):
        move = flip_move(W("ac"), W("a'c"), 4)
        assert move.direction == 0
        assert set(move.replacement()) == {W("cc"), W("c'c")}

    def test_pair_must_be_in_the_code(self):
        with pytest.raises(ValueError):
            apply_flip((W("aa"), W("a'b"), W("a'b'")), flip_move(W("aa"), W("aa'"), 4))


class TestFlipInvariants:
    @given(codes(min_size=2))
    @settings(max_examples=80, deadline=None)
    def test_random_flip_preserves_everything(self, data):
        alphabet, code = data
        pairs = twin_pairs(code)
        if not pairs:
            return
        v, w, _ = pairs[0]
        direction = twin_pair_direction(v, w)
        t = next(
            s for s in alphabet.unprimed() if s >> 1 != v[direction] >> 1
        ) if alphabet.pair_count > 1 else None
        if t is None:
            return
        move = flip_move(v, w, t)
        after = apply_flip(code, move)
        assert is_polybox_code(after)
        assert len(after) == len(code)
        assert binary_code_set(after) == binary_code_set(code)
        assert are_equivalent(code, after)
        assert apply_flip(after, inverse_flip(move)) == code


class TestNeighbors:
    def test_twin_free_code_has_none(self):
        first, _ = special_pair()
        assert neighbors(first, Alphabet(2)) == ()

    def test_one_dimensional_pair(self):
        assert neighbors(make_code([W("b"), W("b'")]), Alphabet(2)) == (
            make_code([W("a"), W("a'")]),
        )

    def test_count_per_twin_pair_is_pairs_minus_one(self):
        for pairs in (2, 3, 4):
            code = make_code([W("b"), W("b'")])
            assert len(neighbors(code, Alphabet(pairs))) == pairs - 1

    def test_twin_pairs_refuse_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            twin_pairs((W("a"), W("a'b")))
        with pytest.raises(ValueError, match="jokers"):
            twin_pairs(((0, STAR), (1, STAR)))


SIMPLE_D2 = make_code(itertools.product((0, 1), repeat=2))


class TestSeedsAreChecked:
    """Seeds and goals are checked on entry, and refused with the message
    ``make_code`` gives."""

    def test_unsorted_seed_is_not_a_state_of_its_own(self):
        result = closure(tuple(reversed(SIMPLE_D2)), Alphabet(2))
        assert len(result.states) == 12
        assert result.states == closure(SIMPLE_D2, Alphabet(2)).states

    def test_unsorted_start_already_at_its_goal(self):
        reversed_simple = tuple(reversed(SIMPLE_D2))
        assert find_flip_path(reversed_simple, SIMPLE_D2, Alphabet(2)) == (Verdict.YES, ())
        assert find_flip_path(SIMPLE_D2, reversed_simple, Alphabet(2)) == (Verdict.YES, ())

    def test_unsorted_code_has_the_sorted_neighbors(self):
        assert neighbors(tuple(reversed(SIMPLE_D2)), Alphabet(2)) == neighbors(
            SIMPLE_D2, Alphabet(2)
        )

    def test_letters_outside_the_alphabet_are_refused(self):
        outside = ((4,), (5,))  # c, c' under two pairs
        with pytest.raises(ValueError, match="alphabet"):
            closure(outside, Alphabet(2))
        with pytest.raises(ValueError, match="alphabet"):
            neighbors(outside, Alphabet(2))
        with pytest.raises(ValueError, match="alphabet"):
            find_flip_path(outside, outside, Alphabet(2))
        with pytest.raises(ValueError, match="alphabet"):
            find_flip_path(((0,), (1,)), outside, Alphabet(2))

    def test_non_codes_are_refused(self):
        with pytest.raises(ValueError, match="dichotomous"):
            closure((W("a"), W("b")), Alphabet(2))

    # (word, code, message): each code is refused by every entry point with
    # the message ``make_code`` gives, or an earlier check's where the word
    # is checked against the code first
    REFUSED = {
        "joker": ((0, 0), ((0, STAR), (1, 0)), "proper word required: a*"),
        "outside": ((4,), ((4,),), "letter outside alphabet in c"),
        "duplicate": ((0,), ((0,), (1,), (1,)), "duplicate word a'"),
        "mixed": ((0,), ((1, 0), (0,)), "mixed dimensions in code"),
        "non-dichotomous": ((0, 0), ((0, 2), (2, 0)), "not dichotomous: ab / ba"),
        "above the cap": ((0,) * 9, ((0,) * 9,), "dimension 9 above the cap of 8"),
    }
    ENTRIES = {
        "closure": lambda word, code: closure(code, Alphabet(2)),
        "neighbors": lambda word, code: neighbors(code, Alphabet(2)),
        "path start": lambda word, code: find_flip_path(code, SIMPLE_D2, Alphabet(2)),
        "path goal": lambda word, code: find_flip_path(SIMPLE_D2, code, Alphabet(2)),
        "lock": lambda word, code: is_locked_cover(word, code, Alphabet(2)),
        "extraction": lambda word, code: extract_word(code, word, Alphabet(2)),
    }
    # the lock test and extraction weigh the word against each member first
    EARLIER = {("mixed", "lock"): "dimension mismatch: 2 vs 1",
               ("mixed", "extraction"): "dimension mismatch: 2 vs 1"}

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("case", REFUSED)
    def test_every_refusal_keeps_its_message(self, case, entry):
        word, code, message = self.REFUSED[case]
        with pytest.raises(ValueError) as refused:
            self.ENTRIES[entry](word, code)
        assert str(refused.value) == self.EARLIER.get((case, entry), message)

    def test_a_non_code_is_refused_before_its_word_space(self):
        """Five pairs at d=5 are too many words for a flip search, but a
        non-code is refused for what it is."""
        code = ((0,) * 5, (2,) * 5)
        for search in (
            lambda: closure(code, Alphabet(5)),
            lambda: neighbors(code, Alphabet(5)),
            lambda: find_flip_path(code, code, Alphabet(5)),
        ):
            with pytest.raises(ValueError, match="not dichotomous: aaaaa / bbbbb"):
                search()

    def test_goal_of_another_dimension_is_never_met(self):
        # (a, a') packs to the same ints as (aa, aa') over two pairs
        verdict, trace = find_flip_path(
            make_code([W("aa"), W("aa'")]), make_code([W("a"), W("a'")]), Alphabet(2)
        )
        assert verdict == Verdict.NO and trace is None


class TestClosure:
    def test_twin_free_seed_is_alone(self):
        first, _ = special_pair()
        result = closure(first, Alphabet(2))
        assert result.states == {first} and result.exhausted

    def test_example_closure_contains_partner(self):
        first, second = example_pair()
        result = closure(first, Alphabet(3))
        assert second in result.states and result.exhausted

    def test_one_dimensional_closure(self):
        code = make_code([W("b"), W("b'")])
        result = closure(code, Alphabet(2))
        assert result.states == {code, make_code([W("a"), W("a'")])}

    def test_budget_exhaustion_reported(self):
        first, _ = example_pair()
        result = closure(first, Alphabet(3), state_budget=3)
        assert not result.exhausted and result.frontier_count > 0

    def test_budget_is_exact(self):
        """A budget bounds the states kept, not only the states expanded."""
        simple = make_code(itertools.product((0, 1), repeat=4))
        result = closure(simple, Alphabet(2), state_budget=30000)
        assert len(result.states) == 30000 and not result.exhausted
        assert simple in result.states

    def test_budget_equal_to_the_closure_is_exhausted(self):
        first, _ = example_pair()
        size = len(closure(first, Alphabet(3)).states)
        result = closure(first, Alphabet(3), state_budget=size)
        assert result.exhausted and len(result.states) == size
        assert not closure(first, Alphabet(3), state_budget=size - 1).exhausted

    def test_list_words_are_taken(self):
        """Words given as lists are checked and packed as their tuples."""
        code, alphabet = [[0, 0], [1, 0], [0, 1], [1, 1]], Alphabet(1)
        result = closure(code, alphabet)
        assert result.states == {_simple(2)} and result.exhausted and result.levels == (1,)
        assert neighbors(code, alphabet) == ()
        assert find_flip_path(code, code[::-1], alphabet) == (Verdict.YES, ())
        assert closure(code, Alphabet(2)) == closure(_simple(2), Alphabet(2))

    def test_membership_is_symmetric(self):
        first, second = example_pair()
        alphabet = Alphabet(3)
        assert second in closure(first, alphabet).states
        assert first in closure(second, alphabet).states


class TestPackedClosure:
    """A closure returns its states packed and decodes them when read."""

    def test_states_are_decoded_only_when_read(self, monkeypatch):
        calls = []
        unpack = _Packing.unpack

        def counted(self, state):
            calls.append(state)
            return unpack(self, state)

        monkeypatch.setattr(_Packing, "unpack", counted)
        result = closure(_simple(3), Alphabet(2))
        assert len(result.packed) == 744 and not calls
        states = result.states
        assert len(calls) == len(states) == 744
        assert result.states is states and len(calls) == 744

    def test_sorted_states_are_the_sorted_codes(self):
        for code, alphabet, budget in (
            (example_pair()[0], Alphabet(3), DEFAULT_STATE_BUDGET),
            (_simple(3), Alphabet(3), 5000),
            (_simple(4), Alphabet(2), 3000),
        ):
            result = closure(code, alphabet, state_budget=budget)
            assert result.sorted_states() == tuple(sorted(result.states))

    def test_fields_are_plain_values(self):
        """What a digest of the fields reads is equal on equal closures:
        no field holds a packing, whose repr carries its address."""
        result = closure(_simple(3), Alphabet(2), state_budget=100)
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            if isinstance(value, (frozenset, tuple)):
                assert all(type(state) is int for state in value)
            else:
                assert type(value) in (int, bool, Alphabet), field.name
        assert result == closure(_simple(3), Alphabet(2), state_budget=100)

    def test_replace_takes_decoded_states(self, monkeypatch):
        """``dataclasses.replace`` copies the packed states without decoding
        them, and decoded ``states`` given to it replace them."""
        result = closure(_simple(3), Alphabet(2))
        monkeypatch.setattr(_Packing, "unpack", None)
        copied = dataclasses.replace(result, exhausted=False)
        assert copied.packed is result.packed and not copied.exhausted
        assert copied.levels == result.levels == TILING_CODE_LEVELS[3, 2]
        monkeypatch.undo()
        dropped = min(result.states)
        missing = dataclasses.replace(result, states=result.states - {dropped})
        assert missing.states == result.states - {dropped}
        assert missing.packed == result.packed - {_packing(Alphabet(2), 3).pack(dropped)}
        assert dataclasses.replace(missing, states=result.states) == result


class TestStrongEquivalence:
    def test_example_pair_yes(self):
        first, second = example_pair()
        assert is_strongly_equivalent(first, second, Alphabet(3)) == Verdict.YES

    def test_special_pair_no(self):
        first, second = special_pair()
        assert is_strongly_equivalent(first, second, Alphabet(2)) == Verdict.NO

    def test_reflexive(self):
        first, _ = example_pair()
        assert is_strongly_equivalent(first, first, Alphabet(3)) == Verdict.YES

    def test_requires_equivalence(self):
        with pytest.raises(ValueError):
            is_strongly_equivalent(
                make_code([W("aa")]), make_code([W("bb")]), Alphabet(2)
            )

    def test_budget_exceeded(self):
        first, second = example_pair()
        assert (
            is_strongly_equivalent(first, second, Alphabet(3), state_budget=2)
            == Verdict.EXCEEDED
        )

    def test_budget_equal_to_the_reachable_set_is_enough(self):
        first, _ = example_pair()
        size = len(closure(first, Alphabet(3)).states)
        unreachable = make_code([W("aa")])
        assert find_flip_path(first, unreachable, Alphabet(3), size) == (Verdict.NO, None)
        assert find_flip_path(first, unreachable, Alphabet(3), size - 1) == (
            Verdict.EXCEEDED, None
        )

    @pytest.mark.parametrize("steps", [1, 3, None])
    def test_budget_equal_to_the_goal_s_place_is_enough(self, steps):
        """A goal first kept as the N-th state is found at budget N and
        exceeds budget N - 1; the slow twin counts N as the states it
        tests, the start first.  The goals end seeded walks from the start,
        or are its partner (``steps`` None)."""
        alphabet, (start, goal) = Alphabet(3), example_pair()
        if steps is not None:
            goal = _walked(start, alphabet, Random(steps), steps)
        kept = []
        slow_find_flip_path(start, None, alphabet, accept=lambda s: kept.append(s) or s == goal)
        n = len(kept)
        assert kept[-1] == goal and n > 2
        verdict, trace = find_flip_path(start, goal, alphabet, n)
        assert verdict == Verdict.YES and replay(start, trace) == goal
        assert find_flip_path(start, goal, alphabet, n - 1) == (Verdict.EXCEEDED, None)

    def test_trace_replays(self):
        first, second = example_pair()
        verdict, trace = find_flip_path(first, second, Alphabet(3))
        assert verdict == Verdict.YES
        assert replay(first, trace) == second


class TestLockedCover:
    def test_small_cover_is_not_locked(self):
        assert (
            is_locked_cover(W("bbbbb"), small_covers()[1], Alphabet(3)) == Verdict.NO
        )

    def test_special_pair_locks_every_word(self):
        first, second = special_pair()
        alphabet = Alphabet(2)
        assert all(
            is_locked_cover(p, second, alphabet) == Verdict.YES for p in first
        )
        assert all(
            is_locked_cover(p, first, alphabet) == Verdict.YES for p in second
        )

    def test_member_word_is_never_locked(self):
        first, _ = special_pair()
        assert is_locked_cover(first[0], first, Alphabet(2)) == Verdict.NO

    def test_requires_covering(self):
        with pytest.raises(ValueError):
            is_locked_cover(W("bbbbb"), (W("aabbb"),), Alphabet(2))

    def test_word_outside_the_alphabet_meets_across_its_pair(self):
        # a letter of a pair the alphabet lacks is complementary to no word
        # of the code, so it keeps every word there meeting the word
        assert is_locked_cover((4,), ((0,), (1,)), Alphabet(1)) == Verdict.NO
        square = ((0, 0), (0, 1), (1, 0), (1, 1))  # no flip under one pair
        assert is_locked_cover((0, 4), square, Alphabet(1), threshold=2) == Verdict.YES
        assert is_locked_cover((0, 4), square, Alphabet(1), threshold=3) == Verdict.NO

    def test_thresholds_below_two_are_refused(self):
        # a covered word meets a word of every state: nothing falls below 1
        first, _ = special_pair()
        for threshold in (1, 0, -3):
            with pytest.raises(ValueError, match="below 2"):
                is_locked_cover(first[0], first, Alphabet(2), threshold)


class TestExtraction:
    def test_all_bundled_covers(self):
        alphabet = Alphabet(3)
        v = W("bbbbb")
        for cover in small_covers():
            trace = extract_word(cover, v, alphabet)
            assert v in replay(cover, trace)

    def test_two_word_cover_single_flip(self):
        trace = extract_word(small_covers()[3], W("bbbbb"), Alphabet(3))
        assert len(trace) == 1

    def test_bundled_trace_matches_displayed_states(self):
        state = small_covers()[1]
        expected = [
            make_code([W("abbbb"), W("ab'bbb"), W("a'cbbb"), W("a'c'bbb")]),
            make_code([W("abbbb"), W("ab'bbb"), W("a'bbbb"), W("a'b'bbb")]),
            make_code([W("bbbbb"), W("b'bbbb"), W("ab'bbb"), W("a'b'bbb")]),
            make_code([W("bbbbb"), W("b'bbbb"), W("bb'bbb"), W("b'b'bbb")]),
        ]
        for move, target in zip(small_cover_extraction_trace(), expected):
            state = apply_flip(state, move)
            assert state == target

    def test_density_precondition(self):
        first, second = special_pair()
        with pytest.raises(ValueError, match="four"):
            extract_word(second, first[0], Alphabet(2))

    def test_covering_precondition_comes_first(self):
        five = _simple(3)[:5]  # five words meet bbb, with weight 5 of 8
        with pytest.raises(ValueError, match="covering"):
            extract_word(five, W("bbb"), Alphabet(2))


def cell_tiling_code(alphabet: Alphabet, dim: int, rng: Random) -> tuple:
    """A random cube tiling code as an exact cover of ``realize.box``'s
    cells: branch on the lowest uncovered cell, over the words whose box
    holds it in shuffled order, taking a word when its box misses the
    covered cells.  The ``k ** dim`` holders of a cell take, per position,
    one pair's letter on the cell's side of that pair."""
    k = alphabet.pair_count
    full = (1 << (1 << k) ** dim) - 1
    chosen = []

    def grow(covered: int) -> bool:
        if covered == full:
            return True
        cell = (~covered & covered + 1).bit_length() - 1
        sides = [cell >> k * i & (1 << k) - 1 for i in range(dim)]
        holders = [
            tuple(2 * j | sides[i] >> j & 1 for i, j in enumerate(pairs))
            for pairs in itertools.product(range(k), repeat=dim)
        ]
        rng.shuffle(holders)
        for v in holders:
            cells = box(v, alphabet)
            if not cells & covered:
                chosen.append(v)
                if grow(covered | cells):
                    return True
                chosen.pop()
        return False

    assert grow(0)
    return make_code(chosen)


def _square_tilings():
    words = list(itertools.product(Alphabet(2).letters(), repeat=2))
    return [c for c in itertools.combinations(words, 4) if is_polybox_code(c)]


class TestLayers:
    def test_layer_extraction(self):
        _, second = example_pair()  # {cc, c'c, bc', b'c'}
        assert layer(second, 1, 4) == make_code([W("c"), W("c'")])
        assert layer(second, 1, 5) == make_code([W("b"), W("b'")])

    def test_merge_layers(self):
        code = make_code([W("cc"), W("c'c"), W("bc'"), W("b'c'")])
        merged = replay(code, _merge_layer_moves(code, 0, 4, 2))
        assert merged == make_code([W("bc"), W("b'c"), W("bc'"), W("b'c'")])

    def test_merge_requires_equal_layers(self):
        first, _ = example_pair()  # {aa, aa', a'b, a'b'}
        with pytest.raises(ValueError, match="equal"):
            _merge_layer_moves(first, 0, 0, 4)

    def test_one_dimensional_tiling_is_simple(self):
        code = make_code([W("b"), W("b'")])
        result = simplify_tiling(code, Alphabet(2))
        assert result.verdict == Verdict.YES and result.code == code

    def test_example_partner_simplifies_with_replayable_trace(self):
        _, second = example_pair()
        result = simplify_tiling(second, Alphabet(3))
        assert result.verdict == Verdict.YES
        assert is_simple(result.code)
        assert replay(second, result.trace) == result.code

    def test_every_two_pair_square_tiling_simplifies(self):
        alphabet = Alphabet(2)
        census = _square_tilings()
        assert len(census) == 12
        for code in census:
            result = simplify_tiling(code, alphabet)
            assert result.verdict == Verdict.YES
            assert is_simple(result.code)
            assert replay(code, result.trace) == result.code

    def test_smallest_layer_goes_first(self):
        # {cc, c'c, bc', b'c'}: position 0 carries b and c with two words
        # each, so the tie goes to b, which merges onto c
        _, second = example_pair()
        result = simplify_tiling(second, Alphabet(3))
        assert result.code == make_code([W("cc"), W("c'c"), W("cc'"), W("c'c'")])
        assert len(result.trace) == 1

    def test_d6_two_pair_tilings_simplify(self):
        # taking the largest pair first runs out of states on each of these
        rng = Random(11)
        alphabet = Alphabet(2)
        for _ in range(4):
            code = cell_tiling_code(alphabet, 6, rng)
            result = simplify_tiling(code, alphabet, 3 * 10**5)
            assert result.verdict == Verdict.YES
            assert is_simple(result.code)
            assert replay(code, result.trace) == result.code

    def test_d3_tiling_simplifies(self):
        rng = Random(11)
        alphabet = Alphabet(2)
        for _ in range(5):
            code = random_tiling_code(alphabet, 3, rng)
            result = simplify_tiling(code, alphabet)
            assert result.verdict == Verdict.YES
            assert is_simple(result.code)
            assert replay(code, result.trace) == result.code


def largest_pair_first(code, alphabet, state_budget=DEFAULT_STATE_BUDGET):
    """Slow twin of ``simplify_tiling``: the schedule it replaced.  At the
    position with the most letter pairs (ties to the lowest position), the
    largest pair's unprimed layer is flipped onto its primed one and merged
    onto the next largest pair."""
    state = make_code(code)
    trace = []
    for _ in range(MAX_MERGES):
        if is_simple(state):
            return SimplifyResult(Verdict.YES, state, tuple(trace))
        position = max(range(len(state[0])), key=lambda i: (len(pairs_at(state, i)), -i))
        pairs = sorted(pairs_at(state, position))
        source, target = 2 * pairs[-1], 2 * pairs[-2]
        upper = layer(state, position, source)
        lower = layer(state, position, source ^ 1)
        verdict, path = find_flip_path(upper, lower, alphabet, state_budget)
        if verdict != Verdict.YES:
            return SimplifyResult(Verdict.EXCEEDED, None, tuple(trace))
        for move in path:
            lifted = _lift_move(move, position, source)
            state = apply_flip(state, lifted)
            trace.append(lifted)
        for move in _merge_layer_moves(state, position, source, target):
            state = apply_flip(state, move)
            trace.append(move)
    return SimplifyResult(Verdict.EXCEEDED, None, tuple(trace))


class TestScheduleAgainstSlowTwin:
    def test_both_schedules_simplify_with_replayable_traces(self):
        """The 12 d=2 two-pair tilings and seeded d=3 and d=4 tilings over
        two and three pairs; the schedules take different paths."""
        rng = Random(12)
        cases = [(Alphabet(2), code) for code in _square_tilings()]
        for dim, pairs in ((3, 2), (3, 3), (4, 2), (4, 3)):
            alphabet = Alphabet(pairs)
            cases += [(alphabet, random_tiling_code(alphabet, dim, rng)) for _ in range(3)]
        differ = 0
        for alphabet, code in cases:
            traces = []
            for schedule in (simplify_tiling, largest_pair_first):
                result = schedule(code, alphabet)
                assert result.verdict == Verdict.YES, (schedule.__name__, code)
                assert is_simple(result.code)
                assert replay(code, result.trace) == result.code
                traces.append(result.trace)
            differ += traces[0] != traces[1]
        assert len(cases) == 24 and differ


class TestFixedComponent:
    def test_flip_path_avoiding_a_simple_component(self):
        # a path from {aa, aa', a'c, a'c'} to the simple tiling containing
        # {aa, aa'} that never touches those two words
        alphabet = Alphabet(3)
        start = make_code([W("aa"), W("aa'"), W("a'c"), W("a'c'")])
        goal = make_code([W("aa"), W("aa'"), W("a'a"), W("a'a'")])
        fixed = {W("aa"), W("aa'")}
        verdict, trace = find_flip_path(start, goal, alphabet)
        assert verdict == Verdict.YES
        assert all(not (set(move.pair) & fixed) for move in trace)


class TestNonPositiveBudgets:
    """Every flip search refuses a budget of zero or less, also when it
    would have answered at the start state without keeping a state."""

    @pytest.fixture(params=[0, -5])
    def budget(self, request):
        return request.param

    def test_closure(self, budget):
        first, _ = example_pair()
        with pytest.raises(ValueError, match="budget must be positive"):
            closure(first, Alphabet(3), budget)

    def test_find_flip_path(self, budget):
        first, second = example_pair()
        for goal in (second, first):
            with pytest.raises(ValueError, match="budget must be positive"):
                find_flip_path(first, goal, Alphabet(3), budget)

    def test_strong_equivalence(self, budget):
        first, second = example_pair()
        with pytest.raises(ValueError, match="budget must be positive"):
            is_strongly_equivalent(first, second, Alphabet(3), budget)

    def test_lock_tests(self, budget):
        first, second = special_pair()
        with pytest.raises(ValueError, match="budget must be positive"):
            is_locked_cover(first[0], first, Alphabet(2), state_budget=budget)
        with pytest.raises(ValueError, match="budget must be positive"):
            is_locked_cover(first[0], second, Alphabet(2), state_budget=budget)

    def test_extract_word(self, budget):
        for cover in small_covers()[3], make_code([W("bbbbb")]):
            with pytest.raises(ValueError, match="budget must be positive"):
                extract_word(cover, W("bbbbb"), Alphabet(3), budget)

    def test_simplify_tiling(self, budget):
        _, second = example_pair()  # its layer pair needs a flip path
        simple = make_code([W("b"), W("b'")])
        for code in second, simple:
            with pytest.raises(ValueError, match="budget must be positive"):
                simplify_tiling(code, Alphabet(3), budget)


# slow twins: the flip engine over word tuples with a pairwise twin scan,
# kept verbatim as the reference the packed engine must match -------------

def slow_twin_pairs(code):
    out = []
    for i, v in enumerate(code):
        for w in code[i + 1 :]:
            direction = twin_pair_direction(v, w)
            if direction is not None:
                out.append((v, w, direction))
    return out


def slow_neighbor_moves(code, alphabet):
    for v, w, direction in slow_twin_pairs(code):
        rest = [x for x in code if x not in (v, w)]
        for t in alphabet.unprimed():
            if t >> 1 == v[direction] >> 1:
                continue
            move = FlipMove(pair=(v, w), direction=direction, letters=(t, t ^ 1))
            successor = tuple(sorted(rest + list(move.replacement())))
            yield move, successor


def slow_neighbors(code, alphabet):
    seen = {successor for _, successor in slow_neighbor_moves(code, alphabet)}
    seen.discard(code)
    return tuple(sorted(seen))


def slow_closure(code, alphabet, state_budget=DEFAULT_STATE_BUDGET, levels=None):
    """(states, exhausted, frontier count); ``levels``, a list if given,
    gets the number of states kept at each flip distance."""
    visited = {code}
    depth = {code: 0}
    levels = [] if levels is None else levels
    levels.append(1)
    queue = deque([code])
    while queue:
        current = queue.popleft()
        for successor in slow_neighbors(current, alphabet):
            if successor in visited:
                continue
            if len(visited) >= state_budget:
                return visited, False, len(queue) + 1
            visited.add(successor)
            queue.append(successor)
            d = depth[successor] = depth[current] + 1
            if d == len(levels):
                levels.append(0)
            levels[d] += 1
    return visited, True, 0


def slow_find_flip_path(start, goal, alphabet, state_budget=DEFAULT_STATE_BUDGET, accept=None):
    if accept is None:
        accept = lambda state: state == goal
    if accept(start):
        return Verdict.YES, ()
    parents = {start: (start, None)}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for move, successor in slow_neighbor_moves(current, alphabet):
            if successor in parents:
                continue
            if len(parents) >= state_budget:
                return Verdict.EXCEEDED, None
            parents[successor] = (current, move)
            if accept(successor):
                trace = []
                state = successor
                while state != start:
                    state, step = parents[state]
                    trace.append(step)
                return Verdict.YES, tuple(reversed(trace))
            queue.append(successor)
    return Verdict.NO, None


def slow_is_locked_cover_code(inner, code, alphabet, threshold=5, state_budget=DEFAULT_STATE_BUDGET):
    def meets_below(state):
        return any(sum(1 for v in state if overlap_weight(v, p) > 0) < threshold for p in inner)

    verdict, _ = slow_find_flip_path(code, None, alphabet, state_budget, accept=meets_below)
    return {Verdict.YES: Verdict.NO, Verdict.NO: Verdict.YES}.get(verdict, verdict)


def _seeded_codes():
    """Tiling codes and greedy codes cut short (often without twin pairs),
    d=1-4 over 1-3 pairs, and the twin-pair-free special pair."""
    rng = Random(20261018)
    out = [(Alphabet(2), code) for code in special_pair()]
    for dim in (1, 2, 3, 4):
        for pairs in (1, 2, 3):
            alphabet = Alphabet(pairs)
            for _ in range(3):
                out.append((alphabet, random_tiling_code(alphabet, dim, rng)))
                size = rng.randrange(1, (1 << dim) + 1)
                out.append((alphabet, random_code(alphabet, dim, rng, max_size=size)))
    return out


def _simple(dim):
    return make_code(itertools.product((0, 1), repeat=dim))


def _walked(code, alphabet, rng, steps):
    """The end of a seeded walk of ``steps`` flips, taken by the slow twin."""
    for _ in range(steps):
        successors = [successor for _, successor in slow_neighbor_moves(code, alphabet)]
        if not successors:
            break
        code = rng.choice(successors)
    return code


def _deep_codes():
    """Tiling codes at d=5 and d=6 over two pairs (seeded flip walks from
    the simple code; ``random_tiling_code`` does not return at d=6) and at
    d=4 over three pairs, and a greedy code cut short beside each."""
    rng = Random(20261019)
    out = []
    for dim, pairs in ((5, 2), (6, 2), (4, 3)):
        alphabet = Alphabet(pairs)
        for _ in range(2):
            if dim == 4:
                tiling = random_tiling_code(alphabet, dim, rng)
            else:
                tiling = _walked(_simple(dim), alphabet, rng, 12)
            out.append((alphabet, tiling))
            size = rng.randrange(2, 1 << dim)
            out.append((alphabet, random_code(alphabet, dim, rng, max_size=size)))
    return out


class TestAgainstSlowTwins:
    def test_twin_pairs_and_neighbors(self):
        seeded = _seeded_codes()
        for alphabet, code in seeded:
            assert twin_pairs(code) == slow_twin_pairs(code)
            assert neighbors(code, alphabet) == slow_neighbors(code, alphabet)
        assert any(not slow_twin_pairs(code) for _, code in seeded)
        assert any(len(slow_twin_pairs(code)) > 8 for _, code in seeded)

    @pytest.mark.parametrize("dim, pairs, count", [(2, 2, 12), (3, 2, 744), (3, 3, 17793)])
    def test_closures(self, dim, pairs, count):
        result, levels = closure(_simple(dim), Alphabet(pairs)), []
        states, exhausted, _ = slow_closure(_simple(dim), Alphabet(pairs), levels=levels)
        assert result.exhausted and exhausted
        assert result.states == states and len(states) == count
        assert result.levels == tuple(levels) == TILING_CODE_LEVELS[dim, pairs]

    def test_budgeted_closure(self):
        result, levels = closure(_simple(4), Alphabet(2), state_budget=30000), []
        states, exhausted, frontier = slow_closure(_simple(4), Alphabet(2), 30000, levels)
        assert (result.states, result.exhausted, result.frontier_count) == (
            states, exhausted, frontier
        )
        assert result.levels == tuple(levels) and sum(levels) == 30000

    def test_small_budgets(self):
        first, _ = example_pair()
        for budget in range(1, 40, 3):
            result = closure(first, Alphabet(3), state_budget=budget)
            assert (result.states, result.exhausted, result.frontier_count) == slow_closure(
                first, Alphabet(3), budget
            )

    def test_extraction_traces_over_all_small_covers(self):
        alphabet, word = Alphabet(3), (2,) * 5
        covers = [c for n in (2, 3, 4) for c in enumerate_minimal_covers(word, n, alphabet)]
        assert len(covers) == 2690
        for cover in covers:
            expected = slow_find_flip_path(
                cover, None, alphabet, accept=lambda state: word in state
            )
            assert (Verdict.YES, extract_word(cover, word, alphabet)) == expected

    def test_goal_searches(self):
        rng = Random(5)
        cases = [(Alphabet(3), *example_pair()), (Alphabet(2), *special_pair())]
        for dim, pairs in ((2, 2), (2, 3), (3, 2), (3, 3)):
            alphabet = Alphabet(pairs)
            for _ in range(4):
                cases.append(
                    (alphabet, random_tiling_code(alphabet, dim, rng), random_tiling_code(alphabet, dim, rng))
                )
        verdicts = set()
        for alphabet, start, goal in cases:
            for budget in (3000, 50):
                found = find_flip_path(start, goal, alphabet, budget)
                assert found == slow_find_flip_path(start, goal, alphabet, budget)
                verdicts.add(found[0])
        assert verdicts == set(Verdict)

    def test_neighbors_beyond_d4(self):
        deep = _deep_codes()
        for alphabet, code in deep:
            assert neighbors(code, alphabet) == slow_neighbors(code, alphabet)
        assert any(not slow_twin_pairs(code) for _, code in deep)
        assert any(len(slow_twin_pairs(code)) > 20 for _, code in deep)

    def test_goal_searches_beyond_d4(self):
        """Goals one, two and six flips from the start, and the start of
        the next code of the same space."""
        rng, cases = Random(6), []
        deep = _deep_codes()
        for (alphabet, start), (_, other) in zip(deep, deep[2:]):
            if len(start[0]) == len(other[0]):
                cases.append((alphabet, start, other))
            for steps in (1, 2, 6):
                cases.append((alphabet, start, _walked(start, alphabet, rng, steps)))
        verdicts = set()
        for alphabet, start, goal in cases:
            for budget in (3000, 50):
                found = find_flip_path(start, goal, alphabet, budget)
                assert found == slow_find_flip_path(start, goal, alphabet, budget)
                verdicts.add(found[0])
        assert verdicts == set(Verdict)

    def test_lock_verdicts(self):
        first, second = special_pair()
        cases = [(Alphabet(2), p, second) for p in first]
        cases += [(Alphabet(3), W("bbbbb"), cover) for cover in small_covers()]
        rng = Random(3)
        for _ in range(6):
            alphabet = Alphabet(rng.choice((2, 3)))
            code = random_tiling_code(alphabet, 3, rng)
            cases.append((alphabet, code[0], code))
        verdicts = set()
        for alphabet, word, code in cases:
            for threshold, budget in ((5, DEFAULT_STATE_BUDGET), (2, DEFAULT_STATE_BUDGET), (2, 1)):
                verdict = is_locked_cover(word, code, alphabet, threshold, budget)
                assert verdict == slow_is_locked_cover_code((word,), code, alphabet, threshold, budget)
                verdicts.add(verdict)
        assert verdicts == set(Verdict)


# the search states: one int per code, bit ``top - w`` for packed word w --

@st.composite
def equal_size_word_sets(draw):
    alphabet = Alphabet(draw(st.integers(min_value=1, max_value=3)))
    dim = draw(st.integers(min_value=1, max_value=3))
    space = list(itertools.product(alphabet.letters(), repeat=dim))
    size = draw(st.integers(min_value=1, max_value=min(6, len(space))))
    sets = st.lists(st.sampled_from(space), min_size=size, max_size=size, unique=True)
    return alphabet, dim, tuple(sorted(draw(sets))), tuple(sorted(draw(sets)))


def _simple_over(pair, dim):
    return make_code(itertools.product((2 * pair, 2 * pair + 1), repeat=dim))


class TestPackedStates:
    @given(equal_size_word_sets())
    @settings(max_examples=200, deadline=None)
    def test_descending_ints_are_ascending_codes(self, data):
        alphabet, dim, first, second = data
        packing = _packing(alphabet, dim)
        a, b = packing.pack(first), packing.pack(second)
        assert (a > b) == (first < second) and (a == b) == (first == second)
        assert packing.unpack(a) == first

    def test_budget_cuts_against_slow_closure(self):
        """The order of visits shows only where a budget cuts a closure."""
        rng, cut = Random(15), 0
        for alphabet, code in _seeded_codes():
            budget, levels = rng.randrange(1, 200), []
            result = closure(code, alphabet, state_budget=budget)
            assert (result.states, result.exhausted, result.frontier_count) == slow_closure(
                code, alphabet, budget, levels
            )
            assert result.levels == tuple(levels)
            cut += not result.exhausted
        assert cut >= 10

    @pytest.mark.parametrize("pair", [0, 7])
    def test_largest_word_space_admitted(self, pair):
        """Four positions over eight pairs: 2^16 words, the cap itself."""
        alphabet, code = Alphabet(8), _simple_over(pair, 4)
        assert neighbors(code, alphabet) == slow_neighbors(code, alphabet)
        result = closure(code, alphabet, state_budget=60)
        assert (result.states, result.exhausted, result.frontier_count) == slow_closure(
            code, alphabet, 60
        )

    def test_larger_word_space_refused(self):
        alphabet, code = Alphabet(5), _simple_over(4, 5)
        assert len(slow_twin_pairs(code)) == 80
        assert twin_pairs(code) == slow_twin_pairs(code)
        for search in (
            lambda: closure(code, alphabet),
            lambda: neighbors(code, alphabet),
            lambda: find_flip_path(code, code, alphabet),
            lambda: is_locked_cover(code[0], code, alphabet),
        ):
            with pytest.raises(ValueError, match=r"too large: 100,000 words \(cap 65,536\)"):
                search()

    def test_memory_hungry_budget_refused(self):
        """d=6 over three pairs: 46,656-bit states of 5,832 bytes, so the
        default budget could fill 5.8 GB.  Every search refuses it before
        it starts; a budget that fits runs."""
        alphabet, code = Alphabet(3), _simple_over(2, 6)
        for search in (
            lambda: closure(code, alphabet),
            lambda: find_flip_path(code, code, alphabet),
            lambda: is_locked_cover(code[0], code, alphabet),
            lambda: extract_word(code, code[0], alphabet),
        ):
            with pytest.raises(
                ValueError,
                match=r"too large: 1,000,000 states of 5,832 bytes need 5,832,000,000 bytes "
                r"\(cap 2,147,483,648\)",
            ):
                search()
        assert closure(code, alphabet, state_budget=5).frontier_count > 0
        packing = _packing(alphabet, 6)
        packing.check_memory(STATE_MEMORY_CAP // 5832)
        with pytest.raises(ValueError, match="too large"):
            packing.check_memory(STATE_MEMORY_CAP // 5832 + 1)

    def test_extraction_at_d5_over_three_pairs_fits(self):
        """7,776-bit states: the default budget could fill 0.97 GB."""
        _packing(Alphabet(3), 5).check_memory(DEFAULT_STATE_BUDGET)


# the flip kernel: one copy of the twin-pair loop, in ``_FlipPacking`` ----

class TestKernel:
    """``successors(state, seen)`` against filtering ``successors(state)``,
    with every other successor seen and the state itself, on the starts of
    the 2,690 extractions, the 17,793 d=3 three-pair codes and the seeded
    deeper codes."""

    @staticmethod
    def check(packing, state):
        every = packing.successors(state)
        seen = {state, *every[::2]}
        assert packing.successors(state, seen) == [s for s in every if s not in seen]

    def test_extraction_starts(self):
        alphabet, word = Alphabet(3), (2,) * 5
        for cover in (c for n in (2, 3, 4) for c in enumerate_minimal_covers(word, n, alphabet)):
            self.check(*_packed(cover, alphabet))

    def test_d3_three_pair_codes(self):
        result = closure(_simple(3), Alphabet(3))
        packing = _packing(Alphabet(3), 3)
        assert len(result.packed) == 17793
        for state in result.packed:
            self.check(packing, state)

    def test_deep_codes(self):
        for alphabet, code in _deep_codes():
            self.check(*_packed(code, alphabet))


def _kernel_copies(source: str, module: str) -> list[str]:
    """Where a twin-pair shift, ``x & x << y`` or ``x & x >> y`` with the
    operands either way round, sits outside the methods of
    ``moves._FlipPacking``."""
    faults = []

    def walk(node: ast.AST, inside: bool) -> None:
        if isinstance(node, ast.ClassDef) and (module, node.name) == ("moves", "_FlipPacking"):
            inside = True
        if not inside and isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            for x, shifted in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(shifted, ast.BinOp)
                    and isinstance(shifted.op, (ast.LShift, ast.RShift))
                    and ast.dump(shifted.left) == ast.dump(x)
                ):
                    faults.append(f"{module}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), False)
    return faults


def test_only_the_flip_packing_pairs_twins():
    sources = sorted(Path(polybox.__file__).parent.glob("*.py"))
    assert "moves" in {path.stem for path in sources}
    faults = []
    for path in sources:
        faults += _kernel_copies(path.read_text(), path.stem)
    assert faults == []
    # the kernel's own loops are seen once the class is not exempt
    assert _kernel_copies(Path(polybox.moves.__file__).read_text(), "other")


@pytest.mark.parametrize(
    "line",
    [
        "paired = state & state << place",
        "paired = (state << place) & state",
        "twins = current & current >> p",
        "def closure(code):\n    return [s & s << p for s in code]",
        "class _Packing:\n    def f(self, x, p):\n        return x & x << p",
    ],
)
def test_kernel_guard_catches(line):
    assert _kernel_copies(line, "moves")
