"""The glue-and-cut (flip) calculus.

A twin pair may be glued into one joker word and cut back along any other
letter pair; one glue+cut is a flip.  Flips never break a code: the glued
word is dichotomous with every other member at some position away from the
glue direction, and every cut inherits that.

Flip reachability is explored by breadth-first search over whole codes
with an explicit state budget; exhaustion of the budget is reported, never
guessed away.  The searches run on packed codes (``core.pack_code``): a
twin pair is found by looking up the word plus one position's place value,
and a flip is two ints.  Codes are checked once on entry, and words and
moves are built only for what is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

from .alphabet import STAR, Alphabet, inferred_alphabet
from .core import (
    Code,
    Word,
    format_plain,
    is_covered,
    is_cube_tiling_code,
    is_simple,
    make_code,
    overlap_weight,
    pack_code,
    pack_word,
    pairs_at,
    place_values,
    twin_pair_direction,
    word_table,
)

DEFAULT_STATE_BUDGET = 10**6


def _check_budget(state_budget: int) -> None:
    if state_budget <= 0:
        raise ValueError("state budget must be positive")


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class FlipMove:
    """Replace the twin pair by its cut along ``letters`` in ``direction``
    (0-based here; trace files print directions 1-based)."""

    pair: tuple[Word, Word]
    direction: int
    letters: tuple[int, int]

    def replacement(self) -> tuple[Word, Word]:
        return cut(glue(*self.pair), self.direction, self.letters[0])


def flip_move(v: Word, w: Word, t: int) -> FlipMove:
    direction = twin_pair_direction(v, w)
    if direction is None:
        raise ValueError(f"not a twin pair: {format_plain(v)} / {format_plain(w)}")
    if t == STAR:
        raise ValueError("cannot cut along the joker")
    letters = (t & ~1, t | 1)
    if v[direction] >> 1 == t >> 1:
        raise ValueError("replacement pair must differ from the original")
    pair = (v, w) if v < w else (w, v)
    return FlipMove(pair=pair, direction=direction, letters=letters)


def inverse_flip(move: FlipMove) -> FlipMove:
    r, q = move.replacement()
    return flip_move(r, q, move.pair[0][move.direction])


def glue(v: Word, w: Word) -> Word:
    """One word with the joker at the twin direction."""
    direction = twin_pair_direction(v, w)
    if direction is None:
        raise ValueError(f"not a twin pair: {format_plain(v)} / {format_plain(w)}")
    return v[:direction] + (STAR,) + v[direction + 1 :]


def cut(u: Word, direction: int, t: int) -> tuple[Word, Word]:
    """Split a joker word back into a twin pair along the letter ``t``."""
    if u[direction] != STAR:
        raise ValueError("cut requires the joker at the cut position")
    if t == STAR:
        raise ValueError("cannot cut along the joker")
    q = u[:direction] + (t,) + u[direction + 1 :]
    r = u[:direction] + (t ^ 1,) + u[direction + 1 :]
    return (q, r) if q < r else (r, q)


def apply_flip(code: Code, move: FlipMove) -> Code:
    v, w = move.pair
    if v not in code or w not in code:
        raise ValueError("move's twin pair is not in the code")
    rest = [x for x in code if x not in (v, w)]
    return tuple(sorted(rest + list(move.replacement())))


PackedCode = tuple[int, ...]


def _dim(code: Code) -> int:
    return len(code[0]) if code else 0


class _Packing:
    """Codes of one dimension over one alphabet as sorted tuples of packed
    words (``core.pack_code``), with the flips worked out on the ints."""

    def __init__(self, alphabet: Alphabet, dim: int) -> None:
        self.alphabet = alphabet
        self.radix = alphabet.size
        # (position, place value) from the last position back: the order
        # in which the twins of one word rise
        self.places = list(enumerate(place_values(alphabet, dim)))[::-1]
        self.words = word_table(alphabet, dim)

    @classmethod
    def of(cls, code: Code, alphabet: Alphabet) -> "_Packing":
        return cls(alphabet, _dim(code))

    def pack(self, code: Code) -> PackedCode:
        return pack_code(code, self.alphabet)

    def unpack(self, state: PackedCode) -> Code:
        return tuple(map(self.words.__getitem__, state))

    def twins(self, state: PackedCode) -> list[tuple[int, int, int, int]]:
        """``(a, b, direction, place)`` per twin pair ``state[a] <
        state[b]``, in the order of ``a`` and then ``b``.  The twin of a
        word with an unprimed letter at a position is the word plus that
        position's place."""
        index = {v: a for a, v in enumerate(state)}
        return [
            (a, index[v + place], i, place)
            for a, v in enumerate(state)
            for i, place in self.places
            if not v // place & 1 and v + place in index
        ]

    def flips(self, state: PackedCode) -> Iterator[tuple[int, int, int, int, PackedCode]]:
        """``(v, w, direction, t, successor)`` for every single flip: cut
        along ``t``/``t'``, in twin-pair order, then letter order."""
        radix, unprimed = self.radix, self.alphabet.unprimed()
        for a, b, i, place in self.twins(state):
            v = state[a]
            rest = state[:a] + state[a + 1 : b] + state[b + 1 :]
            s = v // place % radix
            base = v - s * place
            for t in unprimed:
                if t != s:
                    q = base + t * place
                    yield v, v + place, i, t, tuple(sorted(rest + (q, q + place)))

    def successors(self, state: PackedCode) -> set[PackedCode]:
        return {step[-1] for step in self.flips(state)}

    def search(
        self,
        start: PackedCode,
        found: Callable[[PackedCode], bool],
        state_budget: int,
    ) -> tuple[Verdict, Optional[tuple[FlipMove, ...]]]:
        """Breadth-first from ``start`` to the first state ``found`` likes."""
        _check_budget(state_budget)
        if found(start):
            return Verdict.YES, ()
        parents: dict[PackedCode, tuple] = {start: ()}
        queue = [start]
        for current in queue:
            for v, w, i, t, successor in self.flips(current):
                if successor in parents:
                    continue
                if len(parents) >= state_budget:
                    return Verdict.EXCEEDED, None
                parents[successor] = (current, v, w, i, t)
                if found(successor):
                    return Verdict.YES, self._trace(parents, successor)
                queue.append(successor)
        return Verdict.NO, None

    def _trace(self, parents: dict, state: PackedCode) -> tuple[FlipMove, ...]:
        words = self.words
        trace = []
        while parents[state]:
            state, v, w, i, t = parents[state]
            trace.append(FlipMove(pair=(words[v], words[w]), direction=i, letters=(t, t ^ 1)))
        return tuple(reversed(trace))


def twin_pairs(code: Code) -> list[tuple[Word, Word, int]]:
    """``(v, w, direction)`` per twin pair, ``v < w``, in sorted order of
    ``v`` and then ``w``."""
    if any(len(v) != _dim(code) for v in code):
        raise ValueError("mixed dimensions in code")
    packing = _Packing.of(code, inferred_alphabet(code))
    state = packing.pack(code)
    words = packing.words
    return [(words[state[a]], words[state[b]], i) for a, b, i, _ in packing.twins(state)]


def neighbors(code: Code, alphabet: Alphabet) -> tuple[Code, ...]:
    """The codes one flip away, sorted."""
    code = make_code(code, alphabet)
    packing = _Packing.of(code, alphabet)
    return tuple(map(packing.unpack, sorted(packing.successors(packing.pack(code)))))


@dataclass(frozen=True)
class ClosureResult:
    """Everything reachable from the seed by flips, within the budget."""

    states: frozenset[Code]
    exhausted: bool
    frontier_count: int
    state_budget: int

    def sorted_states(self) -> tuple[Code, ...]:
        return tuple(sorted(self.states))


def closure(
    code: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ClosureResult:
    """Breadth-first fixpoint of the flip relation; the seed is a state.
    Each state's successors are visited in sorted order.  At most
    ``state_budget`` states are kept; meeting one more ends the search
    unexhausted, with the states not fully expanded as frontier."""
    _check_budget(state_budget)
    code = make_code(code, alphabet)
    packing = _Packing.of(code, alphabet)
    start = packing.pack(code)
    visited = {start}
    queue = [start]

    def result(frontier: int) -> ClosureResult:
        # every state kept is queued once; unpacking while popping lets the
        # packed states go as their codes are built
        visited.clear()
        states = frozenset(packing.unpack(queue.pop()) for _ in range(len(queue)))
        return ClosureResult(
            states=states,
            exhausted=not frontier,
            frontier_count=frontier,
            state_budget=state_budget,
        )

    for index, current in enumerate(queue):
        for successor in sorted(packing.successors(current) - visited):
            if len(visited) >= state_budget:
                return result(len(queue) - index)
            visited.add(successor)
            queue.append(successor)
    return result(0)


def find_flip_path(
    start: Code,
    goal: Code | None,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
    accept: Callable[[Code], bool] | None = None,
) -> tuple[Verdict, Optional[tuple[FlipMove, ...]]]:
    """Shortest flip sequence from ``start`` to ``goal`` (or to any state
    the ``accept`` predicate likes).  The returned trace replays exactly.
    At most ``state_budget`` states are kept; meeting one more exceeds it."""
    if accept is None and goal is None:
        raise ValueError("need a goal code or an accept predicate")
    start = make_code(start, alphabet)
    packing = _Packing.of(start, alphabet)
    if accept is not None:
        found = lambda state: accept(packing.unpack(state))
    else:
        goal = make_code(goal, alphabet)
        # a goal of another dimension is never met, and its packed words
        # could collide with the start's
        target = packing.pack(goal) if _dim(goal) == _dim(start) else None
        found = lambda state: state == target
    return packing.search(packing.pack(start), found, state_budget)


def replay(code: Code, trace: Sequence[FlipMove]) -> Code:
    """Apply a recorded trace, validating every step."""
    state = make_code(code)
    for move in trace:
        state = apply_flip(state, move)
    return state


def is_strongly_equivalent(
    first: Code,
    second: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Verdict:
    """Whether one code can be turned into the other by flips alone."""
    from .core import are_equivalent

    if not are_equivalent(first, second):
        raise ValueError("strong equivalence is only asked of equivalent codes")
    verdict, _ = find_flip_path(first, second, alphabet, state_budget)
    return verdict


def is_locked_cover(
    word: Word,
    code: Code,
    alphabet: Alphabet,
    threshold: int = 5,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Verdict:
    """YES when no flip sequence on the covering code can ever bring the
    covered word close: every reachable state keeps at least ``threshold``
    words meeting it.  A state below the threshold admits extraction of the
    word, so the answer is NO there.

    A covered word meets at least one word of every state, so thresholds
    below 2 are refused: no state could fall below them, and the answer
    would be YES after walking the whole closure."""
    if threshold < 2:
        raise ValueError(
            f"lock threshold {threshold} is below 2: every state keeps a word "
            "meeting the covered word"
        )
    if not is_covered(word, code):
        raise ValueError("lock test requires a covering code")

    def meets_below(state: Code) -> bool:
        return sum(1 for v in state if overlap_weight(v, word) > 0) < threshold

    verdict, _ = find_flip_path(
        code, None, alphabet, state_budget, accept=meets_below
    )
    if verdict == Verdict.YES:
        return Verdict.NO
    if verdict == Verdict.NO:
        return Verdict.YES
    return Verdict.EXCEEDED


def extract_word(
    code: Code,
    word: Word,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[FlipMove, ...]:
    """A flip sequence after which the covering code contains the word.

    Guaranteed to exist whenever at most four words meet the covered word;
    a search failure under that precondition is a defect, not a result."""
    if not is_covered(word, code):
        raise ValueError("extraction requires a covering code")
    if sum(1 for v in code if overlap_weight(v, word) > 0) > 4:
        raise ValueError("extraction requires at most four meeting words")
    code = make_code(code, alphabet)
    packing = _Packing.of(code, alphabet)
    target = pack_word(word, alphabet)
    verdict, trace = packing.search(
        packing.pack(code), lambda state: target in state, state_budget
    )
    if verdict != Verdict.YES:
        raise RuntimeError("extraction search failed; this is a defect")
    assert trace is not None
    return trace


# layers of cube tiling codes ---------------------------------------------

def layer(code: Code, position: int, letter: int) -> Code:
    """The words carrying ``letter`` at ``position``, with that position
    dropped; always a code one dimension down."""
    return tuple(
        sorted(v[:position] + v[position + 1 :] for v in code if v[position] == letter)
    )


def _merge_layer_moves(
    code: Code, position: int, letter: int, target: int
) -> list[FlipMove]:
    if target >> 1 == letter >> 1:
        raise ValueError("merge target must be a different letter pair")
    if layer(code, position, letter) != layer(code, position, letter ^ 1):
        raise ValueError("merge requires equal opposite layers")
    moves = []
    for v in code:
        if v[position] == letter:
            w = v[:position] + (letter ^ 1,) + v[position + 1 :]
            moves.append(flip_move(v, w, target))
    return moves


def _lift_move(move: FlipMove, position: int, letter: int) -> FlipMove:
    def lift(v: Word) -> Word:
        return v[:position] + (letter,) + v[position:]

    direction = move.direction + (1 if move.direction >= position else 0)
    return FlipMove(
        pair=(lift(move.pair[0]), lift(move.pair[1])),
        direction=direction,
        letters=move.letters,
    )


@dataclass(frozen=True)
class SimplifyResult:
    verdict: Verdict
    code: Optional[Code]
    trace: tuple[FlipMove, ...]


def simplify_tiling(
    code: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
    max_merges: int = 64,
) -> SimplifyResult:
    """Flip a cube tiling code into a simple one, layer by layer.

    At the position with the most letter pairs, the largest pair's layer is
    flipped (one dimension down) until it equals its opposite layer, the
    resulting twin pairs are merged onto the next pair, and the process
    repeats.  The full flip trace is returned and replays exactly."""
    _check_budget(state_budget)
    if not is_cube_tiling_code(code):
        raise ValueError("layer simplification applies to cube tiling codes")
    state = make_code(code)
    trace: list[FlipMove] = []
    for _ in range(max_merges):
        if is_simple(state):
            return SimplifyResult(Verdict.YES, state, tuple(trace))
        dim = len(state[0])
        position = max(range(dim), key=lambda i: (len(pairs_at(state, i)), -i))
        pairs = sorted(pairs_at(state, position))
        source, target = 2 * pairs[-1], 2 * pairs[-2]
        upper = layer(state, position, source)
        lower = layer(state, position, source ^ 1)
        verdict, path = find_flip_path(upper, lower, alphabet, state_budget)
        if verdict != Verdict.YES:
            return SimplifyResult(Verdict.EXCEEDED, None, tuple(trace))
        assert path is not None
        for move in path:
            lifted = _lift_move(move, position, source)
            state = apply_flip(state, lifted)
            trace.append(lifted)
        for move in _merge_layer_moves(state, position, source, target):
            state = apply_flip(state, move)
            trace.append(move)
    return SimplifyResult(Verdict.EXCEEDED, None, tuple(trace))
