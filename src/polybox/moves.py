"""The glue-and-cut (flip) calculus.

A twin pair may be glued into one joker word and cut back along any other
letter pair; one glue+cut is a flip.  Flips never break a code: the glued
word is dichotomous with every other member at some position away from the
glue direction, and every cut inherits that.

Flip reachability is explored by breadth-first search over whole codes
with an explicit state budget; exhaustion of the budget is reported, never
guessed away.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

from .alphabet import STAR, Alphabet
from .core import (
    Code,
    Word,
    code_covered,
    format_plain,
    is_covered,
    is_cube_tiling_code,
    is_simple,
    make_code,
    minimal_cover_within,
    overlap_weight,
    pairs_at,
    twin_pair_direction,
)

DEFAULT_STATE_BUDGET = 10**6


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


def twin_pairs(code: Code) -> list[tuple[Word, Word, int]]:
    out = []
    for i, v in enumerate(code):
        for w in code[i + 1 :]:
            direction = twin_pair_direction(v, w)
            if direction is not None:
                out.append((v, w, direction))
    return out


def neighbor_moves(
    code: Code, alphabet: Alphabet
) -> Iterator[tuple[FlipMove, Code]]:
    """All single flips, in deterministic order."""
    for v, w, direction in twin_pairs(code):
        rest = [x for x in code if x not in (v, w)]
        for t in alphabet.unprimed():
            if t >> 1 == v[direction] >> 1:
                continue
            move = FlipMove(pair=(v, w), direction=direction, letters=(t, t ^ 1))
            successor = tuple(sorted(rest + list(move.replacement())))
            yield move, successor


def neighbors(code: Code, alphabet: Alphabet) -> tuple[Code, ...]:
    seen = {successor for _, successor in neighbor_moves(code, alphabet)}
    seen.discard(code)
    return tuple(sorted(seen))


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
    At most ``state_budget`` states are kept; meeting one more ends the
    search unexhausted, with the states not fully expanded as frontier."""
    if state_budget <= 0:
        raise ValueError("state budget must be positive")
    visited: set[Code] = {code}
    queue: deque[Code] = deque([code])
    while queue:
        current = queue.popleft()
        for successor in neighbors(current, alphabet):
            if successor in visited:
                continue
            if len(visited) >= state_budget:
                return ClosureResult(
                    states=frozenset(visited),
                    exhausted=False,
                    frontier_count=len(queue) + 1,
                    state_budget=state_budget,
                )
            visited.add(successor)
            queue.append(successor)
    return ClosureResult(
        states=frozenset(visited),
        exhausted=True,
        frontier_count=0,
        state_budget=state_budget,
    )


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
    if accept is None:
        if goal is None:
            raise ValueError("need a goal code or an accept predicate")
        accept = lambda state: state == goal
    if accept(start):
        return Verdict.YES, ()
    parents: dict[Code, tuple[Code, FlipMove]] = {start: (start, None)}  # type: ignore[dict-item]
    queue: deque[Code] = deque([start])
    while queue:
        current = queue.popleft()
        for move, successor in neighbor_moves(current, alphabet):
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
    word, so the answer is NO there."""
    return is_locked_cover_code((word,), code, alphabet, threshold, state_budget)


def is_locked_cover_code(
    inner: Code,
    code: Code,
    alphabet: Alphabet,
    threshold: int = 5,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Verdict:
    if not code_covered(inner, code):
        raise ValueError("lock test requires a covering code")

    def meets_below(state: Code) -> bool:
        for p in inner:
            if sum(1 for v in state if overlap_weight(v, p) > 0) < threshold:
                return True
        return False

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
    verdict, trace = find_flip_path(
        code, None, alphabet, state_budget, accept=lambda state: word in state
    )
    if verdict != Verdict.YES:
        raise RuntimeError("extraction search failed; this is a defect")
    assert trace is not None
    return trace


def normalize_twin_free_covers(code: Code, simple: Code, alphabet: Alphabet) -> Code:
    """Flip the covering code until, for every word of the simple code, the
    words meeting it contain no twin pair.

    Each step rewrites one offending twin pair onto the simple code's own
    letter pair at that position, which can never sit inside a single
    word's cover again; the count of positions carrying foreign pairs
    drops, so the loop terminates within a computable bound."""
    if not is_simple(simple):
        raise ValueError("normalization target must be a simple code")
    if not code_covered(simple, code):
        raise ValueError("normalization requires a covering code")
    target_pairs = [next(iter(pairs_at(simple, i))) for i in range(len(simple[0]))]
    state = make_code(code)
    bound = sum(
        1 for v in state for i, s in enumerate(v) if s >> 1 != target_pairs[i]
    )
    for _ in range(bound + 1):
        offender = None
        for p in simple:
            cover = minimal_cover_within(p, state)
            pairs = twin_pairs(cover)
            if pairs:
                offender = pairs[0]
                break
        if offender is None:
            return state
        v, w, direction = offender
        state = apply_flip(
            state, flip_move(v, w, 2 * target_pairs[direction])
        )
    raise RuntimeError("normalization exceeded its termination bound")


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


def merge_layers(code: Code, position: int, letter: int, target: int) -> Code:
    """Rewrite the twin pairs spanning ``letter``/its complement onto the
    target pair; a batch of ordinary flips."""
    state = make_code(code)
    for move in _merge_layer_moves(code, position, letter, target):
        state = apply_flip(state, move)
    return state


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
