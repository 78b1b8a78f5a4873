"""The glue-and-cut (flip) calculus.

A twin pair may be glued into one joker word and cut back along any other
letter pair; one glue+cut is a flip.  Flips never break a code: the glued
word is dichotomous with every other member at some position away from the
glue direction, and every cut inherits that.

Flip reachability is explored by breadth-first search over whole codes
with an explicit state budget; exhaustion of the budget is reported, never
guessed away.  A search state is one int, a bit per word of the space
(``core._Packing``).  One kernel, ``_FlipPacking``, makes every successor:
the words with a twin at a position are one shift and one AND away, split
by letter with a mask each, and a successor is the state xor a four-bit
pattern from a table built once per word space, shifted to the pair.  It
is hashed once, against a closure's visited set or by a search's
``setdefault``.  Each code is checked once on entry, by ``make_code``; a
trace's moves are read back from one XOR of each state and its parent, and
a closure keeps its states packed, decoding them to codes on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .alphabet import STAR, Alphabet
from .core import (
    STATE_BITS_CAP,
    Code,
    Word,
    are_equivalent,
    format_plain,
    is_covered,
    is_cube_tiling_code,
    is_simple,
    make_code,
    overlap_weight,
    _Packing,
    pairs_at,
    twin_pair_direction,
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


def _dim(code: Code) -> int:
    return len(code[0]) if code else 0


# A search keeps up to ``state_budget`` states of ``ceil(words / 8)`` bytes
# each, so one whose budget could fill more than this is refused up front:
# at the default budget, d=4 from six pairs, d=5 from four and d=6 from
# three (5.8 GB).  Extraction at d=5 over three pairs could fill 0.97 GB.
# The cap counts raw state bits only.  Python's per-int and per-set
# overhead makes real peaks about 4x that: the exhausted BFS over the
# 5,541,744 d=4 two-pair codes peaked at about 137 bytes a state, against
# the 32 counted here.
STATE_MEMORY_CAP = 2 << 30


class _FlipPacking(_Packing):
    """A ``core._Packing`` with what flips need.  Flips keep a code's
    size, so a larger state int is a lex-smaller code.  At a position of
    place value ``p`` (``places``), the twin of a word with an unprimed letter is the
    word plus ``p``, ``p`` bits lower.

    Successors come from a pattern table built once per packing.  Per
    position and unprimed letter ``s`` it keeps the mask of the words with
    ``s`` there, and per other unprimed letter ``t`` one ``(offset,
    pattern)`` whose four bits are a twin pair and its cut along ``t``: the
    flip of the pair whose unprimed word is at bit ``b`` is ``state ^
    pattern << b - offset``.  ``successors`` and ``ordered_successors`` are
    the only twin-pair loops, for closures and for searches.

    It checks no code: ``_packed`` hands it codes that ``make_code`` has
    checked.  Only ``meeting`` reads a word from outside, and it guards
    letters outside the alphabet."""

    def __init__(self, alphabet: Alphabet, dim: int) -> None:
        size = alphabet.size**dim
        if size > STATE_BITS_CAP:
            raise ValueError(f"flip search too large: {size:,} words (cap {STATE_BITS_CAP:,})")
        super().__init__(alphabet, dim)
        unprimed = alphabet.unprimed()
        # per position, (place, [(mask of s, index of s's cuts) per s]); an
        # index is position * pairs + pair, so larger ones sit at smaller places
        self.table: list[tuple[int, list[tuple[int, int]]]] = []
        self.cuts: list[list[tuple[int, int]]] = []
        self.directions = {}  # |u - v| of a flip's unprimed words -> position
        for i, place in enumerate(self.places):
            pair = 1 | 1 << place
            rows = []
            for s in unprimed:
                rows.append((self.letters[i][s], len(self.cuts)))
                self.cuts.append([
                    # the lowest of the four bits is the primed word of the
                    # lower pair, at ``b - offset``
                    (place + max(t - s, 0) * place, pair | pair << abs(t - s) * place)
                    for t in unprimed
                    if t != s
                ])
            self.table.append((place, rows))
            self.directions.update((t * place, i) for t in unprimed if t)
        self.index_bits = len(self.cuts).bit_length()

    def check_memory(self, state_budget: int) -> None:
        """Refuse a budget whose states could fill more than
        ``STATE_MEMORY_CAP`` bytes, counting each state's raw bits only:
        the Python ints and the sets that hold them cost about 4x that
        (137 against 32 bytes a state at d=4 over two pairs)."""
        state_bytes = (self.top + 8) // 8
        need = state_budget * state_bytes
        if need > STATE_MEMORY_CAP:
            raise ValueError(
                f"flip search too large: {state_budget:,} states of {state_bytes:,} bytes "
                f"need {need:,} bytes (cap {STATE_MEMORY_CAP:,})"
            )

    def meeting(self, word: Word) -> int:
        """The words with no letter complementary to ``word``'s; a letter
        outside the alphabet is complementary to none."""
        apart = 0
        for masks, s in zip(self.letters, word):
            apart |= masks[s ^ 1] if 0 <= s ^ 1 < self.radix else 0
        return (2 << self.top) - 1 ^ apart

    def successors(self, state: int, seen: Container[int] = ()) -> list[int]:
        """Every state one flip away and not in ``seen``, in no order."""
        cuts, out = self.cuts, []
        append = out.append
        for place, rows in self.table:
            paired = state & state << place
            if not paired:
                continue
            for mask, index in rows:
                twins = paired & mask
                while twins:
                    b = twins.bit_length() - 1
                    twins ^= 1 << b
                    for offset, pattern in cuts[index]:
                        if (successor := state ^ pattern << b - offset) not in seen:
                            append(successor)
        return out

    def ordered_successors(self, state: int) -> Iterator[int]:
        """The states one flip away in the order of the flipped pair's
        unprimed word, then its twin, then the letter cut along."""
        cuts, shift, keys = self.cuts, self.index_bits, []
        for place, rows in self.table:
            paired = state & state << place
            if not paired:
                continue
            for mask, index in rows:
                twins = paired & mask
                while twins:
                    b = twins.bit_length() - 1
                    twins ^= 1 << b
                    keys.append(b << shift | index)
        # higher bits are smaller words, and larger indices smaller places
        keys.sort(reverse=True)
        low = (1 << shift) - 1
        for key in keys:
            b = key >> shift
            for offset, pattern in cuts[key & low]:
                yield state ^ pattern << b - offset

    def search(
        self, start: int, found: Callable[[int], object], state_budget: int
    ) -> tuple[Verdict, Optional[tuple[FlipMove, ...]]]:
        """Breadth-first from ``start`` to the first state ``found`` likes;
        each successor is hashed once, by the ``setdefault`` that keeps it."""
        _check_budget(state_budget)
        self.check_memory(state_budget)
        if found(start):
            return Verdict.YES, ()
        parents: dict[int, Optional[int]] = {start: None}
        keep, kept = parents.setdefault, 1
        queue = [start]
        for current in queue:
            for successor in self.ordered_successors(current):
                keep(successor, current)
                if len(parents) == kept:
                    continue
                if kept >= state_budget:
                    return Verdict.EXCEEDED, None
                kept += 1
                if found(successor):
                    return Verdict.YES, self._trace(parents, successor)
                queue.append(successor)
        return Verdict.NO, None

    def _trace(self, parents: dict[int, Optional[int]], state: int) -> tuple[FlipMove, ...]:
        """Each move from one XOR of a state and its parent: the unprimed
        words of the pair removed, ``v``, and of the pair added, ``u``,
        differ at the direction only, where ``u`` has ``t``."""
        words, top, trace = self.words, self.top, []
        while (parent := parents[state]) is not None:
            diff = parent ^ state
            removed = diff & parent
            v = top - removed.bit_length() + 1
            u = top - (diff ^ removed).bit_length() + 1
            i = self.directions[abs(u - v)]
            t, w = words[u][i], v + self.places[i]
            trace.append(FlipMove(pair=(words[v], words[w]), direction=i, letters=(t, t ^ 1)))
            state = parent
        return tuple(reversed(trace))


# each packing keeps its masks and the words it has unpacked
_packing = lru_cache(maxsize=8)(_FlipPacking)


def _packed(code: Code, alphabet: Alphabet) -> tuple[_FlipPacking, int]:
    """The packing of a code and its state, the code checked by
    ``make_code`` before its word space is built."""
    code = make_code(code, alphabet)
    packing = _packing(alphabet, _dim(code))
    return packing, packing.pack(code)


def twin_pairs(code: Code) -> list[tuple[Word, Word, int]]:
    """``(v, w, direction)`` per twin pair, ``v < w``, in sorted order of
    ``v`` and then ``w``; ``w`` has the primed letter where ``v`` has its pair's unprimed one."""
    dim, words = _dim(code), set(code)
    if any(len(v) != dim or STAR in v for v in code):
        raise ValueError("mixed dimensions or jokers in code")
    return [
        (v, w, i)
        for v in sorted(words)
        for i in reversed(range(dim))
        if not v[i] & 1 and (w := v[:i] + (v[i] + 1,) + v[i + 1 :]) in words
    ]


def neighbors(code: Code, alphabet: Alphabet) -> tuple[Code, ...]:
    """The codes one flip away, sorted."""
    packing, state = _packed(code, alphabet)
    return tuple(map(packing.unpack, sorted(packing.successors(state), reverse=True)))


@dataclass(frozen=True, init=False)
class ClosureResult:
    """Everything reachable from the seed by flips, within the budget.

    ``packed`` holds each state as one int, a bit per word of the
    ``dim``-letter words over ``alphabet`` (``core._Packing``).  ``states``
    decodes them to codes on first read and keeps them; ``sorted_states``
    decodes in descending int order, which is ascending code order, since
    flips keep a code's size.  ``levels`` counts the states first reached
    at each flip distance from the seed, the seed's 1 first; they sum to
    the states kept.  A result built with decoded ``states``, as
    ``dataclasses.replace(result, states=...)`` builds one, packs them in
    place of ``packed`` and keeps ``levels`` as given."""

    packed: frozenset[int]
    exhausted: bool
    frontier_count: int
    alphabet: Alphabet
    dim: int
    levels: tuple[int, ...]

    def __init__(
        self,
        packed: frozenset[int],
        exhausted: bool,
        frontier_count: int,
        alphabet: Alphabet,
        dim: int,
        levels: tuple[int, ...],
        states: Optional[Iterable[Code]] = None,
    ) -> None:
        if states is not None:
            states = self.__dict__["states"] = frozenset(states)
            packed = frozenset(map(_packing(alphabet, dim).pack, states))
        self.__dict__.update(
            packed=packed,
            exhausted=exhausted,
            frontier_count=frontier_count,
            alphabet=alphabet,
            dim=dim,
            levels=levels,
        )

    @cached_property
    def states(self) -> frozenset[Code]:
        return frozenset(map(_packing(self.alphabet, self.dim).unpack, self.packed))

    def sorted_states(self) -> tuple[Code, ...]:
        unpack = _packing(self.alphabet, self.dim).unpack
        return tuple(map(unpack, sorted(self.packed, reverse=True)))


def closure(
    code: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ClosureResult:
    """Breadth-first fixpoint of the flip relation; the seed is a state.
    Each state's successors are visited in sorted order.  At most
    ``state_budget`` states are kept; meeting one more ends the search
    unexhausted, with the states not fully expanded as frontier.  The
    states are returned packed; no code is built here."""
    _check_budget(state_budget)
    packing, start = _packed(code, alphabet)
    packing.check_memory(state_budget)
    visited = {start}
    queue = [start]
    frontier = 0
    # the queue holds each distance's states after the last's, so a level
    # is complete when the first state after it is expanded
    levels, level_end = [1], 1
    for index, current in enumerate(queue):
        if index == level_end:
            levels.append(len(queue) - index)
            level_end = len(queue)
        # the flips of a code give distinct codes
        successors = packing.successors(current, visited)
        successors.sort(reverse=True)  # by code, ascending
        if len(visited) + len(successors) > state_budget:
            queue.extend(successors[: state_budget - len(visited)])
            frontier = len(queue) - index
            break
        visited.update(successors)
        queue.extend(successors)
    if len(queue) > level_end:  # the level a budget cut short
        levels.append(len(queue) - level_end)
    # every state kept is queued once: the set goes before the queue is
    # frozen, so only one hash table of the states is ever alive
    visited.clear()
    return ClosureResult(
        packed=frozenset(queue),
        exhausted=not frontier,
        frontier_count=frontier,
        alphabet=alphabet,
        dim=packing.dim,
        levels=tuple(levels),
    )


def find_flip_path(
    start: Code,
    goal: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[Verdict, Optional[tuple[FlipMove, ...]]]:
    """Shortest flip sequence from ``start`` to ``goal``, both checked by
    ``make_code``; a goal of another dimension is never met.  The returned
    trace replays exactly.  At most ``state_budget`` states are kept;
    meeting one more exceeds it."""
    packing, packed = _packed(start, alphabet)
    goal = make_code(goal, alphabet)
    # a goal of another dimension is never met, and its packed words could
    # collide with the start's
    target = packing.pack(goal) if _dim(goal) == packing.dim else None
    return packing.search(packed, lambda state: state == target, state_budget)


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
    packing, start = _packed(code, alphabet)
    meets = packing.meeting(word)
    verdict, _ = packing.search(
        start, lambda state: (state & meets).bit_count() < threshold, state_budget
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
    weights = [overlap_weight(v, word) for v in code]
    if sum(weights) != 1 << len(word):
        raise ValueError("extraction requires a covering code")
    if len(weights) - weights.count(0) > 4:
        raise ValueError("extraction requires at most four meeting words")
    packing, start = _packed(code, alphabet)
    target = packing.pack([word])
    verdict, trace = packing.search(start, lambda state: state & target, state_budget)
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


# layer merges one simplification may take before it gives up as EXCEEDED
MAX_MERGES = 64


@dataclass(frozen=True)
class SimplifyResult:
    verdict: Verdict
    code: Optional[Code]
    trace: tuple[FlipMove, ...]


def simplify_tiling(
    code: Code,
    alphabet: Alphabet,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SimplifyResult:
    """Flip a cube tiling code into a simple one, layer by layer.

    Among the positions that carry two or more letter pairs, the (position,
    pair) with the fewest words is taken, ties going to the lowest position
    and then the lowest pair.  That pair's unprimed layer is flipped (one
    dimension down, by ``find_flip_path``) until it equals its primed
    layer, the resulting twin pairs are merged onto the lowest other pair
    at the position, and the process repeats.  The full flip trace is
    returned and replays exactly."""
    _check_budget(state_budget)
    if not is_cube_tiling_code(code):
        raise ValueError("layer simplification applies to cube tiling codes")
    state = make_code(code)
    trace: list[FlipMove] = []
    for _ in range(MAX_MERGES):
        if is_simple(state):
            return SimplifyResult(Verdict.YES, state, tuple(trace))
        # (words, position, pair) over the positions of two or more pairs
        _, position, pair = min(
            (sum(v[i] >> 1 == j for v in state), i, j)
            for i in range(len(state[0]))
            if len(pairs := pairs_at(state, i)) > 1
            for j in pairs
        )
        source, target = 2 * pair, 2 * min(pairs_at(state, position) - {pair})
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
