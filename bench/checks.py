"""Output checks for the benchmark workloads.

Nothing here imports polybox.  Words are tuples of letters ``0..2k-1``
whose complement is ``letter ^ 1``; the dichotomy, twin and flip-replay
tests below are written out again so that a fault in the program's own
predicates cannot pass its own outputs.  The cover questions go to
``oracle``, the program's cell-enumeration realization oracle, which
shares no logic with the weight criterion the program answers them with.

Each checker returns a list of error strings; an empty list means the
output is correct.  The frozen counts are copies: ``census.py`` recomputes
the tiling-code counts with ``tiling_codes``.
"""

from __future__ import annotations

import itertools

B = 2  # the letter written ``b``

# twin-pair-free minimal covers of bbbbb over two pairs, classes per size
COVER_CLASS_COUNTS = {5: 1, 6: 1, 7: 3, 8: 4, 9: 19, 10: 51}
# cube tiling codes of dimension 3 over three letter pairs (census.py)
TILING_CODES_D3_K3 = 17793
JOINT_COVERS_SIZE8 = 64
JOINT_KEPT_COVERS = 7744


def dichotomous(v, w) -> bool:
    return any(a == b ^ 1 for a, b in zip(v, w))


def twins(v, w) -> bool:
    """Differ at exactly one position, by complementation."""
    diff = [(a, b) for a, b in zip(v, w) if a != b]
    return len(diff) == 1 and diff[0][0] == diff[0][1] ^ 1


def is_code(words) -> bool:
    return len(set(words)) == len(words) and all(
        dichotomous(v, w) for v, w in itertools.combinations(words, 2)
    )


def is_tiling_code(words) -> bool:
    return bool(words) and len(words) == 1 << len(words[0]) and is_code(words)


def tiling_codes(dim: int, pairs: int):
    """Every cube tiling code of the given size, by backtracking over the
    words in index order: each code is met once, as its sorted tuple."""
    words = list(itertools.product(range(2 * pairs), repeat=dim))
    later = [
        sum(1 << j for j in range(i + 1, len(words)) if dichotomous(words[i], words[j]))
        for i in range(len(words))
    ]
    target = 1 << dim

    def grow(candidates: int, chosen: tuple):
        if len(chosen) == target:
            yield chosen
            return
        while candidates.bit_count() >= target - len(chosen):
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            yield from grow(candidates & later[i], chosen + (words[i],))

    return grow((1 << len(words)) - 1, ())


def twin_free(words) -> bool:
    return not any(twins(v, w) for v, w in itertools.combinations(words, 2))


def bridge_ok(cover, second) -> bool:
    """At most three words of a cover of bbbbb miss the second anchor word:
    only those covers can join into an eight-word union, since a cover of
    the second word has at least five words."""
    return sum(1 for q in cover if dichotomous(q, second)) <= 3


def mirror(cover, positions):
    """Swap b and b' at the given positions."""
    return tuple(sorted(
        tuple(s ^ 1 if i in positions and s >> 1 == B >> 1 else s for i, s in enumerate(q))
        for q in cover
    ))


def replay(code, trace):
    """Apply a flip trace, checking every step; returns (state, error)."""
    state = set(code)
    for step, move in enumerate(trace):
        v, w = move.pair
        d = move.direction
        t = move.letters[0]
        if v not in state or w not in state:
            return None, f"step {step}: twin pair not in the code"
        if not twins(v, w) or v[d] == w[d]:
            return None, f"step {step}: not a twin pair in direction {d}"
        if move.letters != (t, t ^ 1) or t >> 1 == v[d] >> 1:
            return None, f"step {step}: cut letters {move.letters} are not a new pair"
        state -= {v, w}
        new = {v[:d] + (t,) + v[d + 1:], v[:d] + (t ^ 1,) + v[d + 1:]}
        if new & state:
            return None, f"step {step}: cut repeats a word"
        state |= new
    out = tuple(sorted(state))
    if not is_code(out):
        return None, "replayed state is not a code"
    return out, None


def check_minimal_cover(cover, anchor, size, alphabet, oracle) -> list[str]:
    errors = []
    if len(cover) != size:
        errors.append(f"{cover}: {len(cover)} words, expected {size}")
    if not is_code(cover):
        errors.append(f"{cover}: not pairwise dichotomous")
    if not twin_free(cover):
        errors.append(f"{cover}: has a twin pair")
    if not oracle(anchor, cover, alphabet):
        errors.append(f"{cover}: does not cover {anchor}")
    for drop in range(len(cover)):
        rest = cover[:drop] + cover[drop + 1:]
        if rest and oracle(anchor, rest, alphabet):
            errors.append(f"{cover}: not minimal, still covers without word {drop}")
            break
    return errors


def check_classify(classes, anchor, alphabet, oracle) -> list[str]:
    """``classes`` maps size to the class representatives of that size."""
    errors = []
    counts = {size: len(reps) for size, reps in classes.items()}
    if counts != COVER_CLASS_COUNTS:
        errors.append(f"class counts {counts}, expected {COVER_CLASS_COUNTS}")
    for size, reps in classes.items():
        if len(set(reps)) != len(reps):
            errors.append(f"size {size}: repeated representative")
        for cover in reps:
            errors += check_minimal_cover(cover, anchor, size, alphabet, oracle)
    return errors


def check_joint(kept, joint, first, second, alphabet, oracle) -> list[str]:
    errors = []
    if len(kept) != JOINT_KEPT_COVERS:
        errors.append(f"{len(kept)} kept covers, expected {JOINT_KEPT_COVERS}")
    for cover in kept:
        if not (5 <= len(cover) <= 7 and is_code(cover) and twin_free(cover)
                and bridge_ok(cover, second)):
            errors.append(f"kept cover {cover} breaks the filter")
            break
    if len(joint) != JOINT_COVERS_SIZE8:
        errors.append(f"{len(joint)} joint covers, expected {JOINT_COVERS_SIZE8}")
    if len(set(joint)) != len(joint):
        errors.append("repeated joint cover")
    for cover in joint:
        if len(cover) != 8 or not is_code(cover):
            errors.append(f"joint cover {cover} is not an 8-word code")
        elif not (oracle(first, cover, alphabet) and oracle(second, cover, alphabet)):
            errors.append(f"joint cover {cover} misses an anchor word")
    return errors


def check_closure(result, seed, neighbors) -> list[str]:
    """An exhaustive closure over dimension 3, three pairs."""
    states = result.states
    errors = []
    if not result.exhausted:
        errors.append("closure not exhausted")
    if seed not in states:
        errors.append("seed missing from its closure")
    if len(states) != TILING_CODES_D3_K3:
        errors.append(f"{len(states)} states, census has {TILING_CODES_D3_K3}")
    if states != set(tiling_codes(3, 3)):
        errors.append("states differ from the census of cube tiling codes")
    for state in states:
        if not set(neighbors(state)) <= states:
            errors.append(f"closure not closed under flips at {state}")
            break
    return errors


def check_extractions(covers, traces, word) -> list[str]:
    errors = []
    if len(covers) != len(traces):
        errors.append(f"{len(traces)} traces for {len(covers)} covers")
    for cover, trace in zip(covers, traces):
        end, error = replay(cover, trace)
        if error:
            errors.append(f"{cover}: {error}")
        elif word not in end:
            errors.append(f"{cover}: trace ends without {word}")
    return errors


def check_budgeted_closure(result, seed, budget) -> tuple[list[str], bool]:
    """Errors, and whether the budget held.  A run past the budget is the
    one operation the benchmark counts as failed rather than wrong."""
    errors = []
    if result.exhausted:
        errors.append("budgeted closure claims to be exhaustive")
    if seed not in result.states:
        errors.append("seed missing from its closure")
    return errors, len(result.states) <= budget


def check_fuzz(instances) -> list[str]:
    """``instances`` holds (kind, max_size, code, questions), each question
    a (word, weight verdict, oracle verdict) triple."""
    errors = []
    for kind, max_size, code, questions in instances:
        for word, weight, oracle in questions:
            if weight != oracle:
                errors.append(f"{code} / {word}: weight says {weight}, oracle says {oracle}")
        if kind == "tiling" and not is_tiling_code(code):
            errors.append(f"{code}: not a cube tiling code")
        if kind == "code" and not (is_code(code) and 1 <= len(code) <= max_size):
            errors.append(f"{code}: not a code of at most {max_size} words")
    return errors
