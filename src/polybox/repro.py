"""Reproduction jobs: each turns a documented reference computation into a
runnable check that prints expected against computed values.

Job names are historical tokens kept stable for scripting; the help text
and report lines say what each one computes.  Long-running jobs refuse to
start without the explicit long flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random

from .alphabet import Alphabet
from .core import (
    Code,
    Word,
    are_disjoint,
    are_equivalent,
    binary_code_set,
    common_density,
    is_covered,
    make_code,
    overlap_weight,
)
from .catalog import (
    example_pair,
    example_trace,
    small_cover_extraction_trace,
    small_covers,
    special_pair,
)
from .iso import GroupElement, apply_code, canonical_form, dedup_orbits, element, word_stabilizer
from .moves import (
    Verdict,
    apply_flip,
    closure,
    extract_word,
    is_strongly_equivalent,
    replay,
    twin_pairs,
)
from .realize import oracle_is_covered
from .sampling import random_code, random_tiling_code, random_word
from .search import (
    ANCHOR_LETTER,
    cover_code,
    cover_word,
    enumerate_minimal_covers,
    _tiling_census,
)

COVER_CLASS_COUNTS = {5: 1, 6: 1, 7: 3, 8: 4, 9: 19, 10: 51, 11: 153}
# classes of 2-4-word minimal covers of b...b over three pairs: the bundled
# four (spanning at most two positions) at d=2, two more spanning three
# positions from d=3 on; regression values, oracle-checked
SMALL_COVER_CLASS_COUNTS = {2: 4, 5: 6}
# cube tiling codes by (dimension, pair count), as the flip closure of the
# simple seed reaches them: the codes first reached at each flip distance.
# Regression values; they sum to the code counts 12, 744, 17,793 and
# 152,128, equal at d=3 to bench/census.py's
TILING_CODE_LEVELS = {
    (2, 2): (1, 4, 2, 4, 1),
    (3, 2): (1, 12, 42, 68, 111, 96, 84, 96, 111, 60, 42, 20, 1),
    (3, 3): (1, 24, 168, 448, 984, 1536, 1728, 1920, 2688, 2784, 2400, 2176, 872, 64),
    (3, 4): (
        1, 36, 378, 1404, 3591, 7776, 10692, 12960, 18711, 23652, 24786, 27756, 18657, 1728
    ),
}
SABC_SIZE8_JOINT_COVERS = 64


@dataclass
class JobReport:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)

    def check(self, label: str, expected, computed) -> None:
        good = expected == computed
        self.ok = self.ok and good
        mark = "ok" if good else "MISMATCH"
        self.lines.append(f"{label}: expected {expected} computed {computed} [{mark}]")

    def note(self, text: str) -> None:
        self.lines.append(text)


def job_sl11(long: bool) -> JobReport:
    """Class counts of twin-pair-free minimal covers of bbbbb (two pairs)."""
    report = JobReport("sl11", True)
    alphabet = Alphabet(2)
    v = (ANCHOR_LETTER,) * 5
    stabilizer = word_stabilizer(v, alphabet)
    sizes = range(5, 12) if long else range(5, 10)
    for size in sizes:
        family = cover_word(v, size, alphabet)
        classes = dedup_orbits(family, stabilizer)
        report.check(f"classes size {size}", COVER_CLASS_COUNTS[size], len(classes))
    if not long:
        report.note("sizes 10-11 run with --long")
    return report


def _support(code: Code, v: Word) -> frozenset[int]:
    """Positions where some word of the code differs from v; every word
    stabilizer element maps it onto an equal-sized set."""
    return frozenset(i for w in code for i in range(len(v)) if w[i] != v[i])


def job_lemma4(long: bool) -> JobReport:
    """Minimal covers of b...b with 2-4 words: class census, the bundled
    list, and flip extraction from every class."""
    report = JobReport("lemma4", True)
    alphabet = Alphabet(3)
    v = (ANCHOR_LETTER,) * 5
    stabilizer = word_stabilizer(v, alphabet)
    family: list[Code] = []
    for size in (2, 3, 4):
        family.extend(enumerate_minimal_covers(v, size, alphabet))
    classes = dedup_orbits(family, stabilizer)
    bundled = {canonical_form(c, stabilizer) for c in small_covers()}
    report.check(
        "classes with 2-4 words (d=5)", SMALL_COVER_CLASS_COUNTS[5], len(classes)
    )
    report.check("bundled classes found", True, bundled <= set(classes))
    report.check(
        "classes beyond the bundled list spanning three positions",
        True,
        all(len(_support(c, v)) == 3 for c in set(classes) - bundled),
    )
    extracted = 0
    for cls in classes:
        trace = extract_word(cls, v, alphabet)
        if v in replay(cls, trace):
            extracted += 1
    report.check("classes admitting extraction", len(classes), extracted)
    # dimension-2 cross-section: the bundled list is the full classification
    v2 = (ANCHOR_LETTER,) * 2
    family2: list[Code] = []
    for size in (2, 3, 4):
        family2.extend(enumerate_minimal_covers(v2, size, alphabet))
    classes2 = dedup_orbits(family2, word_stabilizer(v2, alphabet))
    report.check(
        "classes with 2-4 words (d=2)", SMALL_COVER_CLASS_COUNTS[2], len(classes2)
    )
    # the recorded extraction trace for cover class 2 replays
    end = replay(small_covers()[1], small_cover_extraction_trace())
    report.check("bundled extraction trace reaches b...b", True, v in end)
    return report


def job_special_pair(long: bool) -> JobReport:
    """All structural checks of the bundled 12-word pair."""
    report = JobReport("special-pair", True)
    alphabet = Alphabet(2)
    v_code, w_code = special_pair()
    report.check("sizes", (12, 12), (len(v_code), len(w_code)))
    report.check("twin pairs", ([], []), (twin_pairs(v_code), twin_pairs(w_code)))
    report.check("disjoint", True, are_disjoint(v_code, w_code))
    report.check("mutually covering", True, are_equivalent(v_code, w_code))
    report.check(
        "equal binary code sets", True, binary_code_set(v_code) == binary_code_set(w_code)
    )
    report.check("common density >= 5", True, common_density(v_code, w_code) >= 5)
    closed = closure(v_code, alphabet)
    report.check("closure is the seed alone", True, closed.states == {v_code})
    report.check(
        "strongly equivalent", Verdict.NO.value,
        is_strongly_equivalent(v_code, w_code, alphabet).value,
    )
    return report


def job_example1(long: bool) -> JobReport:
    """Replay of the bundled four-flip sequence in dimension two."""
    report = JobReport("example1", True)
    v_code, w_code = example_pair()
    state = v_code
    legal = equivalent = 0
    for move in example_trace():
        state = apply_flip(state, move)
        legal += 1
        equivalent += are_equivalent(state, v_code)
    report.check("legal flips", 4, legal)
    report.check("equivalent intermediates", 4, equivalent)
    report.check("end state is the bundled partner", True, state == w_code)
    return report


def _connectivity(name: str, dim: int) -> JobReport:
    """For each pair count ``TILING_CODE_LEVELS`` lists at ``dim``: the
    census of cube tiling codes, one exact cover per code
    (``_tiling_census``), equals the flip closure of the simple seed.  Both
    sides are packed alike, so they compare as two sets of ints.  The
    closure's codes by flip distance from the seed are regression values
    too."""
    report = JobReport(name, True)
    seed = make_code(itertools.product((0, 1), repeat=dim))
    for (d, pairs), levels in TILING_CODE_LEVELS.items():
        if d != dim:
            continue
        alphabet = Alphabet(pairs)
        census = _tiling_census(alphabet, dim)
        report.check(f"tiling codes d={dim}, {pairs} pairs (regression)", sum(levels), len(census))
        closed = closure(seed, alphabet)
        report.check(f"closure exhausted, {pairs} pairs", True, closed.exhausted)
        report.check(f"codes by flip distance, {pairs} pairs (regression)", levels, closed.levels)
        report.check(
            f"closure of the simple seed is the census, {pairs} pairs",
            True,
            closed.packed == census,
        )
    return report


def job_d2_connectivity(long: bool) -> JobReport:
    """Flip connectivity of all 2x2 tiling codes over two pairs: the census
    by exact cover equals the flip closure of the simple seed."""
    return _connectivity("d2-connectivity", 2)


def job_connectivity(long: bool) -> JobReport:
    """Flip connectivity of all cube tiling codes of dimension 3 over two,
    three and four pairs: the census by exact cover equals the flip closure
    of the simple seed.  Opposite layers of a tiling code are equivalent,
    so a position of a d=3 code carries at most four pairs: every d=3 code
    over any alphabet is a per-position relabelling, which commutes with
    flips, of a code over four pairs.  Simple codes over any pairs are
    joined by flipping every twin pair at a position onto another pair,
    so four pairs settle d=3 for every alphabet."""
    return _connectivity("connectivity", 3)


def job_oracle_fuzz(long: bool) -> JobReport:
    """Weight criterion against the cell-enumeration oracle on randomized
    cover questions."""
    report = JobReport("oracle-fuzz", True)
    rng = Random(20240831)
    rounds = 3000 if long else 1000
    agree = total = covered_cases = 0
    cases = [(d, k) for d in (2, 3, 4) for k in (2, 3)]
    while total < rounds:
        for dim, pairs in cases:
            alphabet = Alphabet(pairs)
            roll = rng.random()
            if roll < 0.4:
                code = random_tiling_code(alphabet, dim, rng)
            else:
                code = random_code(alphabet, dim, rng, max_size=rng.randrange(1, 2**dim + 1))
            if roll < 0.2 and code:
                word = code[rng.randrange(len(code))]
            else:
                word = random_word(alphabet, dim, rng)
            fast = is_covered(word, code)
            slow = oracle_is_covered(word, code, alphabet)
            total += 1
            agree += fast == slow
            covered_cases += fast
            if total >= rounds:
                break
    report.check(f"agreement on {total} instances", total, agree)
    # frozen: the count pins the seeded stream of codes and words
    report.check("covered instances among them", 1724 if long else 557, covered_cases)
    return report


def _mirror_to_second_word(alphabet: Alphabet) -> GroupElement:
    """The isomorphism swapping b and b' at the first three positions,
    carrying covers of bbbbb onto covers of b'b'b'bb."""
    maps = []
    for i in range(5):
        m = list(alphabet.letters())
        if i < 3:
            m[ANCHOR_LETTER], m[ANCHOR_LETTER ^ 1] = m[ANCHOR_LETTER ^ 1], m[ANCHOR_LETTER]
        maps.append(tuple(m))
    return element(tuple(range(5)), maps)


def job_sabc_partial(long: bool) -> JobReport:
    """Joint covers of the pair {bbbbb, b'b'b'bb} with eight words over
    three letter pairs, built by joining per-word twin-pair-free cover
    families."""
    report = JobReport("sabc-partial", True)
    alphabet = Alphabet(3)
    v = (ANCHOR_LETTER,) * 5
    w = tuple([ANCHOR_LETTER ^ 1] * 3 + [ANCHOR_LETTER] * 2)

    # the words that meet the other anchor word, found once
    bridges = {
        q for q in itertools.product(alphabet.letters(), repeat=5)
        if overlap_weight(q, w) > 0
    }
    # a cover can only join into an 8-word union (partner covers have at
    # least 5 words) when at most 3 of its words fail to meet the other
    # anchor word; filtering up front keeps the families small
    family_v: list[Code] = []
    for size in (5, 6, 7, 8):
        family_v.extend(
            enumerate_minimal_covers(
                v,
                size,
                alphabet,
                twin_free=True,
                keep=lambda c: len(c) - len(bridges.intersection(c)) <= 3,
            )
        )
    mirror = _mirror_to_second_word(alphabet)
    family_w = [apply_code(mirror, c) for c in family_v]
    report.note(
        f"joinable covers per word: {len(family_v)} (of the full families; "
        "covers that cannot fit a size-8 union are filtered out up front)"
    )
    joint = cover_code((v, w), 8, {v: family_v, w: family_w})
    joint = tuple(c for c in joint if len(c) == 8)
    report.check("size-8 joint covers", SABC_SIZE8_JOINT_COVERS, len(joint))
    return report


JOBS = {
    "sl11": (job_sl11, "twin-pair-free cover class counts, sizes 5-9 (10-11 with --long)"),
    "lemma4": (job_lemma4, "small minimal-cover classes and flip extraction"),
    "special-pair": (job_special_pair, "structural checks of the bundled 12-word pair"),
    "example1": (job_example1, "replay of the bundled four-flip sequence"),
    "d2-connectivity": (job_d2_connectivity, "census and flip connectivity of 2x2 tiling codes"),
    "connectivity": (job_connectivity, "census and flip connectivity of d=3 tiling codes over 2, 3 and 4 pairs"),
    "oracle-fuzz": (job_oracle_fuzz, "weight criterion vs cell-enumeration oracle"),
    "sabc-partial": (job_sabc_partial, "size-8 joint covers of the two-word anchor pair (--long)"),
}

LONG_ONLY = {"sabc-partial"}


def run_job(name: str, long: bool = False) -> JobReport:
    if name not in JOBS:
        raise KeyError(f"unknown job {name!r}; have {sorted(JOBS)}")
    if name in LONG_ONLY and not long:
        raise ValueError(f"job {name!r} is long-running; pass --long to run it")
    return JOBS[name][0](long)
