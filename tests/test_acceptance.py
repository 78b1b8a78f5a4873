"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Criterion 2 classifies the minimal covers of bbbbb with two to four words
(three letter pairs) up to the word stabilizer: there are six classes, the
four bundled ones plus two more.  Every stabilizer element maps the support
of a cover (the positions where some word differs from bbbbb) onto a set
of the same size; the bundled four span at most two positions, so they are
the complete list only in dimension two, while the two extras span three.
The extras are checked to be minimal covers by the independent
cell-enumeration oracle, and every class admits flip extraction, which is
the fact the rest of the machinery depends on.

Criterion 7, the soundness of the deficiency bound on partial covers, is
retired with the bound: in both searches that run, it reduces to a
candidate count the search already makes (CHANGES.md has the derivation).
The other criteria keep their numbers.
"""

import itertools
import os
import subprocess
import sys
from random import Random

import pytest

from polybox.alphabet import Alphabet
from polybox.core import (
    are_disjoint,
    are_equivalent,
    binary_code_set,
    common_density,
    density,
    is_covered,
    is_polybox_code,
    make_code,
    overlap_weight,
    twin_pair_direction,
)
from polybox.catalog import (
    example_pair,
    example_trace,
    small_cover_extraction_trace,
    small_covers,
    special_pair,
)
from polybox.iso import canonical_form, dedup_orbits, word_stabilizer
from polybox.moves import (
    Verdict,
    apply_flip,
    closure,
    extract_word,
    flip_move,
    inverse_flip,
    is_strongly_equivalent,
    replay,
    twin_pairs,
)
from polybox.pbxio import parse_word
from polybox.realize import oracle_is_covered
from polybox.repro import run_job
from polybox.sampling import random_code, random_tiling_code, random_word
from polybox.search import enumerate_minimal_covers, find_second_codes

LONG = os.environ.get("POLYBOX_LONG") == "1"


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_cover_class_counts():
    """Twin-pair-free minimal cover classes of bbbbb over two letter
    pairs, sizes 5-9, via the command-line repro job."""
    proc = subprocess.run(
        [sys.executable, "-m", "polybox.cli", "repro", "sl11"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    for size, count in {5: 1, 6: 1, 7: 3, 8: 4, 9: 19}.items():
        ok = ok and f"classes size {size}: expected {count} computed {count} [ok]" in proc.stdout
    report(1, "cover class counts 1,1,3,4,19", ok)
    assert ok, proc.stdout


@pytest.mark.skipif(not LONG, reason="sizes 10-11 run with POLYBOX_LONG=1")
def test_criterion_1_long_sizes():
    proc = subprocess.run(
        [sys.executable, "-m", "polybox.cli", "repro", "sl11", "--long"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    for size, count in {10: 51, 11: 153}.items():
        ok = ok and f"classes size {size}: expected {count} computed {count} [ok]" in proc.stdout
    report(1, "cover class counts sizes 10-11 (long)", ok)
    assert ok, proc.stdout


def _support(code, v):
    return {i for w in code for i in range(len(v)) if w[i] != v[i]}


def test_criterion_2_small_cover_classification():
    """2-4-word minimal covers of bbbbb over three pairs fall into exactly
    six stabilizer classes: the bundled four, which span at most two
    positions, and two oracle-verified minimal covers spanning three
    positions, which no stabilizer element can carry onto a bundled one."""
    alphabet = Alphabet(3)
    v = (2,) * 5
    family = []
    for size in (2, 3, 4):
        family.extend(enumerate_minimal_covers(v, size, alphabet))
    stabilizer = word_stabilizer(v, alphabet)
    classes = dedup_orbits(family, stabilizer)
    bundled = {canonical_form(c, stabilizer) for c in small_covers()}
    extras = [
        make_code(parse_word(w) for w in words)
        for words in (
            ("aaabb", "aaa'bb", "aa'bbb", "a'bbbb"),
            ("aabbb", "aa'bbb", "a'babb", "a'ba'bb"),
        )
    ]
    expected = bundled | {canonical_form(c, stabilizer) for c in extras}
    extras_ok = True
    for cover in extras:
        extras_ok = (
            extras_ok
            and oracle_is_covered(v, cover, alphabet)
            and not any(
                oracle_is_covered(v, part, alphabet)
                for r in range(1, len(cover))
                for part in itertools.combinations(cover, r)
            )
            and len(_support(cover, v)) == 3
        )
    extraction_ok = True
    for cls in classes:
        trace = extract_word(cls, v, alphabet)
        extraction_ok = extraction_ok and v in replay(cls, trace)
    bundled_narrow = all(len(_support(c, v)) <= 2 for c in small_covers())
    trace_ok = v in replay(small_covers()[1], small_cover_extraction_trace())
    ok = (
        len(expected) == 6
        and set(classes) == expected
        and len(classes) == 6
        and bundled_narrow
        and extras_ok
        and extraction_ok
        and trace_ok
    )
    report(2, "six small-cover classes: four bundled, two spanning three positions", ok)
    assert len(expected) == 6, "the two extras must be new, distinct classes"
    assert bundled_narrow
    assert extras_ok
    assert set(classes) == expected and len(classes) == 6
    assert extraction_ok
    assert trace_ok


def test_criterion_2_verified_regression_values():
    """The verified counterpart: four classes at d=2 (where the bundled
    list is the complete classification), six at d=5 with the bundled four
    among them, extraction everywhere, and the reference trace replaying
    through its displayed states."""
    alphabet = Alphabet(3)
    ok = True
    for dim, expected in ((2, 4), (5, 6)):
        v = (2,) * dim
        family = []
        for size in (2, 3, 4):
            if size <= 1 << dim:
                family.extend(enumerate_minimal_covers(v, size, alphabet))
        stabilizer = word_stabilizer(v, alphabet)
        classes = dedup_orbits(family, stabilizer)
        assert len(classes) == expected
        for cls in classes:
            trace = extract_word(cls, v, alphabet)
            assert v in replay(cls, trace)
        if dim == 5:
            bundled = {canonical_form(c, stabilizer) for c in small_covers()}
            assert bundled <= set(classes)
            for cls in set(classes) - bundled:
                assert oracle_is_covered(v, cls, alphabet)
    end = replay(small_covers()[1], small_cover_extraction_trace())
    assert (2,) * 5 in end
    report(2, "verified small-cover regression values", True)


def test_criterion_3_special_pair():
    first, second = special_pair()
    alphabet = Alphabet(2)
    ok = (
        len(first) == 12
        and len(second) == 12
        and not twin_pairs(first)
        and not twin_pairs(second)
        and are_disjoint(first, second)
        and are_equivalent(first, second)
        and binary_code_set(first) == binary_code_set(second)
        and common_density(first, second) >= 5
    )
    closed = closure(first, alphabet)
    ok = ok and closed.states == {first} and closed.exhausted
    ok = ok and is_strongly_equivalent(first, second, alphabet) == Verdict.NO
    report(3, "special pair structure", ok)
    assert ok


def test_criterion_4_reference_flip_sequence():
    first, second = example_pair()
    state = first
    ok = True
    for move in example_trace():
        state = apply_flip(state, move)  # raises if any step is illegal
        ok = ok and are_equivalent(state, first)
    ok = ok and state == second
    report(4, "reference flip sequence replay", ok)
    assert ok


def test_criterion_5_oracle_agreement():
    """Weight criterion vs cell enumeration on 1000+ randomized
    instances across dimensions 2-4 and 2-3 letter pairs."""
    rng = Random(20240831)
    total = agree = 0
    cases = [(d, k) for d in (2, 3, 4) for k in (2, 3)]
    while total < 1000:
        for dim, pairs in cases:
            alphabet = Alphabet(pairs)
            roll = rng.random()
            if roll < 0.4:
                code = random_tiling_code(alphabet, dim, rng)
            else:
                code = random_code(
                    alphabet, dim, rng, max_size=rng.randrange(1, 2**dim + 1)
                )
            word = (
                code[rng.randrange(len(code))]
                if roll < 0.2 and code
                else random_word(alphabet, dim, rng)
            )
            agree += is_covered(word, code) == oracle_is_covered(
                word, code, alphabet
            )
            total += 1
            if total >= 1000:
                break
    ok = agree == total
    report(5, f"oracle agreement on {total} instances", ok)
    assert ok


def test_criterion_6_flip_invariants():
    """1000 random flips preserve code-hood, size, binary codes and
    mutual covering, and the inverse flip restores the original."""
    rng = Random(4096)
    done = 0
    while done < 1000:
        dim = rng.choice((2, 3, 4))
        alphabet = Alphabet(rng.choice((2, 3)))
        if rng.random() < 0.5:
            code = random_tiling_code(alphabet, dim, rng)
        else:
            code = random_code(alphabet, dim, rng)
        pairs = twin_pairs(code)
        if not pairs:
            continue
        v, w, direction = pairs[rng.randrange(len(pairs))]
        others = [
            t for t in alphabet.unprimed() if t >> 1 != v[direction] >> 1
        ]
        if not others:
            continue
        move = flip_move(v, w, others[rng.randrange(len(others))])
        flipped = apply_flip(code, move)
        assert is_polybox_code(flipped)
        assert len(flipped) == len(code)
        assert binary_code_set(flipped) == binary_code_set(code)
        assert are_equivalent(flipped, code)
        assert apply_flip(flipped, inverse_flip(move)) == code
        done += 1
    report(6, f"flip invariants on {done} flips", True)


def test_criterion_8_d2_connectivity():
    """Every 2x2 tiling code over two pairs is flip-reachable from the
    simple seed; the census size is a frozen regression value."""
    alphabet = Alphabet(2)
    words = list(itertools.product(alphabet.letters(), repeat=2))
    census = {
        tuple(sorted(combo))
        for combo in itertools.combinations(words, 4)
        if is_polybox_code(combo)
    }
    ok = len(census) == 12
    seed = make_code([(0, 0), (0, 1), (1, 0), (1, 1)])
    closed = closure(seed, alphabet)
    ok = ok and closed.exhausted and closed.states == census
    report(8, "2x2 tiling connectivity, census of 12", ok)
    assert ok


def test_criterion_9_second_code_reconstruction():
    first, second = special_pair()
    alphabet = Alphabet(2)
    partial = first[:-1]
    family = find_second_codes(second, partial, alphabet)
    ok = first in family
    for code in family:
        ok = ok and are_equivalent(code, second)
        ok = ok and density(code, second) >= 5 and density(second, code) >= 5
        ok = ok and set(partial) <= set(code)
    report(9, "second-code reconstruction of the special pair", ok)
    assert ok


@pytest.mark.skipif(not LONG, reason="long job; set POLYBOX_LONG=1 to run (minutes)")
def test_criterion_10_joint_cover_count():
    """Size-8 joint covers of {bbbbb, b'b'b'bb} over three pairs: 64."""
    job = run_job("sabc-partial", long=True)
    report(10, "size-8 joint cover count 64 (long)", job.ok)
    assert job.ok, "\n".join(job.lines)
