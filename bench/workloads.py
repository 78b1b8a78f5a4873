"""The four workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
computes in ``run`` (the timed round) and judges a round's output in
``check``, which returns the errors, the operations attempted and the
operations failed.  ``layers`` gives the per-layer values a traced run
reads from a round's output.  ``__init__`` and ``run`` reach polybox
through the module mapping they are given, so that a traced run can hand
them traced layers.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import polybox

import checks

B = checks.B
ANCHOR = (B,) * 5
ORACLE_FUZZ_SEED = 20240831  # the code stream of ``polybox repro oracle-fuzz``


def relabelling(dim: int, pairs: int, rng: Random):
    """A random isomorphism: a position permutation and, per position, a
    complement-respecting letter bijection."""
    sigma = rng.sample(range(dim), dim)
    maps = []
    for _ in range(dim):
        perm = rng.sample(range(pairs), pairs)
        m = [0] * (2 * pairs)
        for p in range(pairs):
            m[2 * p] = 2 * perm[p] + rng.randrange(2)
            m[2 * p + 1] = m[2 * p] ^ 1
        maps.append(m)
    return lambda w: tuple(maps[i][w[sigma[i]]] for i in range(dim))


def random_tiling(dim: int, pairs: int, rng: Random):
    """A cube tiling code by randomized backtracking (light-tailed for d=3)."""
    pool = list(itertools.product(range(2 * pairs), repeat=dim))
    rng.shuffle(pool)
    chosen: list = []

    def rec(start: int) -> bool:
        if len(chosen) == 1 << dim:
            return True
        for i in range(start, len(pool)):
            if all(checks.dichotomous(pool[i], v) for v in chosen):
                chosen.append(pool[i])
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    rec(0)
    return tuple(sorted(chosen))


class Classify:
    """Twin-pair-free minimal covers of bbbbb over two pairs, sizes 5-10,
    reduced to isomorphism classes.  The seed relabels every family by one
    random isomorphism, so the orbits walked are those of its image of
    bbbbb; their sizes, and so the work, do not depend on it."""

    sizes = range(5, 11)

    def __init__(self, seed: int, mods: dict) -> None:
        self.alphabet = mods["alphabet"].Alphabet(2)
        mods["search"]._cover_pool(2, 5)  # cached: its build falls in set-up
        self.relabel = relabelling(5, 2, Random(seed))
        self.anchor = self.relabel(ANCHOR)

    def run(self, mods: dict):
        search, iso = mods["search"], mods["iso"]
        classes = {}
        for size in self.sizes:
            family = search.cover_word(ANCHOR, size, self.alphabet)
            image = [tuple(sorted(map(self.relabel, c))) for c in family]
            # a fresh group each time: Group.orbit caches word images
            stabilizer = iso.word_stabilizer(self.anchor, self.alphabet)
            classes[size] = iso.dedup_orbits(image, stabilizer)
        return classes

    def check(self, classes, mods: dict):
        oracle = mods["realize"].oracle_is_covered
        errors = checks.check_classify(classes, self.anchor, self.alphabet, oracle)
        return errors, len(self.sizes), 0

    def layers(self, classes, raw: dict) -> dict:
        return {}


class Joint:
    """Twin-free minimal covers of bbbbb over three pairs, sizes 5-7, kept
    only when they can join with a cover of a second anchor word into eight
    words; mirrored onto that word and joined.  The seed picks the three
    positions where the second anchor carries b'."""

    sizes = (5, 6, 7)

    def __init__(self, seed: int, mods: dict) -> None:
        self.alphabet = mods["alphabet"].Alphabet(3)
        mods["search"]._cover_pool(3, 5)  # cached: its build falls in set-up
        self.positions = frozenset(Random(seed).sample(range(5), 3))
        self.second = tuple(B ^ 1 if i in self.positions else B for i in range(5))

    def run(self, mods: dict):
        search = mods["search"]
        enumerated = 0

        def keep(cover) -> bool:
            nonlocal enumerated
            enumerated += 1
            return checks.bridge_ok(cover, self.second)

        kept = []
        for size in self.sizes:
            kept.extend(search.enumerate_minimal_covers(
                ANCHOR, size, self.alphabet, twin_free=True, keep=keep
            ))
        mirrored = [checks.mirror(c, self.positions) for c in kept]
        joint = search.cover_code(
            (ANCHOR, self.second), 8, {ANCHOR: kept, self.second: mirrored}
        )
        return enumerated, kept, tuple(c for c in joint if len(c) == 8)

    def check(self, output, mods: dict):
        _, kept, joint = output
        errors = checks.check_joint(
            kept, joint, ANCHOR, self.second, self.alphabet, mods["realize"].oracle_is_covered
        )
        return errors, len(self.sizes) + 1, 0

    def layers(self, output, raw: dict) -> dict:
        enumerated, kept, _ = output
        return {"search.covers_enumerated": enumerated, "search.covers_kept": len(kept)}


SMALL_COVERS = """
import json
from polybox.alphabet import Alphabet
from polybox.search import enumerate_minimal_covers
print(json.dumps([c for n in (2, 3, 4) for c in enumerate_minimal_covers((2,) * 5, n, Alphabet(3))]))
"""


class Flip:
    """Exhaustive flip closure of a random d=3 cube tiling code over three
    pairs (every one of them reaches all 17,793); extraction of bbbbb from
    each of the 2,690 minimal covers of 2-4 words over three pairs, in a
    seeded order; and a closure of the simple d=4 code over two pairs under
    a 30,000-state budget.  The budgeted closure returns one state too many,
    on every seed: the one operation counted as failed.

    The covers are enumerated in a process of their own (``SMALL_COVERS``):
    the three-pair pool build peaks near 150 MB, well above the closures,
    and would set this process's peak memory."""

    budget = 30000

    def __init__(self, seed: int, mods: dict) -> None:
        rng = Random(seed)
        self.three, self.two = mods["alphabet"].Alphabet(3), mods["alphabet"].Alphabet(2)
        self.start = random_tiling(3, 3, rng)
        env = dict(os.environ, PYTHONPATH=str(Path(polybox.__file__).parents[1]))
        found = subprocess.run(
            [sys.executable, "-c", SMALL_COVERS], env=env, stdout=subprocess.PIPE, check=True
        ).stdout
        self.covers = [tuple(map(tuple, c)) for c in json.loads(found)]
        rng.shuffle(self.covers)
        self.simple = tuple(sorted(itertools.product((0, 1), repeat=4)))

    def run(self, mods: dict):
        moves = mods["moves"]
        full = moves.closure(self.start, self.three)
        traces = [moves.extract_word(c, ANCHOR, self.three) for c in self.covers]
        budgeted = moves.closure(self.simple, self.two, state_budget=self.budget)
        return full, traces, budgeted

    def check(self, output, mods: dict):
        full, traces, budgeted = output
        neighbors = lambda state: mods["moves"].neighbors(state, self.three)
        errors = checks.check_closure(full, self.start, neighbors)
        errors += checks.check_extractions(self.covers, traces, ANCHOR)
        budget_errors, within = checks.check_budgeted_closure(budgeted, self.simple, self.budget)
        return errors + budget_errors, len(self.covers) + 2, 0 if within else 1

    def layers(self, output, raw: dict) -> dict:
        full, traces, budgeted = output
        return {
            "moves.closure_states": len(full.states) + len(budgeted.states),
            "moves.extractions": len(traces),
            "moves.trace_moves": sum(map(len, traces)),
            "moves.budget_overshoot": max(0, len(budgeted.states) - self.budget),
        }


class Fuzz:
    """The 1,000 instances of ``repro oracle-fuzz``: random codes and cube
    tiling codes for d in {2, 3, 4} and k in {2, 3}, each with a word to
    ask about, drawn from that job's fixed stream.  Each code is asked
    about one more word, drawn from the seed.  Every question is answered
    by the weight criterion and by the realization oracle.

    The codes cannot follow the seed: ``random_tiling_code`` backtracks
    without restarts, and its run time at d=4 is heavy-tailed (1,000
    instances take from 3 s to over 100 s, by seed)."""

    instances = 1000
    cases = [(d, k) for d in (2, 3, 4) for k in (2, 3)]

    def __init__(self, seed: int, mods: dict) -> None:
        self.seed = seed
        self.alphabets = {k: mods["alphabet"].Alphabet(k) for k in (2, 3)}

    def run(self, mods: dict):
        sampling, core, realize = mods["sampling"], mods["core"], mods["realize"]
        rng, seeded = Random(ORACLE_FUZZ_SEED), Random(self.seed)
        out = []
        for dim, pairs in itertools.islice(itertools.cycle(self.cases), self.instances):
            alphabet = self.alphabets[pairs]
            max_size = None
            roll = rng.random()
            if roll < 0.4:
                code = sampling.random_tiling_code(alphabet, dim, rng)
            else:
                max_size = rng.randrange(1, 2**dim + 1)
                code = sampling.random_code(alphabet, dim, rng, max_size=max_size)
            if roll < 0.2:
                word = code[rng.randrange(len(code))]
            else:
                word = sampling.random_word(alphabet, dim, rng)
            questions = []
            for w in (word, sampling.random_word(alphabet, dim, seeded)):
                questions.append((
                    w, core.is_covered(w, code), realize.oracle_is_covered(w, code, alphabet)
                ))
            out.append(("code" if max_size else "tiling", max_size, code, questions))
        return out

    def check(self, instances, mods: dict):
        return checks.check_fuzz(instances), 2 * len(instances), 0

    def layers(self, instances, raw: dict) -> dict:
        """Codes generated, and the per-call time of ``core.is_dichotomous``
        over every ordered word pair of every code."""
        pairs = [(v, w) for _, _, code, _ in instances for v in code for w in code]
        test = raw["core"].is_dichotomous
        start = time.perf_counter()
        for v, w in pairs:
            test(v, w)
        ns = (time.perf_counter() - start) * 1e9 / len(pairs)
        return {"sampling.codes": len(instances), "core.is_dichotomous_ns": ns}


WORKLOADS = {"classify": Classify, "joint": Joint, "flip": Flip, "fuzz": Fuzz}
