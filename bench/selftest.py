"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one round of every workload in this process, confirms that its
check accepts the real output, then feeds the check wrong outputs made
from it and confirms that each is rejected.  Exits 1 if any check accepts
a wrong output or rejects the real one.  Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from worker import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def classify_wrongs(classes):
    yield "a family with one class dropped", {**classes, 10: classes[10][1:]}


def joint_wrongs(output):
    enumerated, kept, joint = output
    yield "a joint cover missing a word", (enumerated, kept, (joint[0][1:],) + joint[1:])


def flip_wrongs(output):
    full, traces, budgeted = output
    missing = dataclasses.replace(full, states=full.states - {min(full.states)})
    yield "a closure missing one state", (missing, traces, budgeted)
    cut = list(traces)
    longest = max(range(len(cut)), key=lambda i: len(cut[i]))
    cut[longest] = cut[longest][:-1]
    yield "an extraction trace that does not reach bbbbb", (full, cut, budgeted)


def fuzz_wrongs(instances):
    kind, max_size, code, questions = instances[0]
    (word, weight, oracle), *rest = questions
    negated = (kind, max_size, code, [(word, not weight, oracle), *rest])
    yield "a fuzz answer with the weight verdict negated", [negated, *instances[1:]]


WRONGS = {"classify": classify_wrongs, "joint": joint_wrongs, "flip": flip_wrongs, "fuzz": fuzz_wrongs}


def main() -> int:
    raw = {name: importlib.import_module(f"polybox.{name}") for name in MODULES}
    bad = 0
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(0, raw)
        output = workload.run(raw)
        errors, _, _ = workload.check(output, raw)
        print(f"{name}: real output {'REJECTED' if errors else 'accepted'}")
        bad += bool(errors)
        for label, wrong in WRONGS[name](output):
            errors, _, _ = workload.check(wrong, raw)
            print(f"{name}: {label}: {'rejected' if errors else 'ACCEPTED'}")
            bad += not errors
    print("all checks behave" if not bad else f"{bad} checks misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
