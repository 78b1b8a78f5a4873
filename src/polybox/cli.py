"""Command-line interface.

Exit codes: 0 success / yes, 1 no / mismatch, 2 usage, validation or file
error, 3 search budget exceeded.  All output is deterministic and codes
are always printed in sorted order.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .alphabet import Alphabet
from .catalog import entries
from .core import (
    cover_weight,
    distribution,
    flat_witness,
    is_covered,
    is_cube_tiling_code,
    is_simple,
    are_equivalent,
    are_disjoint,
)
from .iso import Group, canonical_form, dedup_orbits, greedy_relabel, word_stabilizer
from .moves import (
    DEFAULT_STATE_BUDGET,
    Verdict,
    closure,
    find_flip_path,
    is_locked_cover,
    replay,
    simplify_tiling,
    twin_pairs,
)
from .pbxio import (
    ParseError,
    format_code,
    format_family,
    format_trace,
    format_word,
    parse_code,
    parse_trace,
    parse_word,
)
from .repro import JOBS, run_job
from .search import cover_word, enumerate_minimal_covers, find_second_codes

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _load(path: str, pairs: int | None = None):
    try:
        alphabet, code = parse_code(Path(path).read_text())
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    if pairs is not None:
        if pairs < alphabet.pair_count:
            print(
                f"{path}: uses more letter pairs than --pairs {pairs}",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_ERROR)
        alphabet = Alphabet(pairs)
    return alphabet, code


def _verdict_exit(verdict: Verdict) -> int:
    return {Verdict.YES: EXIT_YES, Verdict.NO: EXIT_NO, Verdict.EXCEEDED: EXIT_BUDGET}[
        verdict
    ]


def cmd_check(args) -> int:
    alphabet, code = _load(args.file)
    dim = len(code[0])
    print(f"valid polybox code: {len(code)} words, dimension {dim}, "
          f"{alphabet.pair_count} letter pairs")
    pairs = twin_pairs(code)
    print(f"twin pairs: {len(pairs)}")
    for v, w, direction in pairs:
        print(f"  {format_word(v)} {format_word(w)} (direction {direction + 1})")
    for i in range(dim):
        print(f"distribution at position {i + 1}: {distribution(code, i, alphabet)}")
    print(f"simple: {is_simple(code)}")
    witness = flat_witness(code)
    print(f"flat: {witness is not None}" + (
        f" (position {witness[0] + 1})" if witness else ""))
    print(f"cube tiling code: {is_cube_tiling_code(code)}")
    return EXIT_YES


def cmd_equiv(args) -> int:
    _, first = _load(args.file_a)
    _, second = _load(args.file_b)
    if len(first[0]) != len(second[0]):
        print("dimension mismatch", file=sys.stderr)
        return EXIT_ERROR
    if are_equivalent(first, second):
        print("equivalent (mutually covering);"
              f" disjoint: {are_disjoint(first, second)}")
        return EXIT_YES
    print("not equivalent")
    return EXIT_NO


def cmd_strong_equiv(args) -> int:
    alphabet_a, first = _load(args.file_a, args.pairs)
    alphabet_b, second = _load(args.file_b, args.pairs)
    alphabet = Alphabet(max(alphabet_a.pair_count, alphabet_b.pair_count))
    if not are_equivalent(first, second):
        print("inputs are not equivalent", file=sys.stderr)
        return EXIT_ERROR
    verdict, trace = find_flip_path(first, second, alphabet, args.budget)
    print(f"strongly equivalent: {verdict.value}")
    if verdict == Verdict.YES and trace:
        text = format_trace(trace)
        if args.trace_out:
            Path(args.trace_out).write_text(text)
            print(f"trace written to {args.trace_out} ({len(trace)} moves)")
        else:
            print(text, end="")
    return _verdict_exit(verdict)


def cmd_dot_cover(args) -> int:
    alphabet, code = _load(args.file, args.pairs)
    word = parse_word(args.word)
    if not is_covered(word, code):
        print(f"{args.word} is not covered (weight {cover_weight(word, code)} "
              f"of {1 << len(word)})", file=sys.stderr)
        return EXIT_ERROR
    verdict = is_locked_cover(word, code, alphabet, args.threshold, args.budget)
    print(f"locked cover (no flip sequence frees the word): {verdict.value}")
    return _verdict_exit(verdict)


def cmd_closure(args) -> int:
    alphabet, code = _load(args.file, args.pairs)
    result = closure(code, alphabet, args.budget)
    print(f"states: {len(result.packed)}")
    print(f"exhausted: {result.exhausted}")
    if not result.exhausted:
        print(f"frontier left: {result.frontier_count}")
    if args.out:
        Path(args.out).write_text(format_family(result.sorted_states()))
        print(f"family written to {args.out}")
    return EXIT_YES if result.exhausted else EXIT_BUDGET


def cmd_canon(args) -> int:
    alphabet, code = _load(args.file, args.pairs)
    if args.stabilize:
        group = word_stabilizer(parse_word(args.stabilize), alphabet)
        canonical = canonical_form(code, group)
        print(format_code(canonical, header="canonical under the word stabilizer"),
              end="")
    elif alphabet.pair_count <= 2:
        canonical = canonical_form(code, Group(alphabet, len(code[0])))
        print(format_code(canonical, header="canonical under the full group"), end="")
    else:
        canonical = greedy_relabel(code)
        print(format_code(
            canonical,
            header="greedy relabelling; NOT guaranteed canonical for >2 pairs",
        ), end="")
    return EXIT_YES


def cmd_covers(args) -> int:
    word = parse_word(args.word)
    alphabet = Alphabet(args.pairs)
    resume = None
    if args.resume:
        if args.twin_pairs:
            print("--resume applies to the seeded enumeration, not --twin-pairs",
                  file=sys.stderr)
            return EXIT_ERROR
        try:
            resume = tuple(int(part) for part in args.resume.split(","))
        except ValueError:
            resume = ()
        if len(resume) != 2 or min(resume) < 0:
            print("--resume expects COMPOSITION,SEED, two non-negative integers",
                  file=sys.stderr)
            return EXIT_ERROR
    if args.twin_pairs:
        family = enumerate_minimal_covers(word, args.size, alphabet)
    else:
        family = cover_word(word, args.size, alphabet, resume=resume)
    stabilizer = word_stabilizer(word, alphabet)
    classes = dedup_orbits(family, stabilizer)
    print(f"raw covers: {len(family)}")
    print(f"classes: {len(classes)}")
    if args.out:
        Path(args.out).write_text(format_family(classes))
        print(f"class representatives written to {args.out}")
    return EXIT_YES


def cmd_find_second(args) -> int:
    alphabet_w, known = _load(args.file_w, args.pairs)
    _, partial = _load(args.partial)
    family = find_second_codes(known, partial, alphabet_w, args.min_density)
    print(f"codes found: {len(family)}")
    if family:
        print(format_family(family), end="")
    return EXIT_YES if family else EXIT_NO


def cmd_simplify(args) -> int:
    alphabet, code = _load(args.file, args.pairs)
    result = simplify_tiling(code, alphabet, args.budget)
    print(f"simplified: {result.verdict.value}")
    if result.verdict == Verdict.YES:
        assert result.code is not None
        print(format_code(result.code, header="simple code"), end="")
        if args.trace_out:
            Path(args.trace_out).write_text(format_trace(result.trace))
            print(f"trace written to {args.trace_out} ({len(result.trace)} moves)")
    return _verdict_exit(result.verdict)


def cmd_replay(args) -> int:
    _, code = _load(args.seed)
    trace = parse_trace(Path(args.trace).read_text())
    end = replay(code, trace)
    print(format_code(end, header=f"after {len(trace)} moves"), end="")
    if args.expect:
        _, expected = _load(args.expect)
        if end != expected:
            print("end state does NOT match the expected code", file=sys.stderr)
            return EXIT_NO
        print("end state matches the expected code")
    return EXIT_YES


def cmd_catalog(args) -> int:
    if args.name:
        if args.name not in entries():
            print(f"unknown entry {args.name!r}; have {sorted(entries())}",
                  file=sys.stderr)
            return EXIT_ERROR
        chosen = [entries()[args.name]]
    else:
        chosen = [entries()[k] for k in sorted(entries())]
    for entry in chosen:
        print(f"{entry.name}: {entry.provenance}")
        for i, code in enumerate(entry.codes):
            print(f"  code {i}: {len(code)} words, dimension {len(code[0])}")
        for i, trace in enumerate(entry.traces):
            print(f"  trace {i}: {len(trace)} moves")
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for i, code in enumerate(entry.codes):
                (out_dir / f"{entry.name}-{i}.pbx").write_text(format_code(code))
            for i, trace in enumerate(entry.traces):
                (out_dir / f"{entry.name}-{i}.trace").write_text(format_trace(trace))
    if args.out:
        print(f"files written to {args.out}")
    return EXIT_YES


def cmd_repro(args) -> int:
    start = time.perf_counter()
    report = run_job(args.job, long=args.long)
    elapsed = time.perf_counter() - start
    for line in report.lines:
        print(line)
    print(f"{report.name}: {'PASS' if report.ok else 'FAIL'} ({elapsed:.1f} s)")
    return EXIT_YES if report.ok else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybox",
        description="polybox and cube tiling codes: covers, flips, enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                       help="flip-search state budget")

    def add_pairs(p):
        p.add_argument("--pairs", type=int, default=None,
                       help="force the alphabet to this many letter pairs")

    p = sub.add_parser("check", help="validate a .pbx file and describe the code")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("equiv", help="mutual covering of two codes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("strong-equiv", help="flip reachability between equivalent codes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--trace-out", help="write the flip trace here")
    add_budget(p)
    add_pairs(p)
    p.set_defaults(fn=cmd_strong_equiv)

    p = sub.add_parser("dot-cover", help="can flips ever free a covered word?")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--threshold", type=int, default=5,
                   help="density below which the word counts as freeable")
    add_budget(p)
    add_pairs(p)
    p.set_defaults(fn=cmd_dot_cover)

    p = sub.add_parser("closure", help="all codes reachable by flips")
    p.add_argument("file")
    p.add_argument("--out", help="write the reachable family here")
    add_budget(p)
    add_pairs(p)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("canon", help="canonical form under a group")
    p.add_argument("file")
    p.add_argument("--stabilize", metavar="WORD",
                   help="canonicalize under the stabilizer of this word")
    add_pairs(p)
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("covers", help="minimal covers of a constant word")
    p.add_argument("--word", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--twin-pairs", action="store_true",
                   help="allow twin pairs (direct enumeration)")
    p.add_argument("--resume", metavar="COMPOSITION,SEED",
                   help="resume cursor for interrupted long seeded enumerations")
    p.add_argument("--out", help="write class representatives here")
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("find-second", help="rebuild equivalent codes from a fragment")
    p.add_argument("file_w")
    p.add_argument("--partial", required=True)
    p.add_argument("--min-density", type=int, default=5)
    add_pairs(p)
    p.set_defaults(fn=cmd_find_second)

    p = sub.add_parser("simplify", help="flip a cube tiling code into a simple one")
    p.add_argument("file")
    p.add_argument("--trace-out", help="write the flip trace here")
    add_budget(p)
    add_pairs(p)
    p.set_defaults(fn=cmd_simplify)

    p = sub.add_parser("replay", help="apply a recorded flip trace to a seed code")
    p.add_argument("seed")
    p.add_argument("trace")
    p.add_argument("--expect", help="compare the end state against this code")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("catalog", help="bundled reference codes and traces")
    p.add_argument("name", nargs="?")
    p.add_argument("--out", help="dump the entry's files into this directory")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("repro", help="reference-value reproduction jobs")
    p.add_argument("job", choices=sorted(JOBS))
    p.add_argument("--long", action="store_true",
                   help="also run the long variants")
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        return exc.code if exc.code is not None else EXIT_ERROR
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # a file, or a closed pipe, which has no name
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"{where}{exc.strerror}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
