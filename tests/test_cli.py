"""Command-line surface: exit codes, output determinism, file handling."""

import ast
import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polybox.alphabet import Alphabet
from polybox.catalog import example_pair, special_pair
from polybox.core import is_polybox_code
from polybox.cli import main
from polybox.moves import closure
from polybox.pbxio import format_code, parse_code
from polybox.realize import oracle_is_covered
from polybox.repro import JOBS

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "polybox" / "data"


def run(*argv, capsys=None):
    code = main(list(argv))
    return code


@pytest.fixture
def files(tmp_path):
    out = {}
    first, second = example_pair()
    out["example_v"] = tmp_path / "ev.pbx"
    out["example_v"].write_text(format_code(first))
    out["example_w"] = tmp_path / "ew.pbx"
    out["example_w"].write_text(format_code(second))
    sv, sw = special_pair()
    out["special_v"] = tmp_path / "sv.pbx"
    out["special_v"].write_text(format_code(sv))
    out["special_w"] = tmp_path / "sw.pbx"
    out["special_w"].write_text(format_code(sw))
    out["tmp"] = tmp_path
    return out


class TestCheck:
    def test_valid_file(self, files, capsys):
        assert run("check", str(files["special_v"])) == 0
        out = capsys.readouterr().out
        assert "12 words" in out and "twin pairs: 0" in out

    def test_parse_error_exit_2(self, files, capsys):
        bad = files["tmp"] / "bad.pbx"
        bad.write_text("aa\naa\n")
        assert run("check", str(bad)) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert run("check", "/nonexistent.pbx") == 2

    def test_tiling_status(self, files, capsys):
        assert run("check", str(files["example_v"])) == 0
        assert "cube tiling code: True" in capsys.readouterr().out


class TestEquiv:
    def test_equivalent_pair(self, files):
        assert run("equiv", str(files["example_v"]), str(files["example_w"])) == 0

    def test_not_equivalent(self, files, tmp_path):
        single = tmp_path / "s.pbx"
        single.write_text("aa\n")
        assert run("equiv", str(files["example_v"]), str(single)) == 1


class TestStrongEquiv:
    def test_yes_with_replayable_trace(self, files, capsys):
        trace_file = files["tmp"] / "t.trace"
        assert (
            run(
                "strong-equiv",
                str(files["example_v"]),
                str(files["example_w"]),
                "--trace-out",
                str(trace_file),
            )
            == 0
        )
        assert run(
            "replay",
            str(files["example_v"]),
            str(trace_file),
            "--expect",
            str(files["example_w"]),
        ) == 0

    def test_special_pair_no(self, files):
        assert (
            run("strong-equiv", str(files["special_v"]), str(files["special_w"]))
            == 1
        )

    def test_budget_exit_3(self, files):
        assert (
            run(
                "strong-equiv",
                str(files["example_v"]),
                str(files["example_w"]),
                "--budget",
                "2",
            )
            == 3
        )


class TestReplay:
    def test_words_of_unequal_length_exit_2(self, tmp_path, capsys):
        seed = tmp_path / "simple.pbx"
        seed.write_text("aa\naa'\na'a\na'a'\n")
        trace = tmp_path / "short.trace"
        trace.write_text("2: aa aa' -> b b'\n")
        assert run("replay", str(seed), str(trace)) == 2
        assert "line 1: words of a move differ in length" in capsys.readouterr().err


class TestDotCover:
    def test_not_locked(self, capsys):
        assert (
            run("dot-cover", str(DATA / "small_cover_2.pbx"), "--word", "bbbbb") == 1
        )

    def test_locked(self, files):
        assert (
            run("dot-cover", str(files["special_w"]), "--word", "aa'bb'") == 0
        )

    def test_word_over_a_pair_the_file_lacks(self, tmp_path, capsys):
        square = tmp_path / "square.pbx"
        square.write_text("aa\naa'\na'a\na'a'\n")  # one pair, no flip
        assert run("dot-cover", str(square), "--word", "ac", "--threshold", "2") == 0
        assert "locked cover (no flip sequence frees the word): yes" in capsys.readouterr().out
        assert run("dot-cover", str(square), "--word", "ac", "--threshold", "3") == 1

    def test_uncovered_word_is_an_error(self, files):
        assert run("dot-cover", str(files["special_w"]), "--word", "aaaa") == 2

    def test_threshold_below_two_exits_2(self, tmp_path, capsys):
        one = tmp_path / "one.pbx"
        one.write_text("aa\n")
        for threshold in ("1", "0"):
            assert run("dot-cover", str(one), "--word", "aa", "--threshold", threshold) == 2
            captured = capsys.readouterr()
            assert f"lock threshold {threshold} is below 2" in captured.err
            assert "locked cover" not in captured.out


class TestClosure:
    def test_exhausted(self, files, capsys):
        assert run("closure", str(files["example_v"])) == 0
        assert "exhausted: True" in capsys.readouterr().out

    def test_budget_exit_3(self, files):
        assert run("closure", str(files["example_v"]), "--budget", "2") == 3

    def test_family_dump(self, files, capsys):
        out = files["tmp"] / "fam.pbx"
        assert run("closure", str(files["example_v"]), "--out", str(out)) == 0
        alphabet, seed = parse_code(files["example_v"].read_text())
        states = closure(seed, alphabet).sorted_states()
        assert len(states) > 1
        assert [parse_code(block)[1] for block in out.read_text().split("---")] == list(states)

    def test_oversized_word_space_refused(self, tmp_path, capsys):
        # d=5 over five pairs: 10^5 words, one bit each per search state
        path = tmp_path / "e5.pbx"
        path.write_text(format_code(tuple(itertools.product((8, 9), repeat=5))))
        assert run("closure", str(path)) == 2
        assert "flip search too large: 100,000 words (cap 65,536)" in capsys.readouterr().err
        assert run("check", str(path)) == 0
        assert "twin pairs: 80" in capsys.readouterr().out

    def test_memory_hungry_budget_refused(self, tmp_path, capsys):
        # d=6 over three pairs: 5,832 bytes a state, 5.8 GB at the default budget
        path = tmp_path / "c6.pbx"
        path.write_text(format_code(tuple(itertools.product((4, 5), repeat=6))))
        assert run("closure", str(path)) == 2
        assert "need 5,832,000,000 bytes (cap 2,147,483,648)" in capsys.readouterr().err
        assert run("closure", str(path), "--budget", "10") == 3


@pytest.mark.parametrize("command", ["closure", "simplify", "strong-equiv"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_exit_2(files, capsys, command, budget):
    partner = [str(files["example_v"])] if command == "strong-equiv" else []
    argv = [command, *partner, str(files["example_w"]), "--budget", budget]
    assert run(*argv) == 2
    assert "budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["covers", "--word", "bbxbb", "--size", "7", "--pairs", "2"], "not a letter: 'x'"),
    (["dot-cover", "{special_w}", "--word", "a*bb"], "joker not allowed here"),
    (["canon", "{special_w}", "--stabilize", "zz"], "not a letter: 'z'"),
    (
        ["find-second", "{special_w}", "--partial", "{uncovered}"],
        "the partial code must be covered by the known code",
    ),
    (
        ["replay", "{example_v}", "{bad_trace}"],
        "line 1: bad move: invalid literal for int() with base 10: 'x'",
    ),
    (["repro", "sabc-partial"], "job 'sabc-partial' is long-running; pass --long to run it"),
])
def test_validation_errors_exit_2(files, capsys, argv, message):
    # main() reports every ValueError, ParseError included, the same way
    paths = {name: str(path) for name, path in files.items()}
    for name, text in (("uncovered", "aaaa\n"), ("bad_trace", "x: aa aa' -> ab ab'\n")):
        paths[name] = str(files["tmp"] / name)
        (files["tmp"] / name).write_text(text)
    assert run(*[arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("argv, path, reason", [
    (["check", "{data}"], "{data}", "Is a directory"),
    (["replay", "{example_v}", "{tmp}/missing.trace"], "{tmp}/missing.trace", "No such file or directory"),
    (
        ["closure", "{example_v}", "--out", "{tmp}/missing-dir/f.pbx"],
        "{tmp}/missing-dir/f.pbx",
        "No such file or directory",
    ),
])
def test_file_errors_exit_2(files, capsys, argv, path, reason):
    # main() reports every OSError in one line naming the file
    paths = {name: str(path) for name, path in files.items()} | {"data": str(DATA)}
    assert run(*[arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"{path.format(**paths)}: {reason}\n"


class TestCovers:
    def test_class_count(self, capsys):
        assert run("covers", "--word", "bbbbb", "--size", "7", "--pairs", "2") == 0
        assert "classes: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("cursor", ["x", "3", "1,x", "1,2,3", "-1,-5", "0,-1"])
    def test_malformed_resume_cursor_exit_2(self, capsys, cursor):
        argv = ["covers", "--word", "bbbbb", "--size", "7", "--pairs", "2"]
        assert run(*argv, f"--resume={cursor}") == 2
        assert "--resume expects COMPOSITION,SEED" in capsys.readouterr().err

    def test_resume_refused_with_twin_pairs(self, capsys):
        # the direct enumeration has no cursor; it would list every cover
        argv = ["covers", "--word", "bbbbb", "--size", "7", "--pairs", "2", "--twin-pairs"]
        assert run(*argv, "--resume", "99,0") == 2
        err = capsys.readouterr().err
        assert "--resume applies to the seeded enumeration" in err

    def test_resumed_run_counts_the_rest(self, capsys):
        argv = ["covers", "--word", "bbbbb", "--size", "7", "--pairs", "2"]
        assert run(*argv, "--resume", "99,0") == 0
        assert "raw covers: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_one_dimensional_twin_pair_covers(self, capsys, pairs):
        """At d=1 over two pairs no pool word holds b; the count is the
        oracle's over every two-word code of the other letters."""
        alphabet = Alphabet(pairs)
        argv = ["covers", "--word", "b", "--size", "2", "--pairs", str(pairs), "--twin-pairs"]
        assert run(*argv) == 0
        expected = sum(
            oracle_is_covered((2,), pair, alphabet)
            for pair in itertools.combinations([(s,) for s in alphabet.letters() if s != 2], 2)
            if is_polybox_code(pair)
        )
        assert expected == pairs - 1
        assert f"raw covers: {expected}\n" in capsys.readouterr().out

    def test_oversized_pool_refused(self, capsys):
        # 5**7 - 1 words: two tables of 78,124-bit rows, about 1.5 GB; with
        # twin pairs allowed no seeds are needed, so the pool is reached
        assert run(
            "covers", "--word", "bbbbbbb", "--size", "9", "--pairs", "3", "--twin-pairs"
        ) == 2
        err = capsys.readouterr().err
        assert "cover pool too large" in err
        assert "1,525,917,968 bytes" in err


class TestCanon:
    def test_stabilized_canonical_form(self, files, capsys):
        assert (
            run(
                "canon",
                str(DATA / "small_cover_1.pbx"),
                "--stabilize",
                "bbbbb",
            )
            == 0
        )
        assert "canonical" in capsys.readouterr().out

    def test_stabilized_large_word_space(self, tmp_path, capsys):
        # 6**8 words over three pairs; the orbit of the one word is itself,
        # so the walk meets one word, whatever the size of the word space
        single = tmp_path / "single.pbx"
        single.write_text("bbbbbbbb\n")
        start = time.perf_counter()
        assert run("canon", str(single), "--pairs", "3", "--stabilize", "bbbbbbbb") == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out.splitlines()[-1] == "bbbbbbbb"

    @pytest.mark.parametrize("code, word", [("aaaaab\n", "cccccc"), ("aa\na'b\n", "cc")])
    def test_stabilized_word_outside_the_alphabet(self, tmp_path, capsys, code, word):
        path = tmp_path / "code.pbx"
        path.write_text(code)
        assert run("canon", str(path), "--stabilize", word) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "letter c of the stabilized word is outside the alphabet of 2 pairs" in err


class TestFindSecond:
    def test_reconstruction(self, files, capsys):
        sv, _ = special_pair()
        partial = files["tmp"] / "partial.pbx"
        partial.write_text(format_code(sv[:-1]))
        assert (
            run("find-second", str(files["special_w"]), "--partial", str(partial))
            == 0
        )
        assert "codes found: 1" in capsys.readouterr().out


class TestSimplify:
    def test_simplifies_with_trace(self, files, capsys):
        trace_file = files["tmp"] / "s.trace"
        assert (
            run(
                "simplify",
                str(files["example_w"]),
                "--trace-out",
                str(trace_file),
            )
            == 0
        )
        assert trace_file.exists()

    def test_non_tiling_rejected(self, files, capsys):
        assert run("simplify", str(files["special_v"])) == 2
        assert "applies to cube tiling codes" in capsys.readouterr().err


class TestCatalogCommand:
    def test_listing(self, capsys):
        assert run("catalog") == 0
        out = capsys.readouterr().out
        assert "special-pair" in out and "example-flip" in out

    def test_dump(self, tmp_path, capsys):
        assert run("catalog", "special-pair", "--out", str(tmp_path / "d")) == 0
        assert (tmp_path / "d" / "special-pair-0.pbx").exists()


class TestRepro:
    def test_example_job(self, capsys):
        assert run("repro", "example1") == 0
        assert "PASS" in capsys.readouterr().out

    def test_small_cover_job(self, capsys):
        assert run("repro", "lemma4") == 0
        assert "expected 6 computed 6 [ok]" in capsys.readouterr().out

    def test_connectivity_job(self, capsys):
        assert run("repro", "connectivity") == 0
        out = capsys.readouterr().out
        assert "expected 744 computed 744 [ok]" in out
        assert "expected 17793 computed 17793 [ok]" in out
        assert "expected 152128 computed 152128 [ok]" in out
        assert "closure of the simple seed is the census, 4 pairs: expected True" in out
        assert "connectivity: PASS" in out

    def test_d2_connectivity_job(self, capsys):
        assert run("repro", "d2-connectivity") == 0
        out = capsys.readouterr().out
        assert "expected 12 computed 12 [ok]" in out
        assert "d2-connectivity: PASS" in out

    def test_long_only_guard(self, capsys):
        assert run("repro", "sabc-partial") == 2
        assert "--long" in capsys.readouterr().err

    def test_retired_job_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("repro", "cover-bound-soundness")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_readme_lists_exactly_the_jobs(self):
        text = (ROOT / "README.md").read_text()
        section = text.split("### Reproduction jobs", 1)[1].split("\n#", 1)[0]
        listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
        assert listed == list(JOBS)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polybox.cli", "repro", "example1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_imports_only_the_standard_library():
    # every polybox process, each CLI call included, pays for what this
    # import loads; a third-party array library once cost about 170 ms here
    script = (
        "import sys; before = set(sys.modules); import polybox.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'polybox'}))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_modules_load_every_name_they_import():
    # an import nothing reads is a dependency only in appearance
    unused = []
    for path in sorted(DATA.parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in loaded
        ]
    assert not unused, "imported but never loaded:\n" + "\n".join(unused)


# reachable only from tests, each kept on purpose, a method as
# ``Class.method``.  The guard below matches bare names, so it has a blind
# spot: a same-named function defined in ``bench/``, or an attribute read
# such as ``checks.tiling_codes``, counts as a reference.  That is how ``search.tiling_codes`` stayed
# unflagged while only tests called it, since ``bench/checks.py`` defines
# and calls a ``tiling_codes`` of its own.
TEST_ONLY_NAMES = {
    "Group.elements": "the brute-force element enumerator the walk tests compare against",
    "inverse_flip": "the acceptance tests undo every flip with it",
    "is_polybox_code": "the acceptance tests' validity predicate for codes",
    "oracle_meet_count": "the realization oracle's slow twin of core.density",
}


def _uses(node, local):
    """Names the node loads, reads as attributes or imports, leaving out a
    name loaded where an enclosing function binds it: that reads the local,
    not the module-level name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | {
            sub.arg if isinstance(sub, ast.arg) else sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.arg) or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        }
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        used = set() if node.id in local else {node.id}
    elif isinstance(node, ast.Attribute):
        used = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        used = {alias.name for alias in node.names}
    else:
        used = set()
    for child in ast.iter_child_nodes(node):
        used |= _uses(child, local)
    return used


def test_every_public_name_is_referenced():
    # a public function or class, or a public method of a class in
    # ``src/``, that nothing but its tests reaches is surface to maintain
    # without a user; delete it or list it above.  A method counts as
    # reached when any attribute read names it.
    paths = sorted(DATA.parent.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    defined, referenced = [], set()  # (listed name, name, where)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = lambda node: f"{path.parent.name}/{path.name}:{node.lineno}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((node.name, node.name, where(node)))
            if isinstance(node, ast.ClassDef) and path.parent == DATA.parent:
                defined += [
                    (f"{node.name}.{sub.name}", sub.name, where(sub))
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
        if path.name == "__init__.py":
            continue  # a re-export is not a use
        referenced |= _uses(tree, frozenset())
    unreached = [(listed, where) for listed, name, where in defined if name not in referenced]
    unused = sorted(
        f"{where}: {listed}" for listed, where in unreached if listed not in TEST_ONLY_NAMES
    )
    assert not unused, "referenced by nothing outside the tests:\n" + "\n".join(unused)
    stale = TEST_ONLY_NAMES.keys() - {listed for listed, _ in unreached}
    assert not stale, f"gone, or referenced now, so no longer test-only: {sorted(stale)}"
