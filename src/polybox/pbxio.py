"""Text formats.

Code files (``.pbx``): UTF-8, ``#`` comment lines, one word per line,
letters ``a``..``h`` with a trailing apostrophe for the complement; every
parser here refuses the joker ``*``.  Dimension comes from the first word
and the alphabet from the letters used.  Codes always serialize in sorted
order.  Families separate codes with ``---`` lines.

Flip traces: one move per line, ``i: v w -> r q`` with 1-based direction
``i``; replaying a trace against its seed code reproduces the recorded
end state exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .alphabet import Alphabet, inferred_alphabet, parse_letter
from .core import Code, Word, format_plain as format_word, make_code
from .moves import FlipMove, flip_move


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def parse_word(text: str, line: int | None = None) -> Word:
    letters = []
    i = 0
    while i < len(text):
        # parse_letter reads the joker, which no stored word holds
        if text[i] == "*":
            raise ParseError("joker not allowed here", line)
        take = 2 if i + 1 < len(text) and text[i + 1] == "'" else 1
        try:
            letters.append(parse_letter(text[i : i + take]))
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
        i += take
    if not letters:
        raise ParseError("empty word", line)
    return tuple(letters)


def format_code(code: Code, header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(format_word(v) for v in sorted(code))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> tuple[Alphabet, Code]:
    words = []
    dim = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = parse_word(line, line=number)
        if dim is None:
            dim = len(word)
        elif len(word) != dim:
            raise ParseError(f"expected {dim} letters, got {len(word)}", number)
        if word in words:
            raise ParseError(f"duplicate word {line}", number)
        words.append(word)
    if not words:
        raise ParseError("no words in file")
    try:
        code = make_code(words)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return inferred_alphabet(code), code


def format_family(family: Iterable[Code]) -> str:
    blocks = [format_code(code).rstrip("\n") for code in family]
    return "\n---\n".join(blocks) + "\n"


def format_trace(trace: Sequence[FlipMove]) -> str:
    lines = []
    for move in trace:
        r, q = move.replacement()
        lines.append(
            f"{move.direction + 1}: {format_word(move.pair[0])} "
            f"{format_word(move.pair[1])} -> {format_word(r)} {format_word(q)}"
        )
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[FlipMove, ...]:
    moves = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, tail = line.split(":", 1)
            direction = int(head) - 1
            before, after = tail.split("->")
            v, w = (parse_word(t, line=number) for t in before.split())
            r, q = (parse_word(t, line=number) for t in after.split())
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad move: {exc}", number) from None
        if len({len(v), len(w), len(r), len(q)}) > 1:
            raise ParseError("words of a move differ in length", number)
        if not 0 <= direction < len(v):
            raise ParseError("direction out of range", number)
        move = flip_move(v, w, r[direction])
        if move.direction != direction:
            raise ParseError("direction does not match the twin pair", number)
        got = set(move.replacement())
        if got != {r, q}:
            raise ParseError("replacement does not match the cut", number)
        moves.append(move)
    return tuple(moves)
