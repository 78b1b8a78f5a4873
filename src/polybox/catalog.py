"""Bundled reference codes and traces.

Everything here is validated on load: codes must parse as polybox codes,
and the special pair additionally passes twin-pair-freeness, disjointness
and mutual covering in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .core import Code
from .moves import FlipMove
from .pbxio import parse_code, parse_trace


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    codes: tuple[Code, ...]
    traces: tuple[tuple[FlipMove, ...], ...]
    provenance: str


def _read(name: str) -> str:
    return (resources.files(__package__) / "data" / name).read_text()


def _code(name: str) -> Code:
    return parse_code(_read(name))[1]


@lru_cache(maxsize=1)
def entries() -> dict[str, CatalogEntry]:
    catalog = {}
    catalog["special-pair"] = CatalogEntry(
        name="special-pair",
        codes=(_code("special_v.pbx"), _code("special_w.pbx")),
        traces=(),
        provenance=(
            "the unique twin-pair-free pair of disjoint equivalent codes "
            "with at most 16 words in dimension at most six (12 words, d=4)"
        ),
    )
    catalog["small-covers"] = CatalogEntry(
        name="small-covers",
        codes=tuple(_code(f"small_cover_{i}.pbx") for i in range(1, 5)),
        traces=(parse_trace(_read("small_cover_2_extraction.trace")),),
        provenance=(
            "the isomorphism classes of minimal covers of bbbbb with two to "
            "four words that span at most two positions (complete in dimension "
            "two; two more, spanning three positions, exist from dimension "
            "three on), plus a flip trace extracting bbbbb from class 2"
        ),
    )
    catalog["example-flip"] = CatalogEntry(
        name="example-flip",
        codes=(_code("example_v.pbx"), _code("example_w.pbx")),
        traces=(parse_trace(_read("example_flips.trace")),),
        provenance="reference four-flip sequence between 2x2 tiling codes",
    )
    return catalog


def entry(name: str) -> CatalogEntry:
    try:
        return entries()[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; have {sorted(entries())}"
        ) from None


def special_pair() -> tuple[Code, Code]:
    e = entry("special-pair")
    return e.codes[0], e.codes[1]


def small_covers() -> tuple[Code, ...]:
    return entry("small-covers").codes


def small_cover_extraction_trace() -> tuple[FlipMove, ...]:
    return entry("small-covers").traces[0]


def example_pair() -> tuple[Code, Code]:
    e = entry("example-flip")
    return e.codes[0], e.codes[1]


def example_trace() -> tuple[FlipMove, ...]:
    return entry("example-flip").traces[0]

