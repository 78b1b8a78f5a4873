"""Polybox codes and cube tiling codes.

Core objects are plain tuples: a word is a tuple of integer letters, a
code a sorted tuple of words.  See :mod:`polybox.core` for predicates,
:mod:`polybox.moves` for the flip calculus, :mod:`polybox.iso` for
isomorphisms, :mod:`polybox.search` for enumeration and
:mod:`polybox.catalog` for bundled reference data.
"""

from .alphabet import Alphabet, STAR, inferred_alphabet
from .core import (
    Code,
    Word,
    are_disjoint,
    are_equivalent,
    binary_code,
    binary_code_set,
    code_covered,
    common_density,
    cover_weight,
    density,
    distribution,
    flat_witness,
    is_covered,
    is_cube_tiling_code,
    is_dichotomous,
    is_polybox_code,
    is_simple,
    make_code,
    overlap_weight,
    twin_pair_direction,
)
from .moves import (
    ClosureResult,
    FlipMove,
    Verdict,
    apply_flip,
    closure,
    cut,
    extract_word,
    flip_move,
    glue,
    is_locked_cover,
    is_strongly_equivalent,
    neighbors,
    replay,
    simplify_tiling,
)
from .realize import oracle_is_covered

__all__ = [name for name in dir() if not name.startswith("_")]
