"""Shared hypothesis strategies: small alphabets, words and codes."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from polybox.alphabet import Alphabet
from polybox.core import is_dichotomous


@st.composite
def alphabets(draw, max_pairs: int = 3) -> Alphabet:
    return Alphabet(draw(st.integers(min_value=1, max_value=max_pairs)))


@st.composite
def words(draw, alphabet: Alphabet, dim: int):
    return tuple(
        draw(st.integers(min_value=0, max_value=alphabet.size - 1))
        for _ in range(dim)
    )


@st.composite
def word_pairs(draw, max_pairs: int = 3, max_dim: int = 4):
    alphabet = draw(alphabets(max_pairs))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    return alphabet, draw(words(alphabet, dim)), draw(words(alphabet, dim))


@st.composite
def codes_over(draw, alphabet: Alphabet, dim: int, min_size: int = 1):
    """A code of ``dim``-letter words drawn greedily from a shuffled pool,
    then truncated."""
    pool = list(itertools.product(alphabet.letters(), repeat=dim))
    pool = draw(st.permutations(pool))
    want = draw(st.integers(min_value=min_size, max_value=1 << dim))
    chosen: list[tuple[int, ...]] = []
    for q in pool:
        if len(chosen) >= want:
            break
        if all(is_dichotomous(q, v) for v in chosen):
            chosen.append(q)
    return tuple(sorted(chosen))


@st.composite
def codes(draw, max_pairs: int = 3, max_dim: int = 4, min_size: int = 1):
    """A code over a drawn alphabet and dimension (``codes_over``)."""
    alphabet = draw(alphabets(max_pairs))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    return alphabet, draw(codes_over(alphabet, dim, min_size))
