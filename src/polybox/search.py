"""Enumeration and reconstruction of covers.

The workhorses:

* ``cover_word`` builds the twin-pair-free minimal covers of the constant
  word ``b...b`` of a given size.  Every such cover contains a pair of
  words that agree or are complementary at every position (complementary
  at an odd number of at least three of them), and cover words never carry
  the complement of ``b``, so each word contributes a power-of-two weight
  given by its count of ``b``-s.  The enumeration therefore runs over
  weight compositions and seeds each with one of the standard pairs, as
  given: a position permutation fixes ``b...b``, so covers through a
  permuted seed are images of covers through the seed itself and add no
  class.  Each search grows the cover in two phases.  Pairwise
  dichotomous words have disjoint boxes, so a cover is an exact tiling of
  the cells of the box of ``b...b``.
  Every level but the lightest is grown heaviest first over precomputed
  compatibility bitmasks with count checks; the lightest level is then
  filled as an exact cover, branching on the lowest uncovered cell (Knuth,
  "Dancing links", arXiv cs/0011047), which cuts off the branches that
  leave some cell with no word to cover it.
* ``enumerate_minimal_covers`` enumerates minimal covers with no seeding
  assumptions; it doubles as an independent cross-check for
  ``cover_word`` and handles covers that are allowed to contain twin
  pairs.  It uses the whole symmetry of ``b...b``: the isomorphisms
  fixing it act transitively on the pool words of each level, so per
  weight composition it grows only the covers through one word of the
  top level and maps them onto the others (McKay, "Isomorph-free
  exhaustive generation", J. Algorithms 26, 1998, for the orbit
  bookkeeping), keeping each image once.  A pool word's index ``n`` is
  its packed number in ``core._Packing``, at bit ``top - n`` of every
  word mask as in a packed code, so an element maps indices through one
  ``_Packing.image`` table, filled as covers meet the words.
* ``cover_code`` joins per-word cover families into covers of a code,
  drawing candidates by pigeonhole from a word index and checking them
  over word bitmasks, and ``find_second_codes`` rebuilds the partner of a
  partially known equivalent code from its binary codes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

from .alphabet import Alphabet, inferred_alphabet
from .core import (
    Code,
    Word,
    _dichotomy_row,
    _Packing,
    binary_code,
    binary_code_set,
    code_covered,
    density,
    format_plain,
    is_covered,
    is_dichotomous,
    is_proper,
)

ANCHOR_LETTER = 2  # the letter written ``b``

# bytes of bitmask tables a cover pool may hold, word rows and cell tables
# together; (3, 6) needs about 77 MB (61 MB of rows, 16 MB of cell
# tables), (3, 7) about 1.8 GB
POOL_ROW_BYTES_CAP = 1 << 27


def weight_compositions(dim: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Vectors ``x`` with ``sum(x[i] * 2**i) == 2**dim`` and ``sum(x) == size``;
    the feasible level profiles of a minimal cover."""
    out: list[tuple[int, ...]] = []

    def rec(level: int, weight_left: int, words_left: int, acc: list[int]) -> None:
        if level == dim:
            if weight_left == 0 and words_left == 0:
                out.append(tuple(acc))
            return
        unit = 1 << level
        for count in range(min(words_left, weight_left // unit) + 1):
            rec(level + 1, weight_left - count * unit, words_left - count, acc + [count])

    rec(0, 1 << dim, size, [])
    del rec  # it calls itself through its cell: free the cycle now
    return tuple(out)


def standard_seeds(dim: int = 5) -> tuple[Code, ...]:
    """The four anchor pairs every twin-pair-free cover can be mapped onto:
    three complementary positions with tail letters aa / ab / bb, or five
    complementary positions."""
    if dim != 5:
        raise ValueError("standard seeds are defined for dimension 5")
    a, ap, b = 0, 1, ANCHOR_LETTER
    return (
        ((a, a, a, a, a), (ap, ap, ap, a, a)),
        ((a, a, a, a, b), (ap, ap, ap, a, b)),
        ((a, a, a, b, b), (ap, ap, ap, b, b)),
        ((a, a, a, a, a), (ap, ap, ap, ap, ap)),
    )


# pools and compatibility bitmasks ----------------------------------------

@dataclass(frozen=True)
class _Pool:
    # word n is packed word n of ``packing``, b...b included, at mask bit top - n
    packing: _Packing
    words: tuple[Word, ...]
    level_masks: tuple[int, ...]
    dichotomous: tuple[int, ...]
    twin_free: tuple[int, ...]
    # the box of b...b split into cells: word i's sub-box as a cell mask,
    # and per cell the mask of the words whose sub-box holds it
    cells: tuple[int, ...]
    cell_words: tuple[int, ...]


def _pool_bytes(pair_count: int, dim: int) -> tuple[int, int, int, int]:
    """Words other than ``b...b``, cells, and the bytes of the pool's
    tables: the two tables of one bitmask row per word over the words, and
    the two cell tables, one row per word over the cells and one per cell
    over the words."""
    size = (2 * pair_count - 1) ** dim - 1
    ncells = 1 << ((pair_count - 1) * dim)
    row = (size + 7) // 8
    return size, ncells, 2 * size * row, size * ((ncells + 7) // 8) + ncells * row


def _cell_tables(
    pair_count: int, dim: int, letters: list[int], masks: list[list[int]]
) -> tuple[list[int], list[int]]:
    """``cells`` and ``cell_words`` over the cells of the box of ``b...b``.

    Position ``i`` owns bits ``[(k-1)i, (k-1)(i+1))`` of a cell index, one
    bit per pair other than ``b``'s.  ``b`` takes every value there, and a
    letter of pair ``p`` with side ``s`` the values whose bit for ``p`` is
    ``s``.  A word's cells are the AND of its letters' cell masks, each one
    run of set bits, doubled.  A cell's words are the AND over positions of
    the OR of the pool packing's ``letters`` masks of the letters that take
    its value there."""
    others = [p for p in range(pair_count) if p != ANCHOR_LETTER >> 1]
    half = len(others)
    ncells = 1 << (half * dim)
    # built over the product of the letters, position 0 most significant, so
    # row i is pool word i's
    cells = [(1 << ncells) - 1]
    for i in range(dim):
        takes = [0] * (2 * pair_count)
        takes[ANCHOR_LETTER] = (1 << ncells) - 1
        for q, pair in enumerate(others):
            run = 1 << (half * i + q)
            ones, width = (1 << run) - 1, 2 * run
            while width < ncells:
                ones |= ones << width
                width <<= 1
            takes[2 * pair], takes[2 * pair + 1] = ones, ones << run
        cells = [box & takes[s] for box in cells for s in letters]
    # built from the last position down, so cell ``c`` ends up at index ``c``
    cell_words = [(1 << len(cells)) - 1]
    for i in reversed(range(dim)):
        takes = []
        for value in range(1 << half):
            row = masks[i][ANCHOR_LETTER]
            for q, pair in enumerate(others):
                row |= masks[i][2 * pair + (value >> q & 1)]
            takes.append(row)
        cell_words = [row & t for row in cell_words for t in takes]
    return cells, cell_words


@lru_cache(maxsize=8)
def _cover_pool(pair_count: int, dim: int) -> _Pool:
    """Candidate words for covers of ``b...b``: everything without the
    complement of ``b`` and not the word itself, graded by ``b``-count.
    Pool word ``i`` is packed word ``i`` of the packing over every letter
    but ``b'``, so the pool lists ``b...b`` too, at its own index.  Its
    sub-box is the whole box, but it is in no level mask and no
    compatibility row, so no search reaches it.

    Also splits the box of ``b...b`` into cells (``_cell_tables``): each
    word's sub-box as a cell mask, and per cell the mask of the words that
    hold it.  Refused up front when its bitmask rows and cell tables
    together would pass ``POOL_ROW_BYTES_CAP``."""
    size, ncells, row_bytes, cell_bytes = _pool_bytes(pair_count, dim)
    if row_bytes + cell_bytes > POOL_ROW_BYTES_CAP:
        raise ValueError(
            f"cover pool too large: {size:,} words over {ncells:,} cells need "
            f"{row_bytes:,} bytes of bitmask rows and {cell_bytes:,} of cell "
            f"tables, {row_bytes + cell_bytes:,} in total "
            f"(cap {POOL_ROW_BYTES_CAP:,})"
        )
    letters = [s for s in range(2 * pair_count) if s != ANCHOR_LETTER ^ 1]
    packing = _Packing(Alphabet(pair_count), dim, [letters] * dim)
    words = tuple(itertools.product(letters, repeat=dim))  # in packed order
    top, masks = packing.top, packing.letters
    # b...b is the one word of level dim
    level_masks = [0] * (dim + 1)
    for n, w in enumerate(words):
        level_masks[w.count(ANCHOR_LETTER)] |= 1 << top - n
    dichotomous = [_dichotomy_row(masks, w) for w in words]

    def twins(b: int, w: Word) -> int:
        # one letter complemented, by packed arithmetic; b' is no pool letter
        return sum(1 << b + at[s] - at[s ^ 1] for at, s in zip(packing.values, w) if s ^ 1 in at)

    # a twin-free row is the dichotomy row less the word's twins; twins are
    # dichotomous, so the XOR clears exactly them
    twin_free = [row ^ twins(top - n, w) for n, (w, row) in enumerate(zip(words, dichotomous))]

    cells, cell_words = _cell_tables(pair_count, dim, letters, masks)
    return _Pool(
        packing=packing,
        words=words,
        level_masks=tuple(level_masks[:dim]),
        dichotomous=tuple(dichotomous),
        twin_free=tuple(twin_free),
        cells=tuple(cells),
        cell_words=tuple(cell_words),
    )


def cover_word(
    u: Word,
    size: int,
    alphabet: Alphabet,
    resume: tuple[int, int] | None = None,
) -> tuple[Code, ...]:
    """All twin-pair-free minimal covers of ``u = b...b`` with ``size``
    words that hold a standard seed pair, as ``standard_seeds`` gives it, on
    their lowest occupied level.

    Up to isomorphisms fixing ``u`` this is every cover of that size; the
    family is complete outright once expanded by the word stabilizer.  Per
    weight composition and seed there is one search, from the seed itself.
    A cover that holds a position-permuted copy of a seed needs no search
    of its own: the position permutation fixes ``u`` and keeps pool
    membership, levels and twin-freeness, so its inverse carries that cover
    onto one that holds the seed.

    A ``resume`` cursor ``(composition_index, seed_index)`` skips all
    (composition, seed) units before it, so an interrupted long run can be
    continued and the partial families merged."""
    dim = len(u)
    if any(s != ANCHOR_LETTER for s in u):
        raise ValueError("cover enumeration is anchored at the constant word b...b")
    if alphabet.pair_count < 2:
        raise ValueError("need at least two letter pairs")
    if size < 2:
        raise ValueError("seeded covers have at least two words")
    seeds = standard_seeds(dim)
    pool = _cover_pool(alphabet.pair_count, dim)
    # per seed: its level and its pool indices
    units = []
    for seed in seeds:
        (level,) = {w.count(ANCHOR_LETTER) for w in seed}
        units.append((level, tuple(map(pool.packing.index.__getitem__, seed))))
    found: set[frozenset[int]] = set()

    for ci, x in enumerate(weight_compositions(dim, size)):
        if resume is not None and ci < resume[0]:
            continue
        support = [i for i in range(dim) if x[i] > 0]
        first = support[0]
        # the lowest occupied level always holds an even number of words
        assert x[first] % 2 == 0, x
        for si, (level, ids) in enumerate(units):
            if resume is not None and ci == resume[0] and si < resume[1]:
                continue
            if level != first:
                continue
            allowed = pool.twin_free[ids[0]] & pool.twin_free[ids[1]]
            remaining: list[int] = []
            for lvl in support:
                extra = x[lvl] - (2 if lvl == first else 0)
                remaining.extend([lvl] * extra)
            _grow(ids, allowed, tuple(remaining), pool, found.add, twin_free=True)
    word = pool.words.__getitem__
    return tuple(sorted(tuple(map(word, sorted(ids))) for ids in found))


def _grow(
    base: tuple[int, ...],
    allowed: int,
    level_seq: tuple[int, ...],
    pool: _Pool,
    collect,
    twin_free: bool,
) -> None:
    """Fill the remaining level multiset over the compatibility masks.

    Pairwise dichotomous words have disjoint sub-boxes, so a cover is an
    exact tiling of the cells of ``b...b``.  The search runs in two phases.
    Every level group but the lightest is picked heaviest first, in index
    order (word ``n`` is at bit ``top - n``, so highest bit first), and
    each pick forward-checks that all later levels still have enough
    compatible candidates; the uncovered cells are tracked as one int.
    The lightest group is then filled as an exact cover: branch on
    the lowest uncovered cell, over the candidates that hold it.  Its words
    all have one weight, so every completion tiles the uncovered cells with
    the right word count, and each tiling holds the branching cell in
    exactly one word.  Each index set is produced exactly once per level
    profile."""
    if not level_seq:
        collect(frozenset(base))
        return
    compat = pool.twin_free if twin_free else pool.dichotomous
    masks, top = pool.level_masks, pool.packing.top
    cells, cell_words = pool.cells, pool.cell_words
    groups: list[tuple[int, int]] = []
    for level in sorted(set(level_seq), reverse=True):
        groups.append((level, level_seq.count(level)))
    last = len(groups) - 1
    lightest = masks[groups[last][0]]

    def feasible(mask: int, after: int) -> bool:
        for level, need in groups[after:]:
            if (mask & masks[level]).bit_count() < need:
                return False
        return True

    def tile(uncovered: int, candidates: int, chosen: tuple[int, ...]) -> None:
        # the lightest group needs a word, so cells are left on entry; each
        # candidate is dichotomous with the words chosen, so its cells are
        # all still uncovered
        cell = (uncovered & -uncovered).bit_length() - 1
        options = cell_words[cell] & candidates
        while options:
            b = options.bit_length() - 1
            options ^= 1 << b
            idx = top - b
            rest = uncovered ^ cells[idx]
            if rest:
                tile(rest, candidates & compat[idx], chosen + (idx,))
            else:
                collect(frozenset(chosen + (idx,)))

    def pick(
        gi: int, candidates: int, mask: int, need: int, uncovered: int,
        chosen: tuple[int, ...],
    ) -> None:
        if need == 0:
            if gi + 1 == last:
                tile(uncovered, mask & lightest, chosen)
            else:
                level, count = groups[gi + 1]
                pick(gi + 1, mask & masks[level], mask, count, uncovered, chosen)
            return
        while candidates:
            b = candidates.bit_length() - 1
            candidates ^= 1 << b
            idx = top - b
            nmask = mask & compat[idx]
            if need > 1 and (candidates & nmask).bit_count() < need - 1:
                continue
            if not feasible(nmask, gi + 1):
                continue
            pick(
                gi, candidates & nmask, nmask, need - 1, uncovered ^ cells[idx],
                chosen + (idx,),
            )

    uncovered = (1 << len(cell_words)) - 1
    for idx in base:
        uncovered ^= cells[idx]
    try:
        if not feasible(allowed, 0):
            return
        if last == 0:
            tile(uncovered, allowed & lightest, base)
        else:
            level, count = groups[0]
            pick(0, allowed & masks[level], allowed, count, uncovered, base)
    finally:
        del tile, pick  # they call themselves through their cells: free the cycles


def _top_transversal(
    pair_count: int, dim: int, level: int
) -> list[tuple[Word, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Per pool word ``w`` of the level, in index order, ``(w, source,
    maps)``: an isomorphism fixing ``b...b`` that sends the level's lowest
    word ``w0 = a...ab...b`` to ``w``, acting as ``out[p] =
    maps[p][word[source[p]]]``.

    Such isomorphisms permute positions and map letters per position,
    respecting complements and fixing ``b``; they carry pool words of a
    level onto pool words of that level, transitively.  ``source`` sends
    the ``a``-s of ``w0`` to the positions of ``w`` without ``b``, in order,
    and its ``b``-s to those with ``b``.  At a position without ``b`` the
    map swaps the pair of ``a`` with the pair of the letter ``t`` there, so
    that ``a`` goes to ``t``; elsewhere it is the identity."""
    identity = tuple(range(2 * pair_count))
    maps_to = {}
    for t in identity:
        if t >> 1 != ANCHOR_LETTER >> 1:
            m = list(identity)
            m[t & ~1], m[t | 1] = m[0], m[1]
            m[0], m[1] = t, t ^ 1
            maps_to[t] = tuple(m)
    out = []
    for fixed in itertools.combinations(range(dim), level):
        spread = [p for p in range(dim) if p not in fixed]
        source = [0] * dim
        for j, p in enumerate(spread + list(fixed)):
            source[p] = j
        w = [ANCHOR_LETTER] * dim
        maps = [identity] * dim
        for letters in itertools.product(maps_to, repeat=dim - level):
            for p, t in zip(spread, letters):
                w[p], maps[p] = t, maps_to[t]
            out.append((tuple(w), tuple(source), tuple(maps)))
    out.sort()
    return out


def enumerate_minimal_covers(
    u: Word,
    size: int,
    alphabet: Alphabet,
    twin_free: bool = False,
    keep=None,
) -> tuple[Code, ...]:
    """Every minimal cover of ``u = b...b`` with exactly ``size`` words;
    no seeding and no structural assumptions.

    The isomorphisms fixing ``b...b`` carry every pool word of a level onto
    every other (``_top_transversal``).  So per weight composition, with
    top level ``L``, only the covers through the lowest level-``L`` word
    ``w0`` are searched.  Each is mapped onto every level-``L`` word ``w``
    by the transversal's element for ``w``, and the image is kept when
    ``w`` is its lowest level-``L`` word, which is checked on the images
    of its level-``L`` words before the rest are mapped.  Every cover comes
    out exactly once: as the image of the one cover through ``w0`` that
    the element of its lowest level-``L`` word carries onto it.

    A pool index is a packed word, so each element is one
    ``_Packing.image`` table from pool index to the image's index, built
    per composition and filled as covers meet the word; the verdict filter
    and the mapping both read it.
    A ``keep`` predicate filters covers as they stream out, keeping memory
    flat for large families.  It sees them in search order, not in the
    sorted order returned, so it must be a pure predicate of the cover."""
    dim = len(u)
    if any(s != ANCHOR_LETTER for s in u):
        raise ValueError("cover enumeration is anchored at the constant word b...b")
    if alphabet.pair_count < 2:
        raise ValueError("need at least two letter pairs")
    if size < 2:
        raise ValueError("direct enumeration expects at least two words")
    pool = _cover_pool(alphabet.pair_count, dim)
    words, packing = pool.words, pool.packing
    compat = pool.twin_free if twin_free else pool.dichotomous
    out: list[Code] = []

    for x in weight_compositions(dim, size):
        top = max(level for level in range(dim) if x[level])
        level_seq = tuple(
            level for level in range(dim) for _ in range(x[level] - (level == top))
        )
        w0 = packing.index[(0,) * (dim - top) + (ANCHOR_LETTER,) * top]
        # filled at the first cover through w0: the dead profiles need neither
        elements: list[dict[int, int]] = []
        top_ids: set[int] = set()
        verdicts: dict[frozenset[int], list[dict[int, int]]] = {}

        def collect(ids: frozenset[int]) -> None:
            if not elements:
                for _, source, maps in _top_transversal(alphabet.pair_count, dim, top):
                    image = packing.image(source, maps)
                    elements.append(image)
                    top_ids.add(image[w0])
            key = ids & top_ids
            chosen = verdicts.get(key)
            if chosen is None:
                # the elements under which w0's image stays the lowest top word
                chosen = elements
                for i in key - {w0}:
                    chosen = [image for image in chosen if image[i] > image[w0]]
                verdicts[key] = chosen
            for image in chosen:
                code = itemgetter(*sorted(map(image.__getitem__, ids)))(words)
                if keep is None or keep(code):
                    out.append(code)

        _grow((w0,), compat[w0], level_seq, pool, collect, twin_free=twin_free)
    return tuple(sorted(out))


# cube tiling codes --------------------------------------------------------

def _tiling_census(alphabet: Alphabet, dim: int) -> set[int]:
    """Every cube tiling code of dimension ``dim`` over the alphabet's ``k``
    pairs, packed in ``core._Packing``'s layout as a flip search packs it,
    so that it compares with a closure's ``packed`` states as ints.

    A tiling code is an exact cover of ``b...b`` over ``k + 1`` pairs by
    words without ``b``.  In ``_cell_tables`` the box of ``b...b`` over
    ``k + 1`` pairs splits into one value per position for each choice of
    side on the ``k`` pairs other than ``b``'s: exactly the cells of the
    ``k``-pair realization.  The level-0 pool words, those without ``b``,
    are exactly the words over those ``k`` pairs, and their sub-boxes are
    those words' boxes.  Pairwise dichotomous words have disjoint boxes, so
    the exact covers of the box by level-0 words are the tiling codes, and
    ``_grow`` yields each one exactly once.  Level-0 words hold neither
    ``b`` nor ``b'``, so each letter above them moves down two places to
    its letter over ``k`` pairs, and each level-0 pool index maps to that
    word's bit in the ``k``-pair packing.  Refused, like every pool, when
    the pool would pass ``POOL_ROW_BYTES_CAP``, and below dimension 2,
    where no pool word holds ``b`` for the cell tables to read."""
    if dim < 2:
        raise ValueError("tiling codes are enumerated from dimension 2")
    pool = _cover_pool(alphabet.pair_count + 1, dim)
    pack = _Packing(alphabet, dim).pack
    letter = [s - 2 * (s > ANCHOR_LETTER) for s in range(2 * alphabet.pair_count + 2)]
    level, top = pool.level_masks[0], pool.packing.top
    bits = [
        pack([tuple(letter[s] for s in w)]) if level >> top - n & 1 else 0
        for n, w in enumerate(pool.words)
    ]
    found: set[int] = set()

    def collect(ids: frozenset[int]) -> None:
        found.add(sum(map(bits.__getitem__, ids)))

    _grow((), level, (0,) * 2**dim, pool, collect, twin_free=False)
    return found


# covers of codes ----------------------------------------------------------

def cover_code(
    code: Code,
    max_size: int,
    families: Mapping[Word, Iterable[Code]],
) -> tuple[Code, ...]:
    """All covers of the code (of at most ``max_size`` words) obtained by
    joining one cover per word.

    The families' words are numbered through a ``_Packing`` over the
    letters they use at each position, in the alphabet of their largest
    letter, and each cover becomes a sorted tuple of packed words.  A
    partial cover ``P`` of ``p`` words joins a cover ``D`` of ``q`` words
    when the union stays within ``max_size``, so when they share at least
    ``s = p + q - max_size`` words.  Each family's covers are bucketed by
    size, with per word the covers of that size that hold it.  When
    ``s > 0``, a size-``q`` cover that shares
    ``s`` words with ``P`` holds one of any ``p - s + 1`` of them
    (pigeonhole), so the candidates are the covers that hold one of the
    ``p - s + 1`` words of ``P`` held by the fewest covers of the family;
    otherwise every size-``q`` cover is one.  Each candidate is then
    checked exactly: it adds at most ``max_size - p`` words, each
    dichotomous with all of ``P`` (those it shares are its own words
    already): one ``_dichotomy_row`` per word of ``P``, ANDed."""
    words = sorted(code)
    if not words:
        raise ValueError("cannot cover an empty code")
    for u in words:
        if u not in families or not families[u]:
            raise ValueError("every word needs a non-empty cover family")
    fams = [[c for c in families[u] if len(c) <= max_size] for u in words]
    universe = sorted({w for fam in fams for c in fam for w in c})
    if len({len(w) for w in universe}) > 1:
        raise ValueError("the cover families mix dimensions")
    for w in universe:
        if not is_proper(w):
            raise ValueError(f"proper word required: {format_plain(w)}")
    at = [set(column) for column in zip(*universe)]
    packing = _Packing(inferred_alphabet(at), len(at), at)
    index, top = packing.index, packing.top
    # built only for the words of partial covers that have candidates
    rows = cache(lambda n: _dichotomy_row(packing.letters, packing.words[n]))

    def members(fam: list[Code]) -> list[tuple[int, ...]]:
        return sorted({tuple(sorted(map(index.__getitem__, c))) for c in fam})

    current = members(fams[0])
    for fam in map(members, fams[1:]):
        # per cover size: the covers of that size, and per word those of
        # them that hold it
        by_size: dict[int, tuple[list[int], dict[int, list[int]]]] = {}
        for m, ids in enumerate(fam):
            every, holding = by_size.setdefault(len(ids), ([], {}))
            every.append(m)
            for i in ids:
                holding.setdefault(i, []).append(m)
        held = Counter(itertools.chain.from_iterable(fam))
        new: set[tuple[int, ...]] = set()
        for partial in current:
            p = len(partial)
            rare = sorted(partial, key=held.__getitem__)
            found = []
            for q, (every, holding) in by_size.items():
                shared = p + q - max_size
                if shared > 0:
                    # each candidate holds one of any p - shared + 1 words
                    # of the partial: take those in the fewest covers
                    found.append(set(itertools.chain.from_iterable(
                        [holding.get(i, ()) for i in rare[: p - shared + 1]]
                    )))
                else:
                    found.append(every)
            if not any(found):
                continue
            candidates = itertools.chain.from_iterable(found)
            room = max_size - p
            have = set(partial)
            joinable = -1
            for n in partial:
                joinable &= rows(n)
            for m in candidates:
                extra = [n for n in fam[m] if n not in have]
                if len(extra) <= room and all(joinable >> top - n & 1 for n in extra):
                    new.add(tuple(sorted(have.union(extra))))
        current = sorted(new)
    return tuple(tuple(map(packing.words.__getitem__, ids)) for ids in current)


# rebuilding the second code -----------------------------------------------

# candidate codes (the product of the slot sizes) one search may try
MAX_SECOND_CANDIDATES = 10**6


def find_second_codes(
    known: Code,
    partial: Code,
    alphabet: Alphabet,
    min_density: int = 5,
) -> tuple[Code, ...]:
    """Codes equivalent to ``known`` that contain ``partial``.

    Candidate words are bucketed by binary code: equivalent codes share
    their binary code sets and binary codes are injective on a code, so
    each missing bit vector is one slot to fill.  Every returned code is a
    full equivalent partner (equal size, mutual covering)."""
    if not code_covered(partial, known):
        raise ValueError("the partial code must be covered by the known code")
    if len(partial) >= len(known):
        raise ValueError("the partial code must be strictly smaller")
    if density(known, partial) < min_density:
        raise ValueError("the known code is too sparse around the partial one")
    dim = len(known[0])
    have = {binary_code(r): r for r in partial}
    missing = sorted(binary_code_set(known) - set(have))
    pool: dict[tuple[int, ...], list[Word]] = {bits: [] for bits in missing}
    for q in itertools.product(alphabet.letters(), repeat=dim):
        bits = binary_code(q)
        if bits not in pool or q in partial:
            continue
        if not all(is_dichotomous(q, r) for r in partial):
            continue
        if not is_covered(q, known):
            continue
        if density(known, (q,)) < min_density:
            continue
        pool[bits].append(q)
    slots = [sorted(pool[bits]) for bits in missing]
    if any(not slot for slot in slots):
        return ()
    total = 1
    for slot in slots:
        total *= len(slot)
    if total > MAX_SECOND_CANDIDATES:
        raise ValueError(f"slot product {total} exceeds the candidate budget")
    out = []
    base = tuple(sorted(partial))
    for picks in itertools.product(*slots):
        candidate = tuple(sorted(base + picks))
        ok = all(
            is_dichotomous(a, b)
            for a, b in itertools.combinations(picks, 2)
        )
        if ok and density(candidate, known) >= min_density:
            out.append(candidate)
    return tuple(sorted(out))
