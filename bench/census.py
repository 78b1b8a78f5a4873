"""Census of cube tiling codes, independent of polybox.

    python3 bench/census.py [--dim 3] [--pairs 3]

Counts every set of ``2**dim`` pairwise dichotomous words of length
``dim`` over ``pairs`` letter pairs, with the benchmark's own dichotomy
test and plain backtracking (``checks.tiling_codes``).  It recomputes the
frozen count the ``flip`` workload checks its exhaustive closure against
(17,793 for d=3 over three pairs); d=2 and d=3 over two pairs give 12
and 744.  Exits 1 if a count differs
from the one the benchmark holds for that size.
"""

from __future__ import annotations

import argparse
import sys
import time

import checks

KNOWN = {(2, 2): 12, (3, 2): 744, (3, 3): checks.TILING_CODES_D3_K3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    start = time.perf_counter()
    found = sum(1 for _ in checks.tiling_codes(args.dim, args.pairs))
    print(f"d={args.dim} k={args.pairs}: {found} cube tiling codes "
          f"({time.perf_counter() - start:.1f} s)")
    expected = KNOWN.get((args.dim, args.pairs))
    if expected is not None and expected != found:
        print(f"MISMATCH: the benchmark holds {expected}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
