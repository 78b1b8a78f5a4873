"""Benchmark command for polybox.

    python3 bench/run.py --workload {classify,joint,flip,fuzz} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every round of a workload runs in a
fresh single-threaded process, which sets up and runs the round timed;
rounds follow one another while the next is expected to end within ``S``
seconds of rounds.  The first round's output is checked, and every later
round must reproduce it.  Processes that only set up follow until there
have been ``SETUPS`` set-ups.  Times are reported at reference speed
(``speed.py``): a round's time is scaled by the speed samples taken
during that round, and set-up times and per-layer times by those of the
whole run.  The last
line of standard output is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Results and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 3  # set-ups per run at least; setup_s is their median
DEADLINE_S = 170  # the whole run, all processes included


def worker(args, mode: str, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(args.seed % 2**32),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--spawned", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def rounds(args, deadline: float, tag: str) -> tuple[list[dict], list[dict]]:
    """Whole rounds, as long as one more, taking the median time so far,
    would end within ``--seconds``.  With tracing, plain and traced rounds
    alternate, at least one of each.  The first round's output is checked;
    every later round must give an output with the same digest."""
    plain = [worker(args, "plain", deadline, ("--check",))]
    traced: list[dict] = []
    while True:
        walls = [r["wall_s"] for r in plain + traced]
        if sum(walls) + statistics.median(walls) > args.seconds and (traced or not args.trace):
            return plain, traced
        if args.trace and len(traced) < len(plain):
            spans = OUT / f"spans-{tag}-{len(traced)}.json"
            traced.append(worker(args, "traced", deadline, ("--spans", str(spans))))
        else:
            plain.append(worker(args, "plain", deadline))


def median_layers(traced: list[dict], scale: float) -> dict:
    """Each per-layer metric's low median over the traced rounds, so that
    counts stay whole; times and rates at reference speed."""
    per_unit = {"s": scale, "ns": scale, "1/s": 1 / scale}
    return {
        name: {
            "value": statistics.median_low(r["layers"][name]["value"] for r in traced)
            * per_unit.get(m["unit"], 1),
            "unit": m["unit"],
        }
        for name, m in traced[0]["layers"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "joint", "flip", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polybox").is_dir():
        print(f"no polybox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plain, traced = rounds(args, deadline, tag)
        runs = plain + traced
        setups = runs + [worker(args, "setup", deadline) for _ in range(SETUPS - len(runs))]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    first = plain[0]
    errors = first["errors"] + [
        "a round's output differs from the first round's"
        for r in runs if r["digest"] != first["digest"]
    ]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    walls = [r["wall_s"] for r in plain]
    scale = speed.scale([t for r in setups for t in r["slices"]])
    if args.trace:
        metrics = median_layers(traced, scale)
        traced_wall, plain_wall = (statistics.median(r["wall_s"] * r["scale"] for r in rs) for rs in (traced, plain))
        metrics["trace.wall_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] * r["scale"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": first["attempted"] * len(runs),
        "failed": first["failed"] * len(runs),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **result,
        "scale": scale,
        "walls_s": walls,
        "traced_walls_s": [r["wall_s"] for r in traced],
        "setups_s": [r["setup_s"] for r in setups],
        "scales": [r["scale"] for r in plain],
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
