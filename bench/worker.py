"""One workload in one process: set-up, then one timed round, plain or
traced, and a digest of its output, checked with ``--check``; or set-up
alone.

Started by ``run.py`` with the monotonic time at which it was spawned, so
that set-up is measured from process start to the first timed call.
Times are as measured, less the time of the speed samples (``speed.py``)
taken meanwhile; the samples go with them, and ``scale`` is the round's.
Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import resource
import sys
import time
from contextlib import nullcontext

import speed
import tracing
from workloads import WORKLOADS

MODULES = ("alphabet", "core", "iso", "moves", "realize", "sampling", "search")

# per-layer times: metric -> span whose busy seconds per round it reports
LAYER_TIMES = {
    "search.cover_word_s": "search.cover_word",
    "search.enumerate_s": "search.enumerate_minimal_covers",
    "search.cover_code_s": "search.cover_code",
    "iso.dedup_orbits_s": "iso.dedup_orbits",
    "moves.closure_s": "moves.closure",
    "moves.extract_word_s": "moves.extract_word",
    "sampling.random_tiling_code_s": "sampling.random_tiling_code",
    "sampling.random_code_s": "sampling.random_code",
    "core.is_covered_s": "core.is_covered",
    "realize.oracle_is_covered_s": "realize.oracle_is_covered",
}
# per-layer values a workload reports from its own output; 0 where unused
LAYER_VALUES = {
    "search.covers_enumerated": "count",
    "search.covers_kept": "count",
    "moves.closure_states": "count",
    "moves.extractions": "count",
    "moves.trace_moves": "count",
    "moves.budget_overshoot": "count",
    "sampling.codes": "count",
    "core.is_dichotomous_ns": "ns",
}


def canonical(value):
    """The value with sets sorted and dataclasses as tuples, for a digest
    that equal outputs share whatever order they were built in.  Set
    elements are codes, which repr alike whenever they are equal."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if dataclasses.is_dataclass(value):
        return tuple(canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return sorted((k, canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


def ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(tracer, setup_spans: int, values: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced set-up and round."""
    setup_busy, _ = tracing.totals(tracer.spans[:setup_spans])
    busy, calls = tracing.totals(tracer.spans[setup_spans:])
    out = {"search.pool_build_s": (setup_busy["search._cover_pool"], "s")}
    out.update({name: (busy[span], "s") for name, span in LAYER_TIMES.items()})
    out.update({name: (values.get(name, 0), unit) for name, unit in LAYER_VALUES.items()})
    enumerated, kept = values.get("search.covers_enumerated", 0), values.get("search.covers_kept", 0)
    out["search.keep_ratio"] = (ratio(kept, enumerated), "ratio")
    codes = tracer.counts["iso.orbit_codes"]
    out["iso.orbit_walks"] = (calls["iso.Group.orbit"], "count")
    out["iso.orbit_codes"] = (codes, "count")
    out["iso.orbit_codes_per_s"] = (ratio(codes, busy["iso.Group.orbit"]), "1/s")
    states = values.get("moves.closure_states", 0)
    out["moves.closure_states_per_s"] = (ratio(states, busy["moves.closure"]), "1/s")
    out["realize.oracle_calls"] = (calls["realize.oracle_is_covered"], "count")
    out["trace.span_share"] = (ratio(tracing.top_level_busy(tracer.spans[setup_spans:]), wall_s), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--check", action="store_true", help="check the output, not just digest it")
    parser.add_argument("--spans", help="file to write the trace spans to")
    args = parser.parse_args()

    sampler = speed.Sampler()
    sampler.start()
    raw = {name: importlib.import_module(f"polybox.{name}") for name in MODULES}
    tracer = tracing.Tracer() if args.mode == "traced" else None
    with tracing.traced(raw, tracer) if tracer else nullcontext(raw) as mods:
        workload = WORKLOADS[args.workload](args.seed, mods)
        setup_s = time.monotonic() - args.spawned - sampler.spent
        if args.mode == "setup":
            sampler.stop()
            print(json.dumps({"setup_s": setup_s, "slices": sampler.slices}))
            return 0
        setup_spans = len(tracer.spans) if tracer else 0
        setup_slices, spent = len(sampler.slices), sampler.spent
        start = time.perf_counter()
        output = workload.run(mods)
        elapsed = time.perf_counter() - start
        sampler.stop()
    wall_s = elapsed - (sampler.spent - spent)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "scale": speed.scale(sampler.slices[setup_slices:]),
        "slices": sampler.slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256(repr(canonical(output)).encode()).hexdigest(),
    }
    if args.check:
        errors, result["attempted"], result["failed"] = workload.check(output, raw)
        result["errors"] = errors[:20]
    if tracer:
        result["layers"] = layer_metrics(tracer, setup_spans, workload.layers(output, raw), elapsed)
        if args.spans:
            with open(args.spans, "w") as out:
                json.dump(tracer.spans, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
