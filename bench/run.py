"""pairorbit benchmark.

    python3 bench/run.py --workload {roundtrip,lab,closure} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout (pairorbit is imported from src/).
One caller, closed loop, no worker threads.  An untraced run repeats whole
rounds of the workload until S seconds have passed (and at least
MIN_ROUNDS rounds) and reports every end-to-end metric; a traced run does
TRACE_ROUNDS rounds of the workload's own stages with every layer wrapped
and reports the per-layer metrics.  The last line of stdout is the JSON result; the result and the
spans are also written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# sample_params seeds from hash(), so string hashing must not be randomized;
# BLAS must not start threads of its own on this single-caller benchmark.
PINS = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("roundtrip", "lab", "closure")
SETUP_REPEATS = 3
# An untraced run repeats whole rounds until --seconds have passed, and does
# at least MIN_ROUNDS of them, so that classify_p99_ms rests on at least
# 1512 classifications (15 beyond the 99th percentile).  The tail is the
# four Jordan families, whose cost depends on the drawn input, so it needs
# more samples than the ten beyond p99 that would do for a smooth tail.
MIN_ROUNDS = 3
TRACE_ROUNDS = 1

# Units of each stage in one round.  rt: 42 orbit points (one per family);
# cli: one `pairorbit classify` process; lab: 84 perturb_experiment calls
# (42 families x 2 eps) on fixed inputs; validate: one validate_graph call;
# maxf: the 3 anchors and 10 drawn queries; catalog: one cold
# witness_catalog() in a fresh process.  Every workload reports every
# end-to-end metric, so each round also carries a small fixed probe of the
# stages the workload does not own; a traced run runs only the owned stages.
OWN = {"roundtrip": ("rt", "cli"), "lab": ("lab",),
       "closure": ("validate", "maxf", "catalog")}
PLAN = {
    "roundtrip": {"rt": 12, "cli": 2, "lab": 2, "validate": 2, "maxf": 2, "catalog": 1},
    "lab": {"lab": 4, "rt": 12, "cli": 1, "validate": 2, "maxf": 1, "catalog": 1},
    "closure": {"validate": 4, "maxf": 3, "catalog": 2, "rt": 12, "cli": 1, "lab": 1},
}


def pin_environment():
    if any(os.environ.get(k) != v for k, v in PINS.items()):
        os.environ.update(PINS)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def schedule(workload, stages):
    """The units of one round, each stage's units spread evenly through it.
    The shared machine's speed changes within seconds, so a stage that ran
    as one block would see one stretch of it."""
    plan = PLAN[workload]
    slots = sorted(((i + 0.5) / plan[s], k, s) for k, s in enumerate(stages)
                   for i in range(plan[s]))
    return [s for _, _, s in slots]


def run_round(w, workload, stages, rng, rec, tracer):
    """One round of the workload's units."""
    attempted = failed = 0
    problems = []
    lab_units = 0
    for stage in schedule(workload, stages):
        extra = {}
        if stage == "lab":
            # the k-th lab unit of every round runs the same fixed cells
            extra = {"k": lab_units, "faults": workload == "lab"}
            lab_units += 1
        a, f, p = getattr(w, f"unit_{stage}")(rng, rec, tracer, **extra)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def end_to_end(rec, setups):
    """Rates are work over time summed across the run, and one-shot times are
    means: the shared machine alternates between speeds about 1.5x apart
    within seconds, and a median of a few samples jumps between them."""
    mean = statistics.fmean
    cls_s = rec["classify_s"]

    def rate(stage):
        return sum(rec[f"{stage}_count"]) / sum(rec[f"{stage}_time"])

    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "roundtrip_per_s": (rate("rt"), "1/s"),
        "classify_p50_ms": (1e3 * statistics.median(cls_s), "ms"),
        "classify_p99_ms": (1e3 * statistics.quantiles(cls_s, n=100)[98], "ms"),
        "cli_classify_s": (mean(rec["cli_s"]), "s"),
        "lab_per_s": (rate("lab"), "1/s"),
        "validate_s": (mean(rec["validate_s"]), "s"),
        "maxf_per_s": (rate("maxf"), "1/s"),
        "catalog_build_s": (mean(rec["catalog_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, setups):
    from tracing import PER_LAYER, layer_metrics
    m = layer_metrics(spans)
    m["import.pairorbit_s"] = statistics.median(s["pairorbit_s"] for s in setups)
    m["import.scipy_optimize_s"] = statistics.median(s["scipy_optimize_s"] for s in setups)
    return {name: (m[name], unit) for name, unit in PER_LAYER.items()}


def main():
    pin_environment()
    args = parse_args()
    if not (ROOT / "src" / "pairorbit" / "__init__.py").is_file():
        print(f"error: no pairorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np

    import workloads as w
    from child import warm_up

    setups = [w.run_child(["setup", "--workload", args.workload]) for _ in range(SETUP_REPEATS)]
    warm_up(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    stages = OWN[args.workload] if tracer else tuple(PLAN[args.workload])
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    rec = defaultdict(list)
    attempted = failed = rounds = 0
    problems = []
    t0 = time.perf_counter()
    while True:
        a, f, p = run_round(w, args.workload, stages, rng, rec, tracer)
        attempted, failed, problems, rounds = attempted + a, failed + f, problems + p, rounds + 1
        if tracer:
            done = rounds >= TRACE_ROUNDS
        else:
            done = rounds >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds
        if done:
            break
    wall_s = time.perf_counter() - t0
    if tracer:
        metrics = per_layer(tracer.spans, setups)
    else:
        metrics = end_to_end(rec, setups)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        dict(result, rounds=rounds, wall_s=wall_s, problems=problems[:50], samples=rec)))
    if tracer:
        (OUT_DIR / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"rounds": rounds, "wall_s": wall_s, "spans": tracer.spans}))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
