"""Work the benchmark must run in a fresh interpreter.

    python bench/child.py setup --workload W
        time `import scipy.optimize`, `import pairorbit` and the warm-up the
        main process does before its timed region.
    python bench/child.py catalog [--trace 0|1]
        time the first witness_catalog() call, then verify every entry.

Prints one JSON object on its last line.  Expects src/ and bench/ on
PYTHONPATH, as the main process sets them.
"""

from __future__ import annotations

import argparse
import json
import time

SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)

# A fixed pair with a generic A and a full-rank B.
WARM_PAIR = {"A": [[1.0, 0.3 + 0.2j], [-0.1j, 0.8 + 0.5j]],
             "B": [[0.7, 0.2 - 0.1j], [0.2 - 0.1j, -0.4 + 0.9j]]}
WARM_MAXF = (0.7, 0.4, 0.3 - 0.5j, 1.1)


def warm_up(workload):
    """First calls of the workload's entry points, so that lazy set-up in the
    package is paid before the timed region and shows in setup_s."""
    import pairorbit.closure as cl
    import pairorbit.pairnf as pn
    from pairorbit.matcore import MatrixPair
    if workload == "closure":
        cl.max_f(*WARM_MAXF)
    else:
        pn.classify_pair(MatrixPair.of(WARM_PAIR["A"], WARM_PAIR["B"]))


def setup(workload):
    t0 = time.perf_counter()
    import scipy.optimize  # noqa: F401
    t1 = time.perf_counter()
    import pairorbit  # noqa: F401
    t2 = time.perf_counter()
    warm_up(workload)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "scipy_optimize_s": t1 - t0, "pairorbit_s": t2 - t0}


def catalog(trace):
    import checks

    import pairorbit.witness as wt
    from pairorbit.families import representative
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    entries = wt.witness_catalog()
    build_s = time.perf_counter() - t0
    problems = []
    for w in entries:
        rep = wt.verify_witness(w, SWEEP, tol=1e-6, strict=False)
        if not (rep.monotone and rep.final_residual <= 1e-6):
            problems.append(f"{w.name}: verify_witness residuals {rep.residuals}")
        src, dst = representative(w.src), representative(w.dst)
        g = w.curve(checks.CURVE_S)
        problems += checks.check_curve(w.name, g.c, g.P, dst.A.m, dst.B.m, src.A.m, src.B.m)
    out = {"build_s": build_s, "entries": len(entries), "problems": problems}
    if tracer:
        out["spans"] = tracer.spans
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "catalog"))
    ap.add_argument("--workload", default="roundtrip")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    out = setup(args.workload) if args.mode == "setup" else catalog(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
