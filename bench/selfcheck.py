"""Show that each of the benchmark's correctness checks rejects a wrong
answer and accepts the right one.

    PYTHONHASHSEED=0 python3 bench/selfcheck.py

Every case runs the check on a real output of the program and on a
deliberately corrupted copy; exits 1 if any check accepts a corrupted
answer or rejects a correct one.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as w  # noqa: E402

import pairorbit.closure as cl  # noqa: E402
import pairorbit.pairnf as pn  # noqa: E402
import pairorbit.witness as wt  # noqa: E402
from pairorbit.families import representative  # noqa: E402

CASES = []


def case(name, problems, want_rejected):
    ok = bool(problems) == want_rejected
    CASES.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"[{'ok' if ok else 'FAIL'}] {name}: {verdict}")


def roundtrip_cases(rng):
    for key in (("unimodular", "generic"), ("reciprocal", "generic"), ("jordan", "a_plus_zeta")):
        orb = w.Orbit(key, w.draw_params(key, rng), rng)
        out = pn.classify_pair(orb.pair)
        k, p, c, P = out.cls.key(), dict(out.cls.params), out.reducer.c, out.reducer.P
        tag = "|".join(key)
        case(f"{tag} as classified", orb.check(k, p, c, P), False)
        case(f"{tag} with another family", orb.check((k[0], "zero"), p, c, P), True)
        name = sorted(p)[-1]
        case(f"{tag} with {name} off by 1e-5",
             orb.check(k, dict(p, **{name: complex(p[name]) + 1e-5}), c, P), True)
        case(f"{tag} with a reducer perturbed by 1e-6", orb.check(k, p, c, P + 1e-6), True)
        if "phi" in p:
            phi = float(np.real(p["phi"]))
            case(f"{tag} with phi + pi (same class)",
                 orb.check(k, dict(p, phi=phi + np.pi), c, P), False)


def lab_cases():
    src = ("unimodular", "generic")
    own = "|".join(src)
    case("lab cell as reported", checks.check_perturb(src, 3, {own: 3}, 0, []), False)
    case("lab cell with a violation",
         checks.check_perturb(src, 3, {own: 3}, 0, [{"sample": 0, "reached": "x"}]), True)
    case("lab cell losing a sample", checks.check_perturb(src, 3, {own: 2}, 0, []), True)
    case("lab generic source leaving its stratum",
         checks.check_perturb(src, 3, {own: 2, "reciprocal|generic": 1}, 0, []), True)
    case("lab reaching a lower dimension",
         checks.check_perturb(("definite", "a_lt_d"), 1, {"definite|zero": 1}, 0, []), True)


def closure_cases(rng):
    for q, exact in checks.MAXF_ANCHORS:
        v = cl.max_f(*q)
        case(f"max_f anchor {q}", checks.check_maxf(q, v, exact, checks.ANCHOR_TOL), False)
        case(f"max_f anchor {q} 1e-5 low", checks.check_maxf(q, v - 1e-5, exact, checks.ANCHOR_TOL), True)
    for i, q in enumerate(w.draw_maxf_queries(rng, 3)):
        v, oracle = cl.max_f(*q), checks.maxf_oracle(*q)
        case(f"max_f query {i} vs grid oracle", checks.check_maxf(q, v, oracle), False)
        case("  the same, 1e-3 too low", checks.check_maxf(q, v - 1e-3, oracle), True)
    report = cl.validate_graph(samples_per_edge=1, seed=0)
    case("validate_graph report", checks.check_validate(report), False)
    case("validate_graph report with a violation", checks.check_validate(
        dict(report, violations=[{"src": "a", "dst": "b", "reason": "x"}])), True)
    for wit in wt.witness_catalog()[:3]:
        src, dst = representative(wit.src), representative(wit.dst)
        g = wit.curve(checks.CURVE_S)
        case(f"curve {wit.name} at s = {checks.CURVE_S}",
             checks.check_curve(wit.name, g.c, g.P, dst.A.m, dst.B.m, src.A.m, src.B.m), False)
        g = wit.curve(1e-1)
        case(f"  the same at s = 0.1",
             checks.check_curve(wit.name, g.c, g.P, dst.A.m, dst.B.m, src.A.m, src.B.m), True)


def main():
    rng = np.random.default_rng(2024)
    roundtrip_cases(rng)
    lab_cases()
    closure_cases(rng)
    print(f"{sum(CASES)}/{len(CASES)} cases behaved")
    return 0 if all(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
