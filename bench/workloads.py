"""Input generation and the timed stages of the benchmark.

Every input is drawn from the benchmark's own numpy generators: the lab's
from a fixed seed (see LAB_SEED), all others from the --seed argument.  The
program only sees the finished pairs, classes and queries.  Each stage calls into pairorbit through module attributes
(``pn.classify_pair``, ``wt.perturb_experiment``, ...) at call time, so the
traced run can wrap them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

import pairorbit.closure as cl
import pairorbit.pairnf as pn
import pairorbit.witness as wt
from pairorbit.families import FAMILIES, OrbitClass, representative
from pairorbit.matcore import MatrixPair

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

LAB_EPS = (1e-3, 1e-5)
# Samples per perturb_experiment call.
LAB_N = 2
# cond(g . A) grows as cond(P)^2.  Past cond(P) of about 1e3 the classifier's
# noise floor 200 eps cond(A)^2 covers the drawn invariants' distance from
# their boundaries and A is misread (CHANGES.md, FOUND), a failure that
# would come and go with the seed.  The bound leaves out 7 in 10^4 of the
# Gaussian draws.
P_COND_MAX = 1e2
VALIDATE_SAMPLES = 1
MAXF_PER_UNIT = 10
MAXF_THETA_MAX = 3.05

# The lab's cells come from a generator with this fixed seed, not from
# --seed.  The classifier fails on some perturbed samples, and only inputs
# that are the same in every run keep the failed share of a run the same;
# failures among these cells stay in and count as failed.
LAB_SEED = 0

# Inputs on which perturb_experiment fails on every run, one sample each:
# (a_family, b_form, params, eps, perturb_experiment seed).  They reproduce
# the faults CHANGES.md names for the lab, do not depend on --seed and run
# in every lab unit of the lab workload.
LAB_FAULTS = (
    # _reduce_unimodular's noise-floor branch: StabilizerSolveFailed.
    ("rank1_semidef", "a_plus_0", {"a": 1.0}, 1e-5, 130),
    # the same floor in the tau gate: AmbiguousNearBoundary.
    ("rank1_nilpotent", "zero", {}, 1e-5, 25),
    # a near-scalar cosquare sent to _reduce_jordan: ValueError in
    # _polish_star, and StabilizerSolveFailed.
    ("indefinite", "zero", {}, 1e-3, 1014078877),
    ("indefinite", "zero", {}, 1e-3, 40585382),
)


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def draw_params(key, rng) -> dict:
    """Interior parameters of one family, away from every family boundary."""
    spec = FAMILIES[key]
    p = {}
    for name in spec.b_params:
        if name == "theta":
            p[name] = float(rng.uniform(0.3, 2.8))
        elif name == "tau":
            p[name] = float(rng.uniform(0.1, 0.9))
        elif name == "phi":
            p[name] = float(rng.uniform(0.05, np.pi - 0.05))
        elif name == "zeta":
            p[name] = complex(rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        elif name != "d0":
            p[name] = float(rng.uniform(0.3, 2.5))
    if "d0" in spec.b_params:
        p["d0"] = 0.0 if rng.integers(2) == 0 else p["d"]
    if spec.b_form == "a_lt_d":
        p["a"] = float(rng.uniform(0.3, 1.2))
        p["d"] = float(rng.uniform(1.4, 2.5))
    return p


def draw_group(rng):
    """(c, P): c uniform on the circle, P complex Gaussian, redrawn while its
    condition number exceeds P_COND_MAX."""
    c = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    while True:
        P = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
        if np.linalg.cond(P) <= P_COND_MAX:
            return c, P


class Orbit:
    """An exact orbit point g . representative(cls) and what it was made from."""

    def __init__(self, key, params, rng):
        self.key, self.params = key, params
        rep = representative(OrbitClass(key[0], key[1], params))
        self.A_rep, self.B_rep = rep.A.m, rep.B.m
        c, P = draw_group(rng)
        A, B = checks.act(c, P, self.A_rep, self.B_rep)
        self.pair = MatrixPair.of(A, 0.5 * (B + B.T))
        self.A, self.B = self.pair.A.m, self.pair.B.m

    def check(self, got_key, got_params, c, P):
        return checks.check_roundtrip(self.key, self.params, got_key, got_params,
                                      c, P, self.A, self.B, self.A_rep, self.B_rep)


class LabCell:
    """One perturb_experiment call: a source class, eps and a sample seed."""

    def __init__(self, key, params, eps, seed, n=LAB_N):
        self.key, self.eps, self.seed, self.n = key, eps, seed, n
        self.cls = OrbitClass(key[0], key[1], params)


def lab_cells(k):
    """The cells of the k-th lab unit of a round: every family at every eps,
    parameters drawn as for roundtrip, from the fixed generator (LAB_SEED, k)."""
    rng = np.random.default_rng([LAB_SEED, k])
    cells = []
    for key in FAMILIES:
        params = draw_params(key, rng)
        cells += [LabCell(key, params, eps, int(rng.integers(2 ** 31))) for eps in LAB_EPS]
    return cells


def fault_cells():
    return [LabCell((fam, form), params, eps, seed, n=1)
            for fam, form, params, eps, seed in LAB_FAULTS]


def draw_maxf_queries(rng, count):
    out = []
    for _ in range(count):
        a, b = rng.uniform(0.0, 2.0, 2)
        d = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        out.append((float(a), float(b), d, float(rng.uniform(0.0, MAXF_THETA_MAX))))
    return out


# ---------------------------------------------------------------------------
# stage units.  Each draws its own inputs (from `rng`, or for the lab from
# its fixed generators), runs them, appends its timings to `rec` (a dict of
# lists) and returns (attempted, failed, problems).
# ---------------------------------------------------------------------------

def unit_rt(rng, rec, tracer=None):
    """One orbit point of every family through classify_pair."""
    orbits = [Orbit(key, draw_params(key, rng), rng) for key in FAMILIES]
    failed, problems, spent = 0, [], 0.0
    for orb in orbits:
        if tracer:
            tracer.new_trace()
        t0 = time.perf_counter()
        try:
            out = pn.classify_pair(orb.pair)
        except pn.PairOrbitError:
            failed += 1
            continue
        finally:
            dt = time.perf_counter() - t0
            rec["classify_s"].append(dt)
            spent += dt
        problems += orb.check(out.cls.key(), out.cls.params, out.reducer.c, out.reducer.P)
    rec["rt_count"].append(len(orbits))
    rec["rt_time"].append(spent)
    return len(orbits), failed, problems


def unit_lab(rng, rec, tracer=None, k=0, faults=False):
    """perturb_experiment on the k-th unit's fixed cells (plus the fixed
    failing inputs when `faults`); `rng` is not used."""
    cells = lab_cells(k) + (fault_cells() if faults else [])
    attempted = failed = 0
    problems, spent = [], 0.0
    for cell in cells:
        if tracer:
            tracer.new_trace()
        t0 = time.perf_counter()
        rep = wt.perturb_experiment(cell.cls, cell.eps, cell.n, seed=cell.seed)
        spent += time.perf_counter() - t0
        attempted += rep.samples
        failed += rep.unresolved
        problems += checks.check_perturb(cell.key, cell.n, rep.histogram,
                                         rep.unresolved, rep.violations)
    rec["lab_count"].append(attempted)
    rec["lab_time"].append(spent)
    return attempted, failed, problems


def unit_validate(rng, rec, tracer=None):
    if tracer:
        tracer.new_trace()
    seed = int(rng.integers(2 ** 31))
    t0 = time.perf_counter()
    report = cl.validate_graph(samples_per_edge=VALIDATE_SAMPLES, seed=seed)
    rec["validate_s"].append(time.perf_counter() - t0)
    return 1, 0, checks.check_validate(report)


def unit_maxf(rng, rec, tracer=None):
    """max_f on the closed-form anchors and on MAXF_PER_UNIT drawn queries;
    the anchors are checked against their exact values, the queries against
    the benchmark's grid oracle (computed after the timed calls)."""
    queries = [q for q, _ in checks.MAXF_ANCHORS] + draw_maxf_queries(rng, MAXF_PER_UNIT)
    values, spent = [], 0.0
    for q in queries:
        if tracer:
            tracer.new_trace()
        t0 = time.perf_counter()
        values.append(cl.max_f(*q))
        spent += time.perf_counter() - t0
    rec["maxf_count"].append(len(queries))
    rec["maxf_time"].append(spent)
    problems = []
    for (q, exact), v in zip(checks.MAXF_ANCHORS, values):
        problems += checks.check_maxf(q, v, exact, checks.ANCHOR_TOL)
    for q, v in zip(queries[len(checks.MAXF_ANCHORS):], values[len(checks.MAXF_ANCHORS):]):
        problems += checks.check_maxf(q, v, checks.maxf_oracle(*q))
    return len(queries), 0, problems


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(BENCH_DIR)
    return env


def run_child(args, timeout=120):
    """Run bench/child.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_catalog(rng, rec, tracer=None):
    """Cold witness_catalog() in a fresh process, then verify_witness and the
    benchmark's own curve check on every entry; a traced child's spans join
    the tracer's."""
    out = run_child(["catalog", "--trace", "1" if tracer else "0"])
    rec["catalog_s"].append(out["build_s"])
    if tracer:
        tracer.adopt(out["spans"])
    return out["entries"], 0, out["problems"]


def unit_cli(rng, rec, tracer=None):
    """One `pairorbit classify` process on a generic orbit point."""
    key = checks.GENERIC_KEYS[int(rng.integers(2))]
    orb = Orbit(key, draw_params(key, rng), rng)
    pair = json.dumps({"A": _mat_json(orb.A), "B": _mat_json(orb.B)})
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pairorbit.cli", "classify", "--pair", pair],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=120)
    rec["cli_s"].append(time.perf_counter() - t0)
    if proc.returncode != 0:
        return 1, 1, []
    out = json.loads(proc.stdout)
    cls = out["class"]
    params = {k: _complex(v) for k, v in cls["params"].items()}
    c = _complex(out["reducer"]["c"])
    P = np.array([[_complex(x) for x in row] for row in out["reducer"]["P"]])
    return 1, 0, orb.check((cls["a_family"], cls["b_form"]), params, c, P)


def _mat_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _complex(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)
