import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pairorbit import pairnf as pn
from pairorbit import witness as wt
from pairorbit.bounds import det_invariant_p
from pairorbit.closure import b_rank, pair_path
from pairorbit.congruence import AmbiguousNearBoundary
from pairorbit.congruence import StarTag as T
from pairorbit.families import family_of, representative
from pairorbit.witness import (
    TRIAGED,
    DivergenceDetected,
    WitnessFamily,
    perturb_experiment,
    reachable_with_slack,
    verify_witness,
    witness_catalog,
)
from pairorbit.matcore import (
    GroupElement,
    PairOrbitError,
    act_pair,
    max_norm,
    pair_distance,
)


def test_catalog_size_and_metadata():
    cat = witness_catalog()
    assert len(cat) >= 18
    for w in cat:
        assert w.citation
        assert w.src.key() != w.dst.key() or not w.src.close_to(w.dst)


def test_catalog_all_entries_converge():
    for w in witness_catalog():
        rep = verify_witness(w, (1e-1, 1e-2, 1e-3, 1e-4), tol=1e-6)
        assert rep.passed, (w.name, rep.residuals)


def test_catalog_matches_closure_graph():
    for w in witness_catalog():
        assert pair_path(w.src, w.dst), str(w)


def test_catalog_covers_every_edge():
    from pairorbit.closure import pair_edges
    covered = {(w.src.key(), w.dst.key()) for w in witness_catalog()}
    assert set(pair_edges()) <= covered


def test_residual_decay_slopes():
    # all curves decay at least linearly in the sweep parameter
    for w in witness_catalog():
        rep = verify_witness(w, (1e-1, 1e-2, 1e-3), tol=1.0, strict=False)
        logs = np.log10(np.maximum(rep.residuals, 1e-300))
        slopes = -np.diff(logs)  # decades gained per decade of s
        assert min(slopes) >= 0.9, (w.name, rep.residuals)


def test_diagonal_witness_residual_closed_form():
    # (1+0 -> 1 (+) e^{i pi/4}): residual is exactly s^k at the sweep values
    cat = [w for w in witness_catalog() if w.name == "diag-shrink->U"]
    assert cat
    rep = verify_witness(cat[0], (0.1,), tol=1.0, strict=False)
    # curve parameter may be normalized s -> s^k; residual = (s^k)^2
    assert any(abs(rep.residuals[0] - 0.1 ** (2 * k)) < 1e-12
               for k in (1.0, 1.25, 1.5, 2.0, 3.0))


def test_verify_witness_rejects_bad_sweep():
    w = witness_catalog()[0]
    for sweep in [(1e-2, 1e-1), (np.nan,), (1e-1, np.nan), (np.inf, 1.0)]:
        with pytest.raises(ValueError, match="finite, positive"):
            verify_witness(w, sweep)


def test_cold_catalog_evaluation_counts(monkeypatch):
    # counts, not seconds: a cold build solves every first column in closed
    # form on CP^1 and runs no optimiser; the autotune evaluates the last
    # sweep point of each k first, so it makes 651 residual evaluations
    # where four per attempted k made 900
    def no_solver(*a, **k):
        raise AssertionError("least_squares called")

    calls = []

    def counted(*args):
        calls.append(args[1])
        return sweep_residual(*args)
    sweep_residual = wt._sweep_residual
    monkeypatch.setattr(wt, "_CATALOG", None)
    monkeypatch.setattr(wt, "least_squares", no_solver)
    monkeypatch.setattr(wt, "_sweep_residual", counted)
    cat = witness_catalog()
    assert len(cat) == 142
    assert len(calls) == 651
    # 142 passing k take four points each; 83 rejected k take one
    assert calls.count(wt._SWEEP[-1]) == 142 + 83
    ks = Counter("s -> s^2.0]" in w.citation for w in cat)
    assert ks == {True: 78, False: 64}


def test_autotune_picks_the_first_k_verify_witness_passes():
    # the autotune's order of evaluation changes no choice: on every entry
    # before tuning, closed-form and solved, it returns the first k whose
    # full sweep verify_witness passes at 1e-7, or None when none does
    def first_passing(e):
        for k in wt._KS:
            cand = e if k == 1.0 else wt._reparam(e, k)
            try:
                if verify_witness(cand, wt._SWEEP, tol=1e-7, strict=False).passed:
                    return cand.citation
            except PairOrbitError:
                continue
        return None
    entries = wt._catalog_closed_form() + wt._catalog_solved(set())
    got = [getattr(wt._autotune(e), "citation", None) for e in entries]
    assert got == [first_passing(e) for e in entries]
    assert got.count(None) < len(got)


def test_catalog_same_in_every_process():
    # names, end classes and the curve at s = 0.5, bitwise, under two hash
    # seeds
    code = ("import hashlib\n"
            "from pairorbit.witness import witness_catalog\n"
            "for w in witness_catalog():\n"
            "    g = w.curve(0.5)\n"
            "    h = hashlib.sha256(complex(g.c).__repr__().encode()"
            " + g.P.tobytes()).hexdigest()\n"
            "    print(w.name, w.src.key(), sorted(w.src.params.items()),\n"
            "          w.dst.key(), sorted(w.dst.params.items()), h)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0].count("\n") == 142
    assert outs[0] == outs[1]


def test_divergence_detected():
    bad = WitnessFamily(
        "bogus", family_of(T.RANK1_SEMIDEF, "zero"),
        family_of(T.DEFINITE, "zero"),
        lambda s: GroupElement(1.0, np.diag([1.0, 1.0 / s])),
        "intentionally diverging")
    with pytest.raises(DivergenceDetected):
        verify_witness(bad)


def test_triage_records_have_quotes():
    assert len(TRIAGED) >= 4
    for rec in TRIAGED:
        assert rec["quote"] and rec["reason"]


def test_perturb_origin_reaches_only_valid_classes():
    rep = perturb_experiment(family_of(T.ZERO, "zero"), 1e-3, 80, seed=2)
    assert rep.violations == []
    assert rep.unresolved == 0
    assert sum(rep.histogram.values()) == 80


def test_perturb_definite_nine_dimensional():
    cls = family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0)
    rep = perturb_experiment(cls, 1e-6, 80, seed=3)
    assert rep.violations == []
    from pairorbit.families import FAMILIES
    for key_text in rep.histogram:
        a_fam, b_form = key_text.split("|")
        assert FAMILIES[(a_fam, b_form)].dim >= 9


def test_perturb_negative_control():
    # an unreachable reached-class must be flagged by the slack test
    src = family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0)
    bad = family_of(T.RANK1_SEMIDEF, "zero")
    assert not reachable_with_slack(src, bad, 1e-3)
    bad2 = family_of(T.RECIPROCAL, "generic", tau=0.4, phi=0.2, b=1.0,
                     zeta=0.1 + 0j)
    assert not reachable_with_slack(src, bad2, 1e-3)


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND line 38: a witness-curve "
                   "point of (indefinite|h_zero_b_1) reads as d0_plus_d")
def test_witness_curve_point_gets_its_family_or_a_typed_error():
    # act_pair(curve(s), rep(dst)) lies in the dst orbit for every s > 0;
    # at s = 1e-3 classify_pair returns (indefinite|d0_plus_d, d0 = d = 1)
    # with a residual of 9.2e-7, inside _RESIDUAL_FAIL
    w = next(w for w in witness_catalog() if w.name == "indef-I2->H-zero_b_1")
    p = act_pair(w.curve(1e-3), representative(w.dst))
    try:
        got = pn.classify_pair(p).cls
    except PairOrbitError:
        return
    assert got.key() == w.dst.key()


def test_slack_rejects_a_b_rank_drop():
    src = family_of(T.RANK1_SEMIDEF, "antidiag_1")
    reached = family_of(T.UNIMODULAR, "zero_plus_d", theta=1.0, d=1.0)
    assert reached.dim >= src.dim and b_rank(reached) < b_rank(src)
    assert not reachable_with_slack(src, reached, 1e-3)


def test_slack_rejects_a_nonzero_determinant_invariant():
    # same A and a larger B rank, so only the invariant p can reject
    src = family_of(T.UNIMODULAR, "a_plus_0", theta=1.0, a=1.0)
    reached = family_of(T.UNIMODULAR, "generic", theta=1.0, a=1.0, r=0.5,
                        phi=0.3, d=1.0)
    assert reached.dim > src.dim and b_rank(reached) > b_rank(src)
    assert abs(det_invariant_p(representative(src), representative(reached))) > 0.2
    assert not reachable_with_slack(src, reached, 1e-3)


def test_perturb_report_json_shape():
    cls = family_of(T.ZERO, "rank1")
    rep = perturb_experiment(cls, 1e-3, 20, seed=4)
    obj = rep.to_json()
    assert obj["samples"] == 20
    assert sum(obj["histogram"].values()) + obj["unresolved"] == 20


def _solved_targets():
    """(source key, src, dst) of every edge the solved curves are built for."""
    from pairorbit.closure import pair_edges
    out = []
    for (sk, dk), cond in sorted(pair_edges().items()):
        if sk in wt._SOLVED_SOURCES:
            inst = wt._solved_instance(sk, dk, cond)
            if inst is not None:
                out.append((sk, *inst))
    return out


def test_first_columns_solve_the_target_forms():
    # c v* A v = 1 (with the unimodular c the curve uses) and v^T B v = a~,
    # or v* A v = 0 and v^T B v = 1 for the isotropic source.  The 50
    # targets of the solved curves must have a column; the targets the
    # closed-form curves cover may have none, but never a wrong one
    closed = {(w.src.key(), w.dst.key()) for w in witness_catalog()
              if not w.name.startswith("solved")}
    solved = 0
    for sk, src, dst in _solved_targets():
        rep = representative(dst)
        A, B = rep.A.m, rep.B.m
        tol = 1e-12 * max(1.0, max_norm(A), max_norm(B))
        if sk == (T.ZERO, "rank1"):
            col = wt._isotropic_column(dst)
            c, want_a, want_b = None, 0.0, 1.0
        else:
            atil = float(np.real(src.params.get("a", 0.0)))
            col = wt._first_column(dst, atil)
            if col is not None:
                c, col = col[2] / abs(col[2]), col[:2]
            want_a, want_b = 1.0, atil
        if (src.key(), dst.key()) not in closed:
            assert col is not None, str(dst)
            solved += 1
        if col is None:
            continue
        v = np.array(col)
        va = v.conj() @ A @ v
        assert abs((va if c is None else c * va) - want_a) <= tol, (str(dst), va)
        assert abs(v @ B @ v - want_b) <= tol, (str(dst), v @ B @ v)
    assert solved == 50


def test_verify_witness_matches_act_pair_bitwise():
    # the raw-array sweep residual against the validated action
    sweep = (0.5, 1e-1, 1e-2, 1e-3, 1e-4)
    for w in witness_catalog():
        rep_src, rep_dst = representative(w.src), representative(w.dst)
        want = [pair_distance(act_pair(w.curve(s), rep_dst), rep_src)
                for s in sweep]
        got = verify_witness(w, sweep, strict=False).residuals
        assert np.array(got).tobytes() == np.array(want).tobytes(), w.name
    # and the same error where the action overflows
    rep = representative(family_of(T.DEFINITE, "zero"))
    huge = lambda s: GroupElement(1.0, np.diag([1e200, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            act_pair(huge(0.1), rep)
        with pytest.raises(ValueError, match="finite"):
            wt._sweep_residual(huge, 0.1, rep, rep)


def _scalar_draws(eps, seed, i):
    """The per-sample scalar loop the batched draws replaced: seven disc
    samples eps sqrt(u) e^{i ph}, each two scalar draws from one stream."""
    rng = np.random.default_rng((seed, i))
    out = []
    for _ in range(7):
        r = eps * np.sqrt(rng.uniform())
        ph = rng.uniform(0.0, 2.0 * np.pi)
        out.append(r * np.exp(1j * ph))
    return np.array(out)


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_batched_draws_equal_scalar_loop_bitwise(eps):
    for seed in range(20):
        D = wt._perturbations(eps, 10, seed * 7919)
        assert D.shape == (10, 7)
        for i in range(10):
            assert D[i].tobytes() == _scalar_draws(eps, seed * 7919, i).tobytes()


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
def test_perturb_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        perturb_experiment(family_of(T.ZERO, "zero"), eps, 3)


def test_perturb_unresolved_by_reason(monkeypatch):
    # a classifier that leaves samples 0 and 2 undecided for two reasons
    real = pn.classify_pair
    calls = []

    def classify(p):
        calls.append(p)
        if len(calls) == 1:
            raise AmbiguousNearBoundary("stub", [T.UNIMODULAR, T.DEFINITE])
        if len(calls) == 3:
            raise pn.StabilizerSolveFailed("stub", 1.0)
        return real(p)

    monkeypatch.setattr(pn, "classify_pair", classify)
    rep = perturb_experiment(family_of(T.RANK1_NILPOTENT, "zero"), 1e-5, 4,
                             seed=25)
    want = {"AmbiguousNearBoundary": 1, "StabilizerSolveFailed": 1}
    assert len(calls) == 4 and rep.violations == []
    assert rep.unresolved == 2 and sum(rep.histogram.values()) == 2
    assert rep.unresolved_by == want
    assert rep.to_json()["unresolved_by"] == want
    rep = perturb_experiment(family_of(T.ZERO, "rank1"), 1e-3, 6, seed=4)
    assert rep.unresolved_by == {} and rep.to_json()["unresolved_by"] == {}


# (a_family, b_form, params, eps, n, seed) and the report recorded before the
# draws were batched and the representatives memoised; unresolved_by came
# later and is left out of the comparison
LAB_PINS = [
    (("zero", "zero", {}, 1e-3, 8, 2),
     {"histogram": {"reciprocal|generic": 2, "unimodular|generic": 6}, "unresolved": 0}),
    (("zero", "rank1", {}, 1e-3, 6, 4),
     {"histogram": {"reciprocal|generic": 4, "unimodular|generic": 2}, "unresolved": 0}),
    (("rank1_semidef", "zero", {}, 1e-3, 8, 29),
     {"histogram": {"unimodular|generic": 8}, "unresolved": 0}),
    (("rank1_semidef", "a_plus_0", {"a": 1.0}, 1e-5, 1, 130),
     {"histogram": {"unimodular|generic": 1}, "unresolved": 0}),
    (("rank1_nilpotent", "zero", {}, 1e-5, 1, 25),
     {"histogram": {"reciprocal|generic": 1}, "unresolved": 0}),
    (("rank1_nilpotent", "zeta_b_1", {"zeta": 0.5 + 0.5j, "b": 0.7}, 1e-5, 6, 19),
     {"histogram": {"reciprocal|generic": 6}, "unresolved": 0}),
    (("definite", "a_lt_d", {"a": 0.5, "d": 1.5}, 1e-3, 6, 7),
     {"histogram": {"unimodular|generic": 6}, "unresolved": 0}),
    (("indefinite", "zero", {}, 1e-3, 1, 1014078877),
     {"histogram": {"unimodular|generic": 1}, "unresolved": 0}),
    (("indefinite", "h_one_plus_de", {"d": 1.2, "theta": 1.0}, 1e-3, 6, 23),
     {"histogram": {"reciprocal|generic": 3, "unimodular|generic": 3}, "unresolved": 0}),
    (("unimodular", "zero", {"theta": 2.0}, 1e-5, 6, 31),
     {"histogram": {"unimodular|generic": 6}, "unresolved": 0}),
    (("unimodular", "generic",
      {"theta": 1.0, "a": 0.8, "r": 0.5, "phi": 0.4, "d": 1.2}, 1e-5, 6, 11),
     {"histogram": {"unimodular|generic": 6}, "unresolved": 0}),
    (("reciprocal", "one_plus_zeta", {"tau": 0.3, "zeta": 0.4 - 0.2j}, 1e-3, 6, 13),
     {"histogram": {"reciprocal|generic": 6}, "unresolved": 0}),
    (("jordan", "a_plus_zeta", {"a": 0.9, "zeta": 0.3 + 0.5j}, 1e-3, 6, 17),
     {"histogram": {"reciprocal|generic": 3, "unimodular|generic": 3}, "unresolved": 0}),
]


@pytest.mark.parametrize("cell,want", LAB_PINS)
def test_perturb_report_pinned(cell, want):
    fam, form, params, eps, n, seed = cell
    cls = family_of(fam, form, **params)
    got = perturb_experiment(cls, eps, n, seed=seed).to_json()
    del got["unresolved_by"]
    assert got == {"source": str(cls), "eps": eps, "samples": n,
                   "violations": [], **want}
