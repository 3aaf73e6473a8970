"""Span tracing for the traced run, and the per-layer metrics computed from
the spans.

The tracer replaces module attributes of pairorbit (and
scipy.optimize.least_squares, which congruence imports inside its
functions) with timing wrappers; the package looks those names up at call
time, so nothing under src/ changes.  A span is (id, parent, trace, name,
start, end, attrs); spans started under one top-level operation share its
trace id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from pairorbit.matcore import PairOrbitError


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = 0
        self._children = 0

    def new_trace(self):
        self._trace += 1

    def adopt(self, spans):
        """Add the spans a traced child process recorded, tagged by child."""
        self._children += 1
        self.spans += [dict(s, proc=self._children) for s in spans]

    def _wrap(self, owner, attr, name, attrs_of=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                    "trace": self._trace, "name": name, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                span["error"] = type(e).__name__
                span["typed"] = isinstance(e, PairOrbitError)
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs_of:
                span.update(attrs_of(out))
            return out

        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layer boundaries.  Call after importing pairorbit, so that
        pairnf and witness keep their own (separately wrapped) binding of
        least_squares."""
        import scipy.optimize

        import pairorbit.closure as cl
        import pairorbit.pairnf as pn
        import pairorbit.witness as wt

        nfev = lambda sol: {"nfev": int(sol.nfev)}
        self._wrap(pn, "classify_pair", "pairnf.classify_pair")
        self._wrap(pn, "classify_star", "congruence.classify_star",
                   lambda red: {"tag": red.cls.tag})
        self._wrap(pn, "least_squares", "pairnf.least_squares", nfev)
        self._wrap(wt, "least_squares", "witness.least_squares", nfev)
        self._wrap(scipy.optimize, "least_squares", "scipy.least_squares", nfev)
        self._wrap(wt, "perturb_experiment", "witness.perturb_experiment",
                   lambda rep: {"samples": rep.samples})
        self._wrap(wt, "verify_witness", "witness.verify_witness")
        self._wrap(wt, "witness_catalog", "witness.witness_catalog")
        self._wrap(cl, "max_f", "closure.max_f")
        self._wrap(cl, "necessary_conditions_ok", "closure.necessary_conditions_ok")
        self._wrap(cl, "validate_graph", "closure.validate_graph")


# Per-layer metric -> unit.  ".ms" metrics are busy time summed over the
# traced run, except witness.check.ms, which is per lab sample.
PER_LAYER = {
    "congruence.classify_star.calls": "count", "congruence.classify_star.ms": "ms",
    "congruence.jordan.ms": "ms", "congruence.lsq.calls": "count",
    "congruence.lsq.nfev": "count", "pairnf.b_stage.ms": "ms",
    "pairnf.lsq.calls": "count", "pairnf.lsq.nfev": "count",
    "pairnf.fallback_ratio": "ratio", "pairnf.undecided.AmbiguousNearBoundary": "count",
    "pairnf.undecided.StabilizerSolveFailed": "count", "pairnf.crashed": "count",
    "witness.check.ms": "ms",
    "witness.catalog.lsq.calls": "count", "witness.catalog.lsq.nfev": "count",
    "witness.verify_witness.calls": "count", "closure.max_f.calls": "count",
    "closure.max_f.ms": "ms", "closure.validate.max_f_share": "ratio",
    "closure.necessary_conditions_ok.ms": "ms", "import.pairorbit_s": "s",
    "import.scipy_optimize_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer counts and busy times from a list of spans (which may come
    from several processes: ids are unique per process tag)."""
    by_id = {(s.get("proc", 0), s["id"]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s.get("proc", 0), s["parent"])].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def under(s, name):
        p = s["parent"]
        while p is not None:
            anc = by_id[(s.get("proc", 0), p)]
            if anc["name"] == name:
                return True
            p = anc["parent"]
        return False

    def kids(s, name):
        return [c for c in children[(s.get("proc", 0), s["id"])] if c["name"] == name]

    def descendants(s):
        for c in children[(s.get("proc", 0), s["id"])]:
            yield c
            yield from descendants(c)

    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    star, pair = named["congruence.classify_star"], named["pairnf.classify_pair"]
    star_lsq = [s for s in named["scipy.least_squares"] if under(s, "congruence.classify_star")]
    cat_lsq = [s for s in named["witness.least_squares"] if under(s, "witness.witness_catalog")]
    fallback = [p for p in pair if any(d["name"] == "pairnf.least_squares" for d in descendants(p))]
    pert = named["witness.perturb_experiment"]
    samples = sum(s.get("samples", 0) for s in pert)
    check_s = sum(dur(p) - sum(dur(c) for c in kids(p, "pairnf.classify_pair")) for p in pert)
    validate = named["closure.validate_graph"]
    val_s = sum(dur(v) for v in validate)
    val_maxf_s = sum(dur(m) for m in named["closure.max_f"] if under(m, "closure.validate_graph"))
    undecided = defaultdict(int)
    for p in pair:
        if "error" in p:
            undecided[p["error"]] += 1
    return {
        "congruence.classify_star.calls": len(star),
        "congruence.classify_star.ms": 1e3 * sum(map(dur, star)),
        "congruence.jordan.ms": 1e3 * sum(dur(s) for s in star if s.get("tag") == "jordan"),
        "congruence.lsq.calls": len(star_lsq),
        "congruence.lsq.nfev": sum(s.get("nfev", 0) for s in star_lsq),
        "pairnf.b_stage.ms": 1e3 * sum(
            dur(p) - sum(dur(c) for c in kids(p, "congruence.classify_star")) for p in pair),
        "pairnf.lsq.calls": len(named["pairnf.least_squares"]),
        "pairnf.lsq.nfev": sum(s.get("nfev", 0) for s in named["pairnf.least_squares"]),
        "pairnf.fallback_ratio": len(fallback) / len(pair) if pair else 0.0,
        "pairnf.undecided.AmbiguousNearBoundary": undecided["AmbiguousNearBoundary"],
        "pairnf.undecided.StabilizerSolveFailed": undecided["StabilizerSolveFailed"],
        # classify_pair raising anything but the package's typed errors
        "pairnf.crashed": sum(1 for p in pair if p.get("typed") is False),
        "witness.check.ms": 1e3 * check_s / samples if samples else 0.0,
        "witness.catalog.lsq.calls": len(cat_lsq),
        "witness.catalog.lsq.nfev": sum(s.get("nfev", 0) for s in cat_lsq),
        "witness.verify_witness.calls": sum(
            1 for s in named["witness.verify_witness"] if under(s, "witness.witness_catalog")),
        "closure.max_f.calls": len(named["closure.max_f"]),
        "closure.max_f.ms": 1e3 * sum(map(dur, named["closure.max_f"])),
        "closure.validate.max_f_share": val_maxf_s / val_s if val_s else 0.0,
        "closure.necessary_conditions_ok.ms":
            1e3 * sum(map(dur, named["closure.necessary_conditions_ok"])),
    }
