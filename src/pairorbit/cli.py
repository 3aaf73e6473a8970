"""Command-line interface.

stdout carries the machine-readable payload, stderr the diagnostics.
Exit codes: 0 success; 2 input error (malformed JSON, a matrix that is not
2x2, an out-of-range option, or an InputError: PreconditionViolated,
NotStandardPosition), with "error:" on stderr; 3 any other PairOrbitError
(ambiguous, unsolved or rank-unstable outcomes), with "undecided:" on
stderr.

Only the modules `classify` runs are imported here; every other
subcommand imports its own modules when it runs, so a process pays only
for the code it uses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .families import orbit_class_from_json, orbit_class_to_json
from .matcore import (
    Complex2x2,
    InputError,
    PairOrbitError,
    complex_from_json,
    complex_to_json,
    mat_from_json,
    mat_to_json,
    pair_from_json,
    pair_to_json,
)
from .pairnf import classify_pair

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def _load_pair(text):
    try:
        return pair_from_json(text)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        raise SystemExit(_input_error(f"bad pair JSON: {e}"))


def _load_class(text):
    try:
        return orbit_class_from_json(json.loads(text))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        raise SystemExit(_input_error(f"bad orbit-class JSON: {e}"))


def _input_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _reducer_json(g):
    return {"c": complex_to_json(g.c), "P": mat_to_json(g.P)}


def cmd_classify(args):
    out = classify_pair(_load_pair(args.pair), args.tol)
    payload = {"class": orbit_class_to_json(out.cls),
               "reducer": _reducer_json(out.reducer),
               "residual": out.residual}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_dim(args):
    from .tangent import orbit_dimension
    print(orbit_dimension(_load_pair(args.pair), args.tol))
    return EXIT_OK


def cmd_path(args):
    from .closure import pair_path_detail
    src = _load_class(args.src)
    dst = _load_class(args.dst)
    verdict, reason = pair_path_detail(src, dst)
    print(json.dumps({"path": verdict, "condition": reason}))
    return EXIT_OK


def cmd_graph(args):
    from .closure import export_graph
    print(export_graph(args.which, args.format))
    return EXIT_OK


def cmd_validate(args):
    from .closure import validate_graph
    rep = validate_graph(args.samples, args.seed)
    print(json.dumps(rep, indent=2, sort_keys=True))
    return EXIT_OK if not rep["violations"] else EXIT_UNDECIDED


def cmd_maxf(args):
    from .closure import max_f
    try:
        d = complex_from_json(json.loads(args.d)) if args.d.startswith("[") \
            else complex_from_json(args.d)
    except (ValueError, json.JSONDecodeError) as e:
        return _input_error(f"bad d: {e}")
    try:
        M = max_f(args.a, args.b, d, args.theta)
    except ValueError as e:
        return _input_error(str(e))
    print(repr(float(M)))  # shortest string that reads back to M
    return EXIT_OK


def cmd_bounds(args):
    from .bounds import det_invariant_p, nonpath_lower_bound
    src = _load_pair(args.src)
    dst = _load_pair(args.dst)
    p = det_invariant_p(src, dst)
    cert = nonpath_lower_bound(src, dst, normalize=not args.raw)
    payload = {"p": p,
               "certificate": None if cert is None else cert.to_json()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_phase(args):
    from .bounds import phase_estimate
    src = _load_mat(args.src)
    dst = _load_mat(args.dst)
    delta, g, r = phase_estimate(src, dst, args.enorm)
    print(json.dumps({"delta": delta, "g_bound": g, "r_bound": r}))
    return EXIT_OK


def _load_mat(text):
    try:
        return Complex2x2(mat_from_json(json.loads(text)))
    except (json.JSONDecodeError, ValueError, TypeError) as e:
        raise SystemExit(_input_error(f"bad matrix JSON: {e}"))


def cmd_witness(args):
    from .witness import verify_witness, witness_catalog
    cat = witness_catalog()
    if args.verify:
        bad = 0
        for w in cat:
            rep = verify_witness(w, strict=False)
            status = "ok" if rep.passed else "FAIL"
            bad += 0 if rep.passed else 1
            print(f"{status} {w.name}: final residual {rep.final_residual:.2e}")
        return EXIT_OK if bad == 0 else EXIT_UNDECIDED
    for w in cat:
        print(json.dumps({"name": w.name, "src": str(w.src),
                          "dst": str(w.dst), "citation": w.citation}))
    return EXIT_OK


def cmd_perturb(args):
    from .witness import perturb_experiment
    cls = _load_class(args.cls)
    rep = perturb_experiment(cls, args.eps, args.samples, args.seed)
    print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    return EXIT_OK if not rep.violations else EXIT_UNDECIDED


def cmd_jet(args):
    from .surface import is_quadratically_flat, jet_from_json, reduce_jet
    try:
        j = jet_from_json(args.jet)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        return _input_error(f"bad jet JSON: {e}")
    pair, rec = reduce_jet(j, args.tol)
    payload = {"pair": pair_to_json(pair),
               "quadratically_flat": is_quadratically_flat(pair, args.tol),
               "z_shift": [[v.real, v.imag] for v in rec.z_shift]}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pairorbit",
        description="normal-form orbits and closure graphs for pairs of "
                    "2x2 complex matrices")
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="numeric tolerance of classify, dim and jet; "
                         "maxf always runs to float resolution and "
                         "ignores it (default 1e-9)")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for randomized subcommands (default 0)")
    ap.add_argument("--strict", action="store_true",
                    help="require an explicit --seed for randomized "
                         "subcommands")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="classify a pair into its family")
    c.add_argument("--pair", required=True, help="pair JSON {A: ..., B: ...}")
    c.set_defaults(fn=cmd_classify)

    c = sub.add_parser("dim", help="orbit dimension of a pair")
    c.add_argument("--pair", required=True)
    c.set_defaults(fn=cmd_dim)

    c = sub.add_parser("path", help="closure-graph reachability query")
    c.add_argument("--src", dest="src", required=True, help="orbit-class JSON")
    c.add_argument("--dst", dest="dst", required=True)
    c.set_defaults(fn=cmd_path)

    c = sub.add_parser("graph", help="export a closure graph")
    c.add_argument("which", choices=["psi1", "psi2", "pair"])
    c.add_argument("--format", choices=["dot", "json"], default="dot")
    c.set_defaults(fn=cmd_graph)

    c = sub.add_parser("validate", help="run the edge validator")
    c.add_argument("--samples", type=int, default=20)
    c.set_defaults(fn=cmd_validate)

    c = sub.add_parser("maxf", help="constrained maximum M(a, b, d, theta)")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--b", type=float, required=True)
    c.add_argument("--d", required=True, help="complex as re+imi or [re,im]")
    c.add_argument("--theta", type=float, required=True)
    c.set_defaults(fn=cmd_maxf)

    c = sub.add_parser("bounds", help="non-path certificate between pairs")
    c.add_argument("--src", required=True)
    c.add_argument("--dst", required=True)
    c.add_argument("--raw", action="store_true",
                   help="skip the normal-form reduction of src")
    c.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("phase", help="unit-scalar phase and det bounds")
    c.add_argument("--src", required=True, help="matrix JSON")
    c.add_argument("--dst", required=True)
    c.add_argument("--enorm", type=float, required=True)
    c.set_defaults(fn=cmd_phase)

    c = sub.add_parser("witness", help="list or verify the witness catalog")
    c.add_argument("--verify", action="store_true")
    c.set_defaults(fn=cmd_witness)

    c = sub.add_parser("perturb", help="Monte-Carlo perturbation experiment")
    c.add_argument("--class", dest="cls", required=True,
                   help="orbit-class JSON")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--samples", type=int, default=1000)
    c.set_defaults(fn=cmd_perturb)

    c = sub.add_parser("jet", help="reduce jet data to the quadratic pair")
    c.add_argument("--jet", required=True, help="jet JSON")
    c.set_defaults(fn=cmd_jet)
    return ap


_RANDOMIZED = {cmd_perturb, cmd_validate}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.seed is None:
        if args.strict and getattr(args, "fn", None) in _RANDOMIZED:
            return _input_error("--strict requires an explicit --seed for "
                                "randomized subcommands")
        args.seed = 0
    if args.seed < 0:
        return _input_error("--seed must be nonnegative")
    if not args.tol > 0:
        return _input_error("--tol must be positive")
    if not 0.0 < getattr(args, "eps", 1.0) < math.inf:
        return _input_error("--eps must be positive and finite")
    if getattr(args, "samples", 1) < 1:
        return _input_error("--samples must be at least 1")
    try:
        return args.fn(args)
    except InputError as e:
        return _input_error(str(e))
    except PairOrbitError as e:
        print(f"undecided: {e}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
