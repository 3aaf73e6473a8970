"""pairorbit: normal-form orbits, closure graphs and perturbation
certificates for pairs (A, B) of one arbitrary and one symmetric 2x2
complex matrix under (c, P) . (A, B) = (c P* A P, P^T B P).

The public names below are loaded lazily (PEP 562): `import pairorbit`
imports no submodule, and the first access to a name imports the one
submodule that defines it.
"""

import importlib as _importlib

_EXPORTS = {
    "bounds": ("NonPathCertificate", "det_invariant_p", "nonpath_lower_bound",
               "phase_estimate"),
    "closure": ("EdgeCondition", "export_graph", "max_f", "pair_path",
                "pair_path_detail", "psi1_path", "psi2_path",
                "validate_graph"),
    "congruence": ("AmbiguousNearBoundary", "StarClass", "StarTag",
                   "classify_star", "classify_tcong", "cosquare", "takagi"),
    "families": ("FAMILIES", "OrbitClass", "family_of", "is_generic",
                 "orbit_class_from_json", "orbit_class_to_json",
                 "representative"),
    "matcore": ("Complex2x2", "GroupElement", "MatrixPair", "Sym2x2",
                "act_pair", "compose", "max_norm", "pair_distance",
                "sample_group", "sample_pair"),
    "pairnf": ("ClassifiedPair", "StabilizerSolveFailed", "classify_pair",
               "orbit_equal"),
    "surface": ("JetData", "is_quadratically_flat", "reduce_jet"),
    "tangent": ("RankUnstable", "orbit_dimension", "tangent_frame"),
    "witness": ("PerturbReport", "WitnessFamily", "perturb_experiment",
                "verify_witness", "witness_catalog"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # `pairorbit.closure` without importing it first
        return _importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
