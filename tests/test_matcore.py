import json

import numpy as np
import pytest

from pairorbit.matcore import (
    Complex2x2,
    GroupElement,
    MatrixPair,
    Sym2x2,
    act_pair,
    compose,
    group_inverse,
    identity_element,
    least_squares,
    max_norm,
    pair_distance,
    pair_from_json,
    pair_to_json,
    raw_act_pair,
    raw_pair_distance,
    sample_group,
    sample_pair,
)

I2 = np.eye(2)


def test_identity_action():
    p = sample_pair(7)
    q = act_pair(identity_element(), p)
    assert pair_distance(p, q) == 0.0


def test_raw_action_matches_act_pair_bitwise():
    for seed in range(200):
        g, p, q = sample_group(seed), sample_pair(seed), sample_pair(seed + 1)
        want = act_pair(g, p)
        A, B = raw_act_pair(g.c, g.P, p)
        assert A.tobytes() == want.A.m.tobytes()
        assert B.tobytes() == want.B.m.tobytes()
        assert raw_pair_distance(A, B, q) == pair_distance(want, q)
    # unvalidated: a non-finite entry reaches the distance in either slot
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = raw_act_pair(1.0, np.diag([1e200, 1.0]), p)
        with pytest.raises(ValueError, match="finite"):
            act_pair(GroupElement(1.0, np.diag([1e200, 1.0])), p)
    assert not np.isfinite(raw_pair_distance(A, B, q))
    for nan_a in (True, False):
        A, B = raw_act_pair(1.0, I2, p)
        (A if nan_a else B)[1, 1] = np.nan
        assert np.isnan(raw_pair_distance(A, B, q))


def test_diagonal_conjugation_closed_form():
    # g = (1, diag(1, s)) maps (1+0, 0) to itself and scales the lambda slot
    s = 0.37
    g = GroupElement(1.0, np.diag([1.0, s]))
    p = MatrixPair.of(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    assert pair_distance(act_pair(g, p), p) == 0.0
    lam = 0.3 + 0.4j
    p2 = MatrixPair.of(np.diag([1.0, lam]), np.zeros((2, 2)))
    q2 = act_pair(g, p2)
    assert abs(q2.A.m[1, 1] - lam * s * s) < 1e-15


def test_determinant_identities():
    # |det A'| = |det P|^2 |det A| and det B' = (det P)^2 det B
    for seed in range(50):
        g = sample_group(seed)
        p = sample_pair(seed + 1000)
        q = act_pair(g, p)
        dP = np.linalg.det(g.P)
        assert abs(abs(np.linalg.det(q.A.m))
                   - abs(dP) ** 2 * abs(np.linalg.det(p.A.m))) < 1e-10
        assert abs(np.linalg.det(q.B.m)
                   - dP ** 2 * np.linalg.det(p.B.m)) < 1e-10


def test_left_action_composition():
    for seed in range(1000):
        g = sample_group(2 * seed)
        h = sample_group(2 * seed + 1)
        p = sample_pair(seed + 31337)
        lhs = act_pair(compose(g, h), p)
        rhs = act_pair(g, act_pair(h, p))
        assert pair_distance(lhs, rhs) < 1e-10


def test_symmetry_preserved_exactly():
    for seed in range(100):
        q = act_pair(sample_group(seed), sample_pair(seed + 5))
        assert q.B.m[0, 1] == q.B.m[1, 0]


def test_max_norm_values():
    assert max_norm(np.zeros((2, 2))) == 0.0
    assert max_norm(np.array([[3.0, 4j], [0.0, -5.0]])) == 5.0


def test_max_norm_submultiplicative_with_factor_two():
    rng = np.random.default_rng(0)
    for _ in range(300):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert max_norm(X @ Y) <= 2.0 * max_norm(X) * max_norm(Y) + 1e-12


def test_pair_distance_metric():
    p = MatrixPair.of(I2, np.zeros((2, 2)))
    q = MatrixPair.of(np.zeros((2, 2)), np.zeros((2, 2)))
    assert pair_distance(p, p) == 0.0
    assert pair_distance(p, q) == 1.0
    for seed in range(100):
        a, b, c = (sample_pair(3 * seed + k) for k in range(3))
        assert pair_distance(a, c) <= \
            pair_distance(a, b) + pair_distance(b, c) + 1e-14


def test_sample_group_determinism_and_invariants():
    assert np.array_equal(sample_group(11).P, sample_group(11).P)
    for seed in range(2000):
        g = sample_group(seed)
        assert abs(abs(g.c) - 1.0) <= 1e-12
        assert abs(np.linalg.det(g.P)) >= 1e-6


def test_sample_group_rejects_bad_spread():
    with pytest.raises(ValueError):
        sample_group(0, spread=0.0)


def test_group_inverse():
    for seed in range(50):
        g = sample_group(seed)
        p = sample_pair(seed)
        assert pair_distance(act_pair(group_inverse(g), act_pair(g, p)), p) < 1e-9


def test_sym_constructor_enforces_symmetry():
    with pytest.raises(ValueError):
        Sym2x2([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    s = Sym2x2.symmetrize([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    assert s.m[0, 1] == s.m[1, 0]


def test_json_round_trip():
    p = sample_pair(99)
    text = json.dumps(pair_to_json(p))
    q = pair_from_json(text)
    assert pair_distance(p, q) == 0.0


def _rosenbrock(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    J = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
    return r, J


def test_least_squares_converges_on_rosenbrock():
    sol = least_squares(_rosenbrock, [-1.2, 1.0], max_nfev=200)
    x, cost, nfev = sol
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert cost == sol.cost < 1e-25
    assert nfev == sol.nfev < 200


def test_least_squares_stops_at_max_nfev():
    sol = least_squares(_rosenbrock, [-1.2, 1.0], max_nfev=4)
    assert sol.nfev == 4 and sol.cost > 1e-3


def test_least_squares_stops_on_a_nonzero_minimum():
    # r = (x - 1, x + 1) has its minimum at x = 0 with cost 1 + x^2, so the
    # cost resolves x only to about sqrt(eps); the solver stops once the
    # damped step no longer moves x
    def fun(x):
        return np.array([x[0] - 1.0, x[0] + 1.0]), np.array([[1.0], [1.0]])
    sol = least_squares(fun, [3.0], max_nfev=500)
    assert abs(sol.x[0]) < 1e-7 and abs(sol.cost - 1.0) < 1e-14
    assert sol.nfev < 500


def test_least_squares_underdetermined_root():
    # one equation in two unknowns: J^T J is singular at every point
    def fun(x):
        s = x[0] + x[1]
        return np.array([s ** 3 - 1.0]), 3.0 * s * s * np.ones((1, 2))
    sol = least_squares(fun, [2.0, 1.0], max_nfev=300)
    assert abs(sol.x.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("kind", [Complex2x2, Sym2x2])
def test_signed_zeros_hash_equal(kind):
    # np.array_equal treats -0.0 and 0.0 as equal, so the hashes must agree
    a = kind([[0.0, 0.0], [0.0, 1.0]])
    b = kind([[-0.0, complex(0.0, -0.0)], [complex(0.0, -0.0), 1.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_copies_and_pickles_stay_read_only():
    import copy
    import pickle
    values = [Complex2x2([[1.0, 2.0], [3.0, 4j]]),
              Sym2x2([[1.0, 2j], [2j, 3.0]]),
              GroupElement(1j, [[1.0, 2.0], [0.0, 1.0]])]
    for v in values:
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(w) is type(v)
            arr, ref = (w.P, v.P) if isinstance(w, GroupElement) else (w.m, v.m)
            assert np.array_equal(arr, ref) and not arr.flags.writeable


def test_group_element_equality_and_hash():
    g = GroupElement(1j, [[1.0, 2.0], [0.0, 1.0]])
    h = GroupElement(1j, np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1
    assert g != GroupElement(-1j, [[1.0, 2.0], [0.0, 1.0]])
    assert g != GroupElement(1j, [[1.0, 2.0], [0.0, 1.5]])
    assert g != "not a group element"
    # signed zeros in c and in P hash alike
    z = GroupElement(complex(1.0, -0.0), [[1.0, -0.0], [-0.0, 1.0]])
    assert z == identity_element() and len({z, identity_element()}) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered in det")
@pytest.mark.parametrize("P", [
    [[1.0, 2.0], [2.0, 4.0]],
    [[1e200, 1e200], [1e200, 1e200]],    # closed form inf - inf = nan
    [[1e-200, 0.0], [0.0, 1e-200]],      # determinant underflows to 0
    [[0.0, 0.0], [0.0, 0.0]],
])
def test_group_element_rejects_singular_p(P):
    with pytest.raises(ValueError, match="invertible"):
        GroupElement(1.0, P)


@pytest.mark.parametrize("P", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[1e-300, 0.0], [0.0, 1e300]],
])
def test_group_element_accepts_invertible_p(P):
    assert np.array_equal(GroupElement(1.0, P).P, P)
