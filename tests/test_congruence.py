import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairorbit.congruence import (
    _kappa,
    AmbiguousNearBoundary,
    StarClass,
    StarTag,
    classify_star,
    classify_tcong,
    cosquare,
    star_representative,
    takagi,
)
from pairorbit.matcore import (
    DEFAULT_TOL,
    Complex2x2,
    PairOrbitError,
    SingularInput,
    Sym2x2,
    act_star,
    group_inverse,
    max_norm,
    sample_group,
)


def test_cosquare_closed_forms():
    theta = 0.7
    A = Complex2x2(np.diag([1.0, np.exp(1j * theta)]))
    got = cosquare(A).m
    assert max_norm(got - np.diag([1.0, np.exp(2j * theta)])) < 1e-14

    tau = 0.42
    A = Complex2x2([[0.0, 1.0], [tau, 0.0]])
    got = cosquare(A).m
    assert max_norm(got - np.diag([tau, 1.0 / tau])) < 1e-13

    A = Complex2x2([[0.0, 1.0], [1.0, 1j]])
    got = cosquare(A).m
    assert max_norm(got - np.array([[1.0, 2j], [0.0, 1.0]])) < 1e-13


def test_cosquare_singular_input():
    with pytest.raises(SingularInput):
        cosquare(Complex2x2(np.diag([1.0, 0.0])))


def test_cosquare_similarity_transform():
    # cosquare(c P* A P) is similar to c^2 cosquare(A)
    rng = np.random.default_rng(3)
    for seed in range(100):
        A = Complex2x2(rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        if abs(np.linalg.det(A.m)) < 1e-3:
            continue
        g = sample_group(seed)
        W1 = np.sort_complex(np.linalg.eigvals(cosquare(act_star(g, A)).m))
        W2 = np.sort_complex(g.c ** 2 * np.linalg.eigvals(cosquare(A).m))
        assert max(abs(W1 - W2)) < 1e-8 * max(1.0, max(abs(W2)))


_REPS = [
    (StarClass(StarTag.ZERO), None),
    (StarClass(StarTag.RANK1_SEMIDEF), None),
    (StarClass(StarTag.RANK1_NILPOTENT), None),
    (StarClass(StarTag.DEFINITE), None),
    (StarClass(StarTag.INDEFINITE), None),
    (StarClass(StarTag.UNIMODULAR, theta=np.pi / 3), "theta"),
    (StarClass(StarTag.UNIMODULAR, theta=2.8), "theta"),
    (StarClass(StarTag.RECIPROCAL, tau=0.2), "tau"),
    (StarClass(StarTag.RECIPROCAL, tau=0.85), "tau"),
    (StarClass(StarTag.JORDAN), None),
]


@pytest.mark.parametrize("cls,param", _REPS)
def test_classify_star_constant_on_orbits(cls, param):
    A0 = star_representative(cls)
    for seed in range(150):
        g = sample_group(seed + 17)
        red = classify_star(act_star(group_inverse(g), A0))
        assert red.cls.tag == cls.tag
        if param == "theta":
            assert abs(red.cls.theta - cls.theta) < 1e-6
        if param == "tau":
            assert abs(red.cls.tau - cls.tau) < 1e-6
        assert red.residual < 1e-8


def test_classify_star_reducer_is_exact():
    for seed in range(30):
        cls = StarClass(StarTag.UNIMODULAR, theta=1.1)
        A = act_star(group_inverse(sample_group(seed)), star_representative(cls))
        red = classify_star(A)
        got = act_star(red.reducer, A)
        assert max_norm(got.m - star_representative(red.cls).m) < 1e-8


def test_indefinite_example_antidiagonal():
    red = classify_star(Complex2x2([[0.0, 1.0], [1.0, 0.0]]))
    assert red.cls.tag == StarTag.INDEFINITE


def test_definite_vs_indefinite_by_signature():
    # scalar cosquare: the Hermitianized matrix decides
    for seed, mat, tag in [
            (0, np.eye(2), StarTag.DEFINITE),
            (1, 1j * np.eye(2), StarTag.DEFINITE),
            (2, np.diag([1.0, -1.0]), StarTag.INDEFINITE),
            (3, np.diag([-2.0, -3.0]), StarTag.DEFINITE)]:
        red = classify_star(Complex2x2(np.asarray(mat, dtype=complex)))
        assert red.cls.tag == tag, mat


def test_ambiguous_near_tau_one():
    A = Complex2x2([[0.0, 1.0], [1.0 - 1e-12, 0.0]])
    with pytest.raises(AmbiguousNearBoundary) as e:
        classify_star(A, tol=1e-9)
    assert len(e.value.candidates) >= 2


def test_ill_conditioned_unimodular_diagonal():
    # |det A| = 1e-7: kappa = cos 2 exactly, though 200 u cond(A)^2 = 4.4
    red = classify_star(Complex2x2(np.diag([1.0, 1e-7 * np.exp(2j)])))
    assert red.cls.tag == StarTag.UNIMODULAR
    assert abs(red.cls.theta - 2.0) < 1e-12
    assert red.residual < 1e-8


@pytest.mark.parametrize("scale", [1e150, 1e300])
def test_rank2_classes_at_huge_scale(scale):
    # kappa is scale-free and is computed on A / max|a_ij|, so nothing
    # overflows
    for cls, _ in _REPS[3:]:
        red = classify_star(Complex2x2(scale * star_representative(cls).m))
        assert red.cls.tag == cls.tag and red.residual < 1e-12
        if cls.tag in (StarTag.UNIMODULAR, StarTag.RECIPROCAL):
            assert abs(_param(red.cls) - _param(cls)) < 1e-14


def _unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    return q


def _param(cls):
    return cls.theta if cls.tag == StarTag.UNIMODULAR else cls.tau


@pytest.mark.parametrize("cond_p", [1e3, 1e4, 1e6])
def test_ill_conditioned_orbit_points(cond_p):
    # exact orbit points c P* rep P with cond(P) = cond_p, so cond(A) =
    # cond_p^2.  The tag and parameter must come out right (the parameter to
    # a first-order multiple of u cond(A)) or the classifier must raise.
    rng = np.random.default_rng(int(cond_p))
    classes = ([StarClass(StarTag.UNIMODULAR, theta=t)
                for t in np.linspace(0.2, 2.9, 8)]
               + [StarClass(StarTag.RECIPROCAL, tau=t)
                  for t in np.linspace(0.05, 0.95, 8)])
    decided = 0
    for cls in classes:
        for _ in range(25):
            P = (_unitary(rng) @ np.diag([cond_p ** 0.5, cond_p ** -0.5])
                 @ _unitary(rng))
            c = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            A = c * P.conj().T @ star_representative(cls).m @ P
            s = np.linalg.svd(A, compute_uv=False)
            # the rank gate is relative to tol: at cond(A) = 1e12 it reads A
            # as rank 1 under the default tol, so kappa is run below 1/cond(A)
            tol = min(DEFAULT_TOL, 0.1 * s[1] / s[0])
            try:
                red = classify_star(Complex2x2(A), tol)
            except PairOrbitError:
                continue
            decided += 1
            assert red.cls.tag == cls.tag
            assert abs(_param(red.cls) - _param(cls)) <= (
                1e3 * np.finfo(float).eps * s[0] / s[1])
    assert decided >= 0.9 * 25 * len(classes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16),
       st.floats(0.0, 2.0 * np.pi))
def test_kappa_is_invariant_within_its_bound(xs, phi):
    A = (np.array(xs[:4]) + 1j * np.array(xs[4:8])).reshape(2, 2)
    P = (np.array(xs[8:12]) + 1j * np.array(xs[12:])).reshape(2, 2)
    assume(abs(np.linalg.det(A)) > 1e-3 and abs(np.linalg.det(P)) > 1e-3)
    k1, e1, _ = _kappa(A)
    k2, e2, _ = _kappa(np.exp(1j * phi) * P.conj().T @ A @ P)
    assert k1 <= 1.0 + e1
    assert abs(k1 - k2) <= e1 + e2


def test_takagi_factorization():
    rng = np.random.default_rng(1)
    for _ in range(200):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = 0.5 * (M + M.T)
        U, s = takagi(B)
        assert max_norm(U @ U.conj().T - np.eye(2)) < 1e-10
        assert max_norm(U @ np.diag(s) @ U.T - B) < 1e-10
        assert s[0] >= s[1] >= 0


def test_classify_tcong_examples():
    assert classify_tcong(Sym2x2(np.zeros((2, 2)))).rank == 0
    red = classify_tcong(Sym2x2([[0.0, 1.0], [1.0, 0.0]]))
    assert red.rank == 2
    got = red.reducer.T @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ red.reducer
    assert max_norm(got - np.eye(2)) < 1e-10
    assert classify_tcong(Sym2x2([[1.0, 1j], [1j, -1.0]])).rank == 1


def test_classify_tcong_rank_vs_svd():
    rng = np.random.default_rng(5)
    for k in range(10000):
        r = k % 3
        V = rng.standard_normal((2, r)) + 1j * rng.standard_normal((2, r))
        B = V @ V.T if r else np.zeros((2, 2), dtype=complex)
        B = 0.5 * (B + B.T)
        expected = int(np.sum(np.linalg.svd(B, compute_uv=False) > 1e-9))
        red = classify_tcong(Sym2x2.symmetrize(B))
        assert red.rank == expected
        assert red.residual < 1e-9 * max(1.0, max_norm(B))


def test_star_representative_constants_and_parametric_tags():
    for tag in (StarTag.ZERO, StarTag.RANK1_SEMIDEF, StarTag.RANK1_NILPOTENT,
                StarTag.DEFINITE, StarTag.INDEFINITE, StarTag.JORDAN):
        rep = star_representative(StarClass(tag))
        assert rep is star_representative(StarClass(tag))
        assert not rep.m.flags.writeable
    for theta in (0.3, 1.0, 2.9):
        rep = star_representative(StarClass(StarTag.UNIMODULAR, theta=theta))
        want = np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]])
        assert rep.m.tobytes() == want.tobytes()
    for tau in (0.1, 0.5, 0.95):
        rep = star_representative(StarClass(StarTag.RECIPROCAL, tau=tau))
        want = np.array([[0.0, 1.0], [tau, 0.0]], dtype=complex)
        assert rep.m.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        star_representative(StarClass("no_such_tag"))
