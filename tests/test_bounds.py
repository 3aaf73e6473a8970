import numpy as np
import pytest

from pairorbit.bounds import (
    BadParams,
    PreconditionViolated,
    det_invariant_p,
    nonpath_lower_bound,
    phase_estimate,
    residual_expressions,
)
from pairorbit.congruence import StarTag as T
from pairorbit.families import family_of, representative
from pairorbit.matcore import (
    Complex2x2,
    MatrixPair,
    act_pair,
    act_star,
    group_inverse,
    max_norm,
    sample_group,
    sample_pair,
)

I2 = np.eye(2)


def test_det_invariant_p_examples():
    src = MatrixPair.of(I2, I2)
    dst = MatrixPair.of(np.diag([1.0, -1.0]), I2)
    assert abs(det_invariant_p(src, dst)) < 1e-15
    src = MatrixPair.of(I2, np.diag([1.0, 0.0]))
    dst = MatrixPair.of(I2, I2)
    assert abs(det_invariant_p(src, dst) - 1.0) < 1e-15


def test_det_invariant_p_against_direct_arithmetic():
    for seed in range(200):
        src, dst = sample_pair(seed), sample_pair(seed + 9999)
        direct = abs(np.linalg.det(src.A.m) * np.linalg.det(dst.B.m)) \
            - abs(np.linalg.det(src.B.m) * np.linalg.det(dst.A.m))
        assert abs(det_invariant_p(src, dst) - direct) < 1e-12


def test_certificates_spec_examples():
    # the identity's sharp max-norm singularity radius is 1/2 ([[1,1],[1,1]]/2
    # is a rank-one symmetric matrix at distance 1/2, so the induced-norm
    # value 1 would be falsified by the random search below)
    c = nonpath_lower_bound(MatrixPair.of(I2, np.zeros((2, 2))),
                            MatrixPair.of(np.diag([1.0, 0.0]),
                                          np.zeros((2, 2))))
    assert c.rule == "SingularityRule" and abs(c.bound_E - 0.5) < 1e-12

    c = nonpath_lower_bound(MatrixPair.of(I2, I2),
                            MatrixPair.of(I2, np.diag([1.0, 0.0])))
    assert c.rule == "TcongRule" and abs(c.bound_F - 0.5) < 1e-12

    c = nonpath_lower_bound(MatrixPair.of(I2, I2),
                            MatrixPair.of(np.diag([1.0, -1.0]),
                                          np.diag([2.0, 1.0])))
    assert c.rule == "DetRatioRule"
    assert abs(c.bound_E - 1.0 / 24.0) < 1e-12
    assert abs(c.bound_F - 1.0 / 12.0) < 1e-12


def test_certificate_norm_rule():
    # singular nonzero source so only the norm rule applies on the A side
    c = nonpath_lower_bound(MatrixPair.of([[0.0, 2.0], [0.0, 0.0]],
                                          np.zeros((2, 2))),
                            MatrixPair.of(np.zeros((2, 2)), np.zeros((2, 2))),
                            normalize=False)
    assert c.rule == "NormRule" and abs(c.bound_E - 2.0) < 1e-12


def test_certificate_none_when_no_rule():
    # src on a true edge toward dst: no rule applies
    src = representative(family_of(T.ZERO, "zero"))
    dst = representative(family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0))
    assert nonpath_lower_bound(src, dst, normalize=False) is None


def test_certificate_soundness_random_search():
    """Falsification sweep: no sampled orbit point of dst lands within the
    certified ball around src."""
    cases = [
        (MatrixPair.of(I2, I2), MatrixPair.of(I2, np.diag([1.0, 0.0]))),
        (MatrixPair.of(I2, I2),
         MatrixPair.of(np.diag([1.0, -1.0]), np.diag([2.0, 1.0]))),
        (MatrixPair.of(np.diag([1.0, 0.4]), np.diag([1.0, 0.7])),
         MatrixPair.of(np.diag([1.0, -1.0]), np.diag([2.0, 1.0]))),
    ]
    for src, dst in cases:
        cert = nonpath_lower_bound(src, dst, normalize=False)
        assert cert is not None
        bE = np.inf if cert.bound_E is None else cert.bound_E
        bF = np.inf if cert.bound_F is None else cert.bound_F
        for seed in range(3000):
            q = act_pair(sample_group(seed), dst)
            dE = max_norm(q.A.m - src.A.m)
            dF = max_norm(q.B.m - src.B.m)
            assert not (dE < bE and dF < bF), (seed, dE, dF)


def test_phase_estimate_values():
    d, g, r = phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.0)
    assert d == 0.0 and g == 0.0 and r == 0.0
    d, g, r = phase_estimate(Complex2x2(I2), Complex2x2(np.diag([1.0, -1.0])),
                             0.01)
    assert abs(abs(d) - np.pi) < 1e-12
    assert abs(g - 0.12) < 1e-12
    assert abs(r - 0.06) < 1e-12


def test_phase_estimate_precondition():
    with pytest.raises(PreconditionViolated):
        phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.2)
    with pytest.raises(PreconditionViolated):
        phase_estimate(Complex2x2(np.diag([1.0, 0.0])), Complex2x2(I2), 0.0)
    # NaN passes both halves of `E_norm < 0 or E_norm > radius`
    for bad, msg in ((float("nan"), "finite"), (float("inf"), "finite"),
                     (-1.0, "nonnegative"), (0.2, "exceeds")):
        with pytest.raises(PreconditionViolated, match=msg):
            phase_estimate(Complex2x2(I2), Complex2x2(I2), bad)
    assert phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.0) == (0.0, 0.0, 0.0)


def test_phase_estimate_monte_carlo():
    src = Complex2x2(np.array([[1.2, 0.3], [0.1j, 1.5]], dtype=complex))
    rng = np.random.default_rng(2)
    checked = 0
    for seed in range(1500):
        g_el = sample_group(seed, 0.8)
        E = 1e-4 * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
        dst = act_star(group_inverse(g_el), Complex2x2(src.m + E))
        En = max_norm(E)
        try:
            delta, gb, rb = phase_estimate(src, dst, En)
        except PreconditionViolated:
            continue
        checked += 1
        c = g_el.c
        half = np.exp(0.5j * delta)
        assert min(abs(c - half), abs(c + half)) <= gb
        ratio = np.sqrt(abs(np.linalg.det(src.m) / np.linalg.det(dst.m)))
        assert abs(abs(np.linalg.det(g_el.P)) - ratio) <= rb
    assert checked > 1000


def test_residual_rows_identity_values():
    vals = residual_expressions("C6", 1.0, np.eye(2), {"tau": 0.3})
    assert vals == [0.0, 0.0, 0.0, 0.0]
    vals = residual_expressions("C3", 1.0, np.eye(2),
                                {"alpha": 1, "theta": 0.0})
    assert vals == [0.0, 0.0, 1.0]


def test_residual_rows_bad_params():
    with pytest.raises(BadParams):
        residual_expressions("C6", 1.0, np.eye(2), {"tau": 1.5})
    with pytest.raises(BadParams):
        residual_expressions("C3", 1.0, np.eye(2), {"alpha": 2, "theta": 0.0})
    with pytest.raises(BadParams):
        residual_expressions("C7", 1.0, np.eye(2),
                             {"alpha": 1, "beta": 1, "omega": 0})
    with pytest.raises(BadParams):
        residual_expressions("C99", 1.0, np.eye(2), {})


def test_residual_rows_bounded_along_witness():
    """Forward check: along a realization c P* A P = A~ + E of a row's
    (A~, A) line, the row expressions stay within a fitted multiple of
    ||E||."""
    from pairorbit.congruence import star_representative
    from pairorbit.congruence import StarClass

    # C4 line: A~ = 1 (+) 0, A = [[0,1],[tau,0]]
    tau = 0.35
    A = star_representative(StarClass(T.RECIPROCAL, tau=tau)).m
    Atil = np.diag([1.0 + 0j, 0.0])
    ratios = []
    for s in (1e-1, 1e-2, 1e-3, 1e-4):
        g0 = 1.0 / np.sqrt(1.0 + tau)
        P = g0 * np.array([[1.0, 0.0], [1.0, s]], dtype=complex)
        c = 1.0
        E = c * (P.conj().T @ A @ P) - Atil
        vals = residual_expressions("C4", c, P, {"alpha": 1, "tau": tau})
        ratios.append(max(vals) / max_norm(E))
    assert max(ratios) < 50.0


def test_residual_rows_c12_and_c9_k_branch():
    # expressions involving (-1)^k pick the better integer branch; the C12
    # line 1 (+) -1 -> [[0,1],[1,0]] is realized exactly by the Hadamard-like
    # congruence
    Q = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
    vals = residual_expressions("C12", 1.0, Q)
    assert max(vals) <= 1e-12
    vals = residual_expressions("C9", 1.0, np.eye(2),
                                {"alpha": 1, "omega": 1, "sigma": 1})
    assert max(vals) <= 1e-12
