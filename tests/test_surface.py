import numpy as np
import pytest

from pairorbit.matcore import MatrixPair, act_pair, sample_group
from pairorbit.pairnf import classify_pair
from pairorbit.surface import (
    JetData,
    NotStandardPosition,
    is_quadratically_flat,
    jet_from_json,
    jet_to_json,
    jet_value,
    reduce_jet,
)

rng = np.random.default_rng(11)


def _rand_sym():
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return 0.5 * (M + M.T)


def _rand_mat():
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def _substitution_residual(j, pair, rec, trials=50):
    """Oracle: the substituted graph function must equal the normal form
    conj(z)^T A z + Re(z^T B z) on sampled points."""
    worst = 0.0
    for _ in range(trials):
        zeta = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        z = rec.z_shift + zeta
        w = jet_value(j, z)
        wt = w - rec.w_const - rec.w_linear @ zeta \
            - 0.5 * zeta @ (rec.w_quadratic @ zeta)
        model = zeta.conj() @ (pair.A.m @ zeta) \
            + np.real(zeta @ (pair.B.m @ zeta))
        worst = max(worst, abs(wt - model))
    return worst


def test_trivial_substitution_identity():
    Breal = np.array([[1.0, 0.5], [0.5, 2.0]])
    j = JetData.of(0.0, [0, 0], [0, 0], np.eye(2), Breal, Breal)
    pair, rec = reduce_jet(j)
    assert np.array_equal(pair.A.m, np.eye(2))
    assert np.array_equal(pair.B.m, Breal)
    assert np.max(np.abs(rec.w_quadratic)) == 0.0
    assert np.max(np.abs(rec.z_shift)) == 0.0


def test_linear_term_removed_without_quadratic_correction():
    B = _rand_sym()
    j = JetData.of(0.0, [1.0, 0.0], [0, 0], np.eye(2), B, B.conj())
    pair, rec = reduce_jet(j)
    assert np.max(np.abs(rec.w_quadratic)) < 1e-15
    assert np.allclose(pair.A.m, np.eye(2))
    assert _substitution_residual(j, pair, rec) < 1e-12


def test_general_jet_against_expansion_oracle():
    for _ in range(8):
        j = JetData.of(complex(rng.standard_normal(), rng.standard_normal()),
                       _rand_mat()[0], 0.02 * _rand_mat()[0],
                       _rand_mat(), _rand_sym(), _rand_sym())
        pair, rec = reduce_jet(j)
        assert _substitution_residual(j, pair, rec) < 1e-12
        # output B is the conjugate of the jet's zbar-zbar coefficient
        assert np.allclose(pair.B.m, j.B.m.conj())


def test_not_standard_position():
    j = JetData.of(0, [0, 0], [0.5, 0.0], np.eye(2), np.zeros((2, 2)),
                   np.zeros((2, 2)))
    with pytest.raises(NotStandardPosition):
        reduce_jet(j)


def test_degenerate_complex_point_rejected():
    # A = B = 0: s + A z + B conj(z) = 0 has no solution to move to
    zero = np.zeros((2, 2))
    j = JetData.of(0, [0, 0], [1e-3, 0], zero, zero, zero)
    with pytest.raises(NotStandardPosition, match="degenerate"):
        reduce_jet(j)


def test_untranslatable_linear_term_rejected():
    # cond(A) = 1e14: the real 4x4 system solves, but the translated jet
    # keeps an antiholomorphic linear term far above tol
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.exp(0.3j) * np.array([[c, -s], [s, c]])
    A = Q @ np.diag([1.0, 1e-14]) @ Q.conj().T
    zero = np.zeros((2, 2))
    j = JetData.of(0, [0, 0], [1e-3, 2e-3j], A, zero, zero)
    with pytest.raises(NotStandardPosition, match="did not remove"):
        reduce_jet(j)


def test_classification_invariant_under_graph_preserving_changes():
    """Upper-triangular chart changes [[P, r], [0, c]] act on the quadratic
    pair through the matrix-pair action, so the classified family and
    parameters are unchanged."""
    A0 = np.array([[1.0, 0.5 + 0.2j], [0.1, 2.0 + 0.1j]])
    B0 = _rand_sym()
    j = JetData.of(0.0, [0.3, -0.2], [0, 0], A0, B0, _rand_sym())
    pair, _ = reduce_jet(j)
    base = classify_pair(pair)
    for seed in range(25):
        g = sample_group(seed)
        # the chart change with block P and scalar c acts as
        # (A, B) -> (c^{-1} P* A P, cbar^{-1} P^T B P); unit |c| keeps it
        # inside the S^1-reduced action implemented by act_pair
        moved = act_pair(g, pair)
        got = classify_pair(moved)
        assert got.cls.close_to(base.cls, 1e-6)


def test_flatness_examples():
    assert is_quadratically_flat(MatrixPair.of(np.eye(2), _rand_sym()))
    assert not is_quadratically_flat(
        MatrixPair.of(np.array([[0, 1], [1, 1j]]), np.zeros((2, 2))))
    H = _rand_sym().real + np.eye(2)  # random Hermitian (real symmetric)
    noisy = H + 1e-12 * _rand_mat()
    assert is_quadratically_flat(MatrixPair.of(noisy, np.zeros((2, 2))))


def test_flatness_orbit_meaning_is_invariant():
    """Literal Hermitian-ness only survives real unit scalars; the invariant
    content (the orbit admits a Hermitian representative, i.e. the A family
    is one of the four Hermitian-representable ones) is action invariant."""
    from pairorbit.congruence import StarTag as T
    flat_tags = {T.ZERO, T.RANK1_SEMIDEF, T.DEFINITE, T.INDEFINITE}
    for A0 in (np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 0.0])):
        p = MatrixPair.of(A0, _rand_sym())
        assert is_quadratically_flat(p)
        for seed in range(20):
            moved = act_pair(sample_group(seed), p)
            assert classify_pair(moved).cls.a_family in flat_tags
    nonflat = MatrixPair.of(np.diag([1.0, np.exp(1.2j)]), _rand_sym())
    assert not is_quadratically_flat(nonflat)
    for seed in range(10):
        moved = act_pair(sample_group(seed), nonflat)
        assert classify_pair(moved).cls.a_family not in flat_tags


def test_jet_json_round_trip():
    j = JetData.of(1 + 2j, [0.1, 0.2j], [0.01, 0.0], _rand_mat(),
                   _rand_sym(), _rand_sym())
    back = jet_from_json(jet_to_json(j))
    assert back.w0 == j.w0
    assert np.array_equal(back.A.m, j.A.m)
    assert np.array_equal(back.B.m, j.B.m)
