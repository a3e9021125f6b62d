import math
from fractions import Fraction

import numpy as np
import pytest

from regime import mmatrix
from regime.errors import InconsistentChecks
from regime.mmatrix import BOUNDARY_BAND
from regime import (
    invariant_measure,
    is_nonsingular_mmatrix,
    leading_minors,
    least_real_eigenvalue,
    perron,
    semipositive_certificate,
    validate_qmatrix,
    z_pattern,
)

Q2 = validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]])


def upper_ones(m: int) -> np.ndarray:
    """The m x m upper-triangular all-ones matrix H, (H v)_i = v_i + ... + v_m."""
    if m < 1:
        raise ValueError("size must be positive")
    return np.triu(np.ones((m, m)))


def critical_p(q, beta, p_max: float = 1.0, tol: float = 1e-8) -> float:
    """Largest p in (0, p_max] below which eta_p stays positive, by bisection.

    Requires the averaged drift sum(mu_i beta_i) to be negative, which makes
    eta_p > 0 near p = 0; returns p_max when eta never turns negative on the
    bracket.
    """
    b = np.asarray(beta, dtype=float).ravel()
    s = float(invariant_measure(q) @ b)
    if s >= -1e-12 * max(1.0, float(np.abs(b).max())):
        raise ValueError(f"averaged drift {s:g} is not negative")
    if perron(q, b, p_max).eta_p > 0:
        return float(p_max)
    lo = min(1e-6, p_max / 2)
    for _ in range(40):
        if perron(q, b, lo).eta_p > 0:
            break
        lo /= 10
    else:
        raise ValueError("could not locate a positive eta near p = 0")
    hi = p_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if perron(q, b, mid).eta_p > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_leading_minors(a) -> list:
    """Leading minors of A in exact rationals (Bareiss fraction-free elimination)."""
    m = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=float).tolist()]
    n = len(m)
    out, prev = [], Fraction(1)
    for k in range(n):
        out.append(m[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return out


def exactly_semipositive(a, x) -> bool:
    """x >> 0 and A x >> 0 in exact arithmetic on the given floats."""
    xs = [Fraction(v) for v in x]
    rows = np.asarray(a, dtype=float).tolist()
    return (all(v > 0 for v in xs)
            and all(sum(Fraction(aij) * xj for aij, xj in zip(row, xs)) > 0 for row in rows))


def dominant_z_matrix(rng, n, off_max):
    """Strictly diagonally dominant Z-matrix with off-diagonal entries up to off_max."""
    off = rng.uniform(0.0, off_max, size=(n, n))
    np.fill_diagonal(off, 0.0)
    a = -off
    np.fill_diagonal(a, off.sum(axis=1) + rng.uniform(0.1, 1.0, size=n) * off_max)
    return a


def birth_death_z_matrix(n, up, down, beta):
    """-(Q + diag beta) for the birth-death generator Q with constant rates."""
    q = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
    q -= np.diag(q.sum(axis=1))
    return -(q + np.diag(beta))


def random_z_matrix(rng, n):
    a = -rng.uniform(0.0, 5.0, size=(n, n))
    np.fill_diagonal(a, rng.uniform(-5.0, 5.0, size=n))
    return a


def _outer_leading_minors(a):
    """The elimination of ``leading_minors`` with ``np.outer`` in its rank-1
    updates, kept as the bitwise reference: returns (minors, pivots)."""
    m = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.abs(m).max()))
    m = m / scale
    n = m.shape[0]
    pivots = np.empty(n)
    for k in range(n):
        pivots[k] = piv = m[k, k]
        if abs(piv) <= BOUNDARY_BAND:
            pivots = pivots[:k + 1]
            break
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / piv, m[k, k + 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        minors = np.cumprod(scale * pivots)
    minors[np.isnan(minors)] = 0.0
    return minors, pivots


def _same_elimination(a):
    minors, pivots = leading_minors(a)
    ref_minors, ref_pivots = _outer_leading_minors(a)
    return (pivots.tobytes() == ref_pivots.tobytes()
            and minors.tobytes() == ref_minors.tobytes())


class TestZPattern:
    def test_laplacian_like(self):
        assert z_pattern([[2, -1], [-1, 2]])

    def test_positive_off_diagonal(self):
        assert not z_pattern([[1, 0.5], [0, 1]])

    def test_transformed_benchmark_matrix_is_not_z(self):
        # -(Q^F + diag beta^F) H_2 at kappa = 0.5: the negated drift bound
        # -beta_1 = 0.5 lands above the diagonal, so the Z pattern fails even
        # though the minors certificate below passes
        a = np.array([[1.5, 0.5], [-2.0, -0.5]])
        assert not z_pattern(a)

    def test_tiny_positive_entry_is_not_z(self):
        # its inverse has the entry -1e-13, so no tolerance may pass it
        a = [[1.0, 1e-13], [-1.0, 1.0]]
        assert not z_pattern(a)
        with pytest.raises(ValueError, match="Z-matrix"):
            is_nonsingular_mmatrix(a)


class TestLeadingMinors:
    def test_identity(self):
        np.testing.assert_array_equal(leading_minors(np.eye(3))[0], [1.0, 1.0, 1.0])

    def test_two_by_two_by_hand(self):
        np.testing.assert_allclose(leading_minors([[2, -1], [-1, 2]])[0], [2.0, 3.0])

    def test_benchmark_matrix_just_below_threshold(self):
        # minors of [[b+1-k, 1-k], [-a, -k]] with a=2, b=1 stay positive up to
        # the closed-form root of k^2 - 4k + 2
        k = 2 - math.sqrt(2) - 1e-6
        a = np.array([[2.0 - k, 1.0 - k], [-2.0, -k]])
        minors, _ = leading_minors(a)
        assert (minors > 0).all()
        # and flip sign just above it
        k2 = 2 - math.sqrt(2) + 1e-6
        a2 = np.array([[2.0 - k2, 1.0 - k2], [-2.0, -k2]])
        assert leading_minors(a2)[0][1] < 0


class TestEliminationReference:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_seeded_z_matrices(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(20):
            assert _same_elimination(random_z_matrix(rng, n))
            assert _same_elimination(dominant_z_matrix(rng, n, float(10.0 ** rng.uniform(-3, 4))))

    def test_boundary_and_overflow_cases(self):
        band = np.eye(200) - 0.1 * (np.eye(200, k=1) + np.eye(200, k=-1))
        band[0, 0] = 1e3
        cases = [
            dominant_z_matrix(np.random.default_rng(60), 60, 1e4),
            band,
            birth_death_z_matrix(200, 1e4, 1e4, np.zeros(200)),
            [[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 2.0]],
            *NEAR_SINGULAR,
        ]
        for a in cases:
            assert _same_elimination(a)


class TestMinorsOracle:
    @pytest.mark.parametrize("z", [True, False])
    def test_minors_of_a_h_are_the_exact_minors_of_a(self, z):
        # H is unit upper triangular, so (A H)[:k, :k] = A[:k, :k] H[:k, :k]
        rng = np.random.default_rng(11 if z else 12)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            if z:
                a = random_z_matrix(rng, n)
            else:
                a = rng.uniform(-5.0, 5.0, size=(n, n))
                a[0, -1] = 1.0  # keeps n > 1 off the Z pattern
            assert z_pattern(a) == (z or n == 1)
            ah = a @ upper_ones(n)
            got, _ = leading_minors(ah)
            exact = exact_leading_minors(a)
            assert len(got) == n
            scale = max(1.0, float(np.abs(ah).max()))
            for k in range(n):
                assert abs(got[k] - float(exact[k])) <= 1e-9 * scale ** (k + 1)


class TestScaleFree:
    def test_sixty_regime_dominant_matrix_with_large_entries(self):
        # det and the old band 1e-8 * scale**k both overflowed here
        a = dominant_z_matrix(np.random.default_rng(60), 60, 1e4)
        cert = is_nonsingular_mmatrix(a)
        assert cert.verdict and not cert.boundary
        assert exactly_semipositive(a, cert.positive_vector)

    def test_band_is_per_pivot(self):
        # one large diagonal entry sets the scale, every other pivot of A / scale
        # is about 1e-3: their product underflows, but no pivot is near zero
        n = 200
        a = np.eye(n) - 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
        a[0, 0] = 1e3
        cert = is_nonsingular_mmatrix(a)
        assert cert.verdict and not cert.boundary
        assert cert.minors.shape == (n,)

    def test_overflowed_minor_meets_an_exact_zero_pivot(self):
        # -Q for rates 1e4: every pivot of A / scale is 1/2 until the last, which
        # is exactly 0; minor 78 on is beyond the float range, and inf * 0 must
        # not leave a nan (or a RuntimeWarning) in the certificate
        a = birth_death_z_matrix(200, 1e4, 1e4, np.zeros(200))
        minors, _ = leading_minors(a)
        assert minors.shape == (200,) and not np.isnan(minors).any()
        assert np.isinf(minors[100]) and minors[-1] == 0.0
        assert is_nonsingular_mmatrix(a).boundary

    def test_elimination_stops_at_a_singular_leading_block(self):
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 2.0]])
        np.testing.assert_array_equal(leading_minors(a)[0], [1.0, 0.0])
        cert = is_nonsingular_mmatrix(a)
        assert not cert.verdict and cert.boundary


# found by search: Z-matrices whose diagonal sits within a few ulps of the Perron
# root of the off-diagonal part; A^-1 1 computed in floats is positive and so
# is fl(A x), but A x is not positive in exact arithmetic
NEAR_SINGULAR = [
    [[0.8626457462125269, -0.5555069427990121, -0.7562049223943927],
     [-0.8659518932699339, 0.8626457462125269, -0.35075174049484226],
     [-0.14811337807024338, -0.10601124119362859, 0.8626457462125269]],
    [[98.69809962629222, -1.5236829995901924, -55.44657966643807],
     [-12.998832175156327, 98.69809962629222, -77.31144106455065],
     [-58.59468114495581, -75.66958502822705, 98.69809962629222]],
    [[824072.6948670283, -571120.4246277134, -381006.6740049405],
     [-885038.8548030647, 824072.6948670283, -661446.7734992598],
     [-42685.85853805806, -128708.59246329969, 824072.6948670283]],
]


class TestSemipositiveProof:
    @pytest.mark.parametrize("a", NEAR_SINGULAR)
    def test_near_singular_vector_is_rejected_or_exact(self, a):
        x = semipositive_certificate(a)
        assert x is None or exactly_semipositive(a, x)

    def test_dominant_matrices_are_certified_at_every_scale(self):
        rng = np.random.default_rng(5)
        for e in range(-6, 7):
            a = dominant_z_matrix(rng, 8, 10.0 ** e)
            x = semipositive_certificate(a)
            assert x is not None and exactly_semipositive(a, x)


class TestIllConditioned:
    # beta = 1, with eps - 1 in the last regime: A = I - 2 S - eps S^T up to
    # O(eps) on the diagonal, eigenvalues near 1, but A^-1 1 grows like 2^n
    @staticmethod
    def _spread(n, eps=1e-3):
        return birth_death_z_matrix(n, 2.0, eps, np.r_[np.ones(n - 1), eps - 1.0])

    def test_a_later_inverse_power_carries_the_proof(self, monkeypatch):
        a = self._spread(70)
        monkeypatch.setattr(mmatrix, "SOLVE_STEPS", 1)
        assert semipositive_certificate(a) is None  # A^-1 1 alone is unprovable
        monkeypatch.undo()
        x = semipositive_certificate(a)
        assert x is not None and exactly_semipositive(a, x)
        cert = is_nonsingular_mmatrix(a)
        assert cert.verdict and not cert.boundary and cert.positive_vector is not None

    def test_unprovable_verdict_is_reported_not_raised(self):
        # up-rate 1e4 and unit diagonal: A^-k 1 spreads like 1e4^(k n) and
        # leaves the float range, while the pivots and the eigenvalue agree
        n = 80
        a = birth_death_z_matrix(n, 1e4, 1e-6, np.zeros(n))
        a -= np.diag(np.diag(a) - 1.0)
        cert = is_nonsingular_mmatrix(a)
        assert cert.verdict and not cert.boundary and least_real_eigenvalue(a) > 0
        assert cert.positive_vector is None


class TestSemipositive:
    def test_identity(self):
        x = semipositive_certificate(np.eye(3))
        np.testing.assert_array_equal(x, np.ones(3))

    def test_negative_row_sum_infeasible(self):
        # (Ax)_1 + (Ax)_2 = -(x_1 + x_2) < 0 for x >> 0
        assert semipositive_certificate([[1, -2], [-2, 1]]) is None

    def test_transformed_benchmark_matrix_is_rejected(self):
        # the minors of this non-Z matrix are positive, but the certificates
        # take Z-matrices only
        k = 0.5
        a = np.array([[2.0 - k, 1.0 - k], [-2.0, -k]])
        assert (leading_minors(a)[0] > 0).all()
        for check in (semipositive_certificate, least_real_eigenvalue, is_nonsingular_mmatrix):
            with pytest.raises(ValueError, match="Z-matrix"):
                check(a)

    def test_found_vector_validates(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_z_matrix(rng, 5)
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, -a.sum(axis=1) + rng.uniform(0.1, 2.0, size=5))
            x = semipositive_certificate(a)  # strictly dominant Z-matrix
            assert x is not None
            assert x.min() >= 1.0 - 1e-9
            assert (a @ x).min() > 0


class TestIsNonsingularMMatrix:
    def test_diagonally_dominant_z(self):
        cert = is_nonsingular_mmatrix([[2, -1], [-1, 2]])
        assert cert.verdict and not cert.boundary
        assert cert.positive_vector is not None
        assert least_real_eigenvalue([[2, -1], [-1, 2]]) == pytest.approx(1.0, abs=1e-9)

    def test_no_eigenvalue_is_computed(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("the certificate must not compute eigenvalues")

        monkeypatch.setattr(mmatrix, "least_real_eigenvalue", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        cert = is_nonsingular_mmatrix([[2, -1], [-1, 2]])
        assert cert.verdict and cert.positive_vector is not None

    def test_proved_vector_against_failing_minors_raises(self, monkeypatch):
        # the vector is proved on a dominant matrix, so a clearly negative pivot
        # off the band is a fault, not a verdict
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        monkeypatch.setattr(mmatrix, "leading_minors",
                            lambda m: (np.array([2.0, -1.0]),
                                                      np.array([1.0, -0.5])))
        with pytest.raises(InconsistentChecks, match="positive vector"):
            is_nonsingular_mmatrix(a)

    def test_singular_case(self):
        cert = is_nonsingular_mmatrix([[1, -1], [-1, 1]])
        assert not cert.verdict
        assert cert.boundary  # determinant is exactly zero

    @staticmethod
    def _three_class(k):
        # -(diag beta^F + Q^F) for ex21 with classes {1}, {2}, {3, 4, ...};
        # times H_3 it is the paper's matrix, with the same minors
        q_f = np.array([[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])
        return -(np.diag([k - 1.0, k - 0.5, k]) + q_f)

    def test_three_class_benchmark_matrix(self):
        cert = is_nonsingular_mmatrix(self._three_class(0.6))
        assert cert.verdict
        assert not cert.boundary
        assert cert.positive_vector is not None

    def test_three_class_benchmark_matrix_past_threshold(self):
        k = 0.65  # beyond (11 - sqrt(73)) / 4
        assert not is_nonsingular_mmatrix(self._three_class(k)).verdict

    def test_equivalence_on_random_z_matrices(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 11))
            a = random_z_matrix(rng, n)
            cert = is_nonsingular_mmatrix(a)  # raises InconsistentChecks on failure
            tau = least_real_eigenvalue(a)
            if cert.boundary or abs(tau) <= BOUNDARY_BAND * max(1.0, np.abs(a).max()):
                continue
            checked += 1
            sem_ok = cert.positive_vector is not None
            assert cert.verdict == sem_ok == (tau > 0)
        assert checked > 250


class TestUpperOnes:
    def test_pattern(self):
        np.testing.assert_array_equal(upper_ones(3),
                                      [[1, 1, 1], [0, 1, 1], [0, 0, 1]])

    def test_cumulative_weights_strictly_decrease(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            eta = rng.uniform(0.01, 2.0, size=m)
            xi = upper_ones(m) @ eta
            assert (np.diff(xi) < 0).all()
            assert xi.min() > 0


class TestPerron:
    def test_p_zero_gives_zero(self):
        data = perron(Q2, [-1.0, 1.0], 0.0)
        assert abs(data.eta_p) <= 1e-12
        np.testing.assert_allclose(data.xi, [0.5, 0.5], atol=1e-12)

    def test_first_order_slope(self):
        # eta_p ~ -p sum(mu beta) = p/3 for beta = (-1, 1)
        data = perron(Q2, [-1.0, 1.0], 1e-3)
        assert data.eta_p == pytest.approx(1e-3 / 3, rel=0.05)

    def test_constant_beta_shifts_exactly(self):
        for p in (0.1, 0.37, 2.0):
            data = perron(Q2, [1.0, 1.0], p)
            assert data.eta_p == pytest.approx(-p, abs=1e-9)

    def test_residual_and_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rng.uniform(0.2, 1.5, size=(n, n))
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, -a.sum(axis=1))
            q = validate_qmatrix(a)
            beta = rng.standard_normal(n)
            data = perron(q, beta, 0.05)
            qp = q.entries + 0.05 * np.diag(beta)
            resid = np.abs(qp @ data.xi + data.eta_p * data.xi).max()
            assert resid <= 1e-9 * np.abs(qp).max()
            assert data.xi.min() > 1e-12
            assert abs(data.xi.sum() - 1.0) < 1e-12

    def test_eta_continuous_in_p(self):
        beta = np.array([-2.0, 0.5])
        ps = np.linspace(0.0, 1.0, 21)
        etas = [perron(Q2, beta, p).eta_p for p in ps]
        lip = 3 * np.abs(beta).max() * (ps[1] - ps[0])
        assert np.abs(np.diff(etas)).max() <= lip + 1e-9


class TestCriticalP:
    def test_analytic_flip_point(self):
        # spectral abscissa of Q + p diag(-3, 3) turns positive at p = 1/3
        p0 = critical_p(Q2, [-3.0, 3.0])
        assert p0 == pytest.approx(1 / 3, abs=1e-6)
        assert perron(Q2, [-3.0, 3.0], p0 - 1e-6).eta_p > 0
        assert perron(Q2, [-3.0, 3.0], p0 + 1e-6).eta_p < 0

    def test_uniformly_negative_beta_returns_pmax(self):
        assert critical_p(Q2, [-0.7, -0.7], p_max=2.5) == 2.5

    def test_wider_bracket(self):
        # eta_p = (3 - sqrt(9 - 4p + 4p^2)) / 2 stays positive until p = 1
        p0 = critical_p(Q2, [-1.0, 1.0], p_max=2.0)
        assert p0 == pytest.approx(1.0, abs=1e-6)

    def test_requires_negative_average(self):
        mu = invariant_measure(Q2)
        assert mu @ np.array([1.0, -1.0]) > 0
        with pytest.raises(ValueError):
            critical_p(Q2, [1.0, -1.0])
