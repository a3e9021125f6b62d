import numpy as np
import pytest

from regime import (
    QMatrix,
    SdeModel,
    StateDependentRates,
    TailHomogeneousChain,
    invariant_measure,
    run_ensemble,
    truncate_chain,
    validate_qmatrix,
)
from regime.errors import NegativeOffDiagonal, StepTooLarge, UnboundedRate
from regime.reproduce import ex21_sde_model, ex22_sde_model
from regime.simulate import _Kernel, _simulate_paths, power_drift, regime_sigma

Q2 = validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]])


def step(model: SdeModel, x, regime: int, dt: float, rng: np.random.Generator) -> tuple:
    """Single-path step through the batch kernel: returns (x', regime').  Draws
    one normal vector and one uniform from ``rng`` in that order."""
    xv = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, model.dim)
    z = rng.standard_normal((1, model.dim))
    u = rng.random(1)
    x_new, lam_new = _Kernel(model, dt).advance(xv, np.array([regime]), z, u)
    out_x = x_new[0, 0] if model.dim == 1 and np.isscalar(x) else x_new[0]
    return out_x, int(lam_new[0])


def exact_regime_path(q: QMatrix, i0: int, T: float, rng: np.random.Generator) -> np.ndarray:
    """Occupation fractions of the chain over [0, T] using exact exponential
    clocks (constant rates only); the cross-check for per-step thinning."""
    occ = np.zeros(q.n)
    state = i0
    t = 0.0
    exit_rates = q.exit_rates
    while t < T:
        rate = exit_rates[state]
        if rate <= 0:
            occ[state] += T - t
            break
        hold = rng.exponential(1.0 / rate)
        if t + hold >= T:
            occ[state] += T - t
            break
        occ[state] += hold
        t += hold
        row = q.entries[state].copy()
        row[state] = 0.0
        state = int(rng.choice(q.n, p=row / row.sum()))
    return occ / occ.sum()


def _const_model(drift_slope=0.0, sigma=1.0, rates=Q2, boundary="none"):
    def drift(x, i):
        return drift_slope * x

    def sig(x, i):
        return sigma

    return SdeModel(dim=1, drift=drift, sigma=sig, rates=rates, boundary=boundary)


class TestStep:
    def test_zero_drift_zero_noise_keeps_position(self):
        model = _const_model(drift_slope=0.0, sigma=0.0)
        rng = np.random.default_rng(1)
        x, lam = 3.0, 0
        for _ in range(50):
            x, lam = step(model, x, lam, 0.01, rng)
        assert x == 3.0
        assert lam in (0, 1)

    def test_switch_frequency_matches_rate(self):
        # thinning switches regime 0 with probability q_01 dt per step
        model = _const_model(sigma=0.0)
        dt = 0.01
        k = 20000
        rng = np.random.default_rng(7)
        x = np.full((k, 1), 2.0)
        lam = np.zeros(k, dtype=int)
        z = rng.standard_normal((k, 1))
        u = rng.random(k)
        _, lam_new = _Kernel(model, dt).advance(x, lam, z, u)
        frac = (lam_new != 0).mean()
        assert frac == pytest.approx(Q2.entries[0, 1] * dt, abs=0.003)

    def test_step_too_large(self):
        fast = validate_qmatrix([[-30.0, 30.0], [30.0, -30.0]])
        model = _const_model(rates=fast)
        with pytest.raises(StepTooLarge):
            step(model, 1.0, 0, 0.01, np.random.default_rng(0))

    def test_reflection_keeps_half_line(self):
        model = _const_model(drift_slope=-0.5, sigma=2.0, boundary="reflect")
        rng = np.random.default_rng(3)
        x = 0.2
        lam = 0
        for _ in range(500):
            x, lam = step(model, x, lam, 0.01, rng)
            assert x >= 0.0


class TestRegimeOccupation:
    def test_occupation_matches_invariant_measure(self):
        model = _const_model(sigma=0.5)
        dt, n_steps, k = 0.02, 10000, 64
        rng = np.random.default_rng(11)
        x = np.full((k, 1), 1.0)
        lam = np.zeros(k, dtype=int)
        counts = np.zeros(2)
        kernel = _Kernel(model, dt)
        for _ in range(n_steps):
            z = rng.standard_normal((k, 1))
            u = rng.random(k)
            x, lam = kernel.advance(x, lam, z, u)
            counts += np.bincount(lam, minlength=2)
        occ = counts / counts.sum()
        mu = invariant_measure(Q2)
        np.testing.assert_allclose(occ, mu, atol=0.02)

    def test_exact_clock_cross_check(self):
        rng = np.random.default_rng(5)
        occ = exact_regime_path(Q2, 0, 40000.0, rng)
        np.testing.assert_allclose(occ, invariant_measure(Q2), atol=0.02)


class TestSingleRegimeOU:
    def test_stationary_variance(self):
        # dX = -X dt + sqrt(2) dB has stationary variance 1
        q1 = validate_qmatrix([[0.0]])

        def drift(x, i):
            return -x

        def sigma(x, i):
            return np.sqrt(2.0)

        model = SdeModel(dim=1, drift=drift, sigma=sigma, rates=q1)
        rng = np.random.default_rng(13)
        k, dt, n_steps = 4000, 0.01, 600
        x = np.zeros((k, 1))
        lam = np.zeros(k, dtype=int)
        kernel = _Kernel(model, dt)
        for _ in range(n_steps):
            x, lam = kernel.advance(x, lam, rng.standard_normal((k, 1)), rng.random(k))
        assert float(np.var(x)) == pytest.approx(1.0, rel=0.05)


class TestRunEnsemble:
    def test_deterministic_reports(self):
        model = ex22_sde_model(0.3)
        kwargs = dict(x0=5.0, i0=0, r0=1.0, T=5.0, dt=1e-3, trials=120, seed=99)
        r1 = run_ensemble(model, **kwargs)
        r2 = run_ensemble(model, **kwargs)
        assert r1 == r2
        assert r1.to_dict() == r2.to_dict()

    @pytest.mark.parametrize("build", [lambda: ex22_sde_model(0.3),
                                       lambda: ex21_sde_model(0.3)], ids=["ex22", "ex21"])
    def test_path_blocks_do_not_change_results(self, build):
        # each path owns its stream, so a path's hitting time, final radius and
        # survival are the same whether it runs in the whole batch or a block
        model = build()
        args = (np.array([3.0]), 0, 1.0, 3000, 1e-3, 99)
        ids = np.arange(120)
        whole = _simulate_paths(model, ids, *args)
        assert np.isfinite(whole[0]).sum() > 10 and whole[2].sum() > 10
        for block in (ids[:1], ids[1:50], ids[50:]):
            part = _simulate_paths(model, block, *args)
            for w, p in zip(whole, part):
                np.testing.assert_array_equal(w[block], p)

    def test_validates_inputs(self):
        model = ex22_sde_model(0.3)
        with pytest.raises(ValueError):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=50, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(model, x0=0.5, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=120, seed=0)

    def test_dt_refinement_within_ci(self):
        # halving dt moves the return fraction by less than the CI width
        model = ex22_sde_model(0.3)
        coarse = run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=12.0, dt=2e-3,
                              trials=300, seed=21)
        fine = run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=12.0, dt=1e-3,
                            trials=300, seed=21)
        width = max(coarse.return_ci95, fine.return_ci95, 0.01)
        assert 0.05 < coarse.return_fraction < 0.995  # interior, so the CI is meaningful
        assert abs(coarse.return_fraction - fine.return_fraction) <= width

    def test_report_fields_consistent(self):
        model = ex22_sde_model(1.2)
        rep = run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=3.0, dt=1e-3,
                           trials=150, seed=4, escape_radius=10.0)
        assert rep.returned + rep.escape_count + rep.censored == rep.trials
        assert 0.0 <= rep.return_fraction <= 1.0
        assert rep.t_horizon == pytest.approx(3.0)
        if rep.returned == 0:
            assert rep.mean_hitting_time is None


class TestCallbackContract:
    def test_callbacks_see_the_batch_and_its_regimes(self):
        seen = []

        def drift(x, lam):
            seen.append((x.shape, lam.copy()))
            return np.zeros_like(x)

        model = SdeModel(dim=1, drift=drift, sigma=lambda x, lam: 0.0, rates=Q2)
        x = np.ones((3, 1))
        _Kernel(model, 0.01).advance(x, np.array([0, 1, 1]), np.zeros((3, 1)), np.ones(3))
        assert len(seen) == 1
        assert seen[0][0] == (3, 1) and seen[0][1].tolist() == [0, 1, 1]

    def test_helpers_gather_by_regime(self):
        x = np.array([[2.0], [-4.0], [9.0]])
        lam = np.array([1, 0, 1])
        np.testing.assert_array_equal(power_drift([-1.0, 3.0])(x, lam), [[6.0], [4.0], [27.0]])
        np.testing.assert_array_equal(power_drift([-1.0, 3.0], 0.5)(x, lam),
                                      [[3.0 * np.sqrt(2.0)], [2.0], [9.0]])
        np.testing.assert_array_equal(regime_sigma([0.5, 2.0])(x, lam), [[2.0], [0.5], [2.0]])
        assert regime_sigma(1.5)(x, lam) == 1.5

    def test_scalar_regime_drift_is_rejected(self):
        # written for one regime index at a time, it broadcasts to (k, k)
        model = SdeModel(dim=1, drift=lambda x, i: (0.3 - 1.0 / (i + 1)) * x,
                         sigma=lambda x, i: 1.0, rates=Q2)
        with pytest.raises(ValueError, match=r"drift\(x, lam\)"):
            _Kernel(model, 0.01).advance(np.ones((3, 1)), np.array([0, 1, 0]),
                                         np.zeros((3, 1)), np.ones(3))

    @pytest.mark.parametrize("mode, sig", [
        ("diag", np.array([1.0, 2.0, 3.0])),       # (k,) aligns with the axis dimension
        ("diag", np.ones((3, 3))),
        ("matrix", np.ones(2)),
        ("matrix", np.ones((3, 2))),
        ("matrix", np.ones((3, 2, 2))),
    ])
    def test_bad_sigma_shapes_are_rejected(self, mode, sig):
        model = SdeModel(dim=2, drift=lambda x, lam: -x,
                         sigma=lambda x, lam: sig, rates=Q2, sigma_mode=mode)
        with pytest.raises(ValueError, match=r"sigma\(x, lam\)"):
            _Kernel(model, 0.01).advance(np.ones((3, 2)), np.zeros(3, dtype=int),
                                         np.zeros((3, 2)), np.ones(3))

    @pytest.mark.parametrize("table", [
        np.ones(3),             # one rate per path, as a per-pair callable returns
        np.ones((3, 2)),        # (k, n) instead of (n, k)
        np.ones((2, 1)),
        np.float64(1.0),
    ])
    def test_bad_rate_table_shapes_are_rejected(self, table):
        rates = StateDependentRates(n=2, rate_fn=lambda x, lam: table)
        model = SdeModel(dim=1, drift=lambda x, lam: -x, sigma=lambda x, lam: 1.0, rates=rates)
        with pytest.raises(ValueError, match=r"rate_fn\(x, lam\)"):
            _Kernel(model, 0.01).advance(np.ones((3, 1)), np.zeros(3, dtype=int),
                                         np.zeros((3, 1)), np.ones(3))

    def test_rate_fn_sees_the_batch_once_per_step(self):
        seen = []

        def rate_fn(x, lam):
            seen.append((x.shape, lam.copy()))
            return np.where(np.arange(2)[:, None] == lam, 0.0, 1.0)

        model = SdeModel(dim=1, drift=lambda x, lam: np.zeros_like(x), sigma=lambda x, lam: 0.0,
                         rates=StateDependentRates(n=2, rate_fn=rate_fn))
        _Kernel(model, 0.01).advance(np.ones((3, 1)), np.array([0, 1, 1]),
                                     np.zeros((3, 1)), np.ones(3))
        assert len(seen) == 1
        assert seen[0][0] == (3,) and seen[0][1].tolist() == [0, 1, 1]


class TestStateDependentRateValues:
    def _model(self, rate):
        # the same rate rate(x) out of either regime into the other one
        def rate_fn(x, lam):
            return np.where(np.arange(2)[:, None] == lam, 0.0, rate(x))

        rates = StateDependentRates(n=2, rate_fn=rate_fn)
        return SdeModel(dim=1, drift=lambda x, lam: -x,
                        sigma=lambda x, lam: 0.0, rates=rates, boundary="reflect")

    def test_negative_rate_raises_at_first_visited_position(self):
        # x shrinks by the factor 1 - dt each step; the rate x - 3 turns
        # negative on the first step below 3
        model = self._model(lambda x: x - 3.0)
        with pytest.raises(NegativeOffDiagonal, match=r"x = 2\.99"):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=100, seed=0)

    def test_step_too_large_for_the_rates_met(self):
        # the exit rate 200 at x < 3 makes q dt = 0.2 once a path gets there
        model = self._model(lambda x: np.where(x < 3.0, 200.0, 1.0))
        with pytest.raises(StepTooLarge, match=r"dt \* q = 0\.2 > 0\.1"):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=100, seed=0)

    def test_nonfinite_rate_raises(self):
        model = self._model(lambda x: np.where(x < 3.0, np.inf, 1.0))
        with pytest.raises(UnboundedRate, match=r"x = 2\.99"):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=100, seed=0)


class TestMultiDimensional:
    def test_matrix_sigma_plane_model(self):
        # 2-d linear pull toward the origin with a constant correlated noise matrix
        smat = np.array([[1.0, 0.3], [0.0, 0.8]])

        def drift(x, i):
            return -0.5 * x

        def sigma(x, i):
            return smat

        model = SdeModel(dim=2, drift=drift, sigma=sigma, rates=Q2,
                         sigma_mode="matrix")
        rep = run_ensemble(model, x0=[3.0, 4.0], i0=0, r0=1.0, T=20.0, dt=0.01,
                           trials=100, seed=12)
        assert rep.return_fraction > 0.9  # contracting drift pulls paths in
        assert rep.x0 == (3.0, 4.0)

    def test_infinite_chain_rates_are_rejected(self):
        with pytest.raises(ValueError, match="truncate infinite chains first"):
            SdeModel(dim=1, drift=lambda x, lam: -x, sigma=lambda x, lam: 1.0,
                     rates=TailHomogeneousChain.constant(up=1.0, down=2.0))

    def test_reflection_requires_one_dimension(self):
        with pytest.raises(ValueError):
            SdeModel(dim=2, drift=lambda x, i: -x,
                     sigma=lambda x, i: 1.0, rates=Q2, boundary="reflect")


class TestTruncateChain:
    def test_three_state_window(self):
        chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        q = truncate_chain(chain, 3)
        np.testing.assert_array_equal(
            q.entries, [[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])

    def test_stationary_profile_is_geometric(self):
        chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        q = truncate_chain(chain, 6)
        mu = invariant_measure(q)
        expected = 0.5 ** np.arange(6)
        np.testing.assert_allclose(mu, expected / expected.sum(), atol=1e-12)

    def test_tail_mass_negligible_for_wide_window(self):
        chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        mu = invariant_measure(truncate_chain(chain, 20))
        assert mu[10:].sum() < 2e-3
