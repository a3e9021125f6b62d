import tracemalloc

import numpy as np
import pytest

from regime import (
    QMatrix,
    SdeModel,
    StateDependentRates,
    TailHomogeneousChain,
    invariant_measure,
    run_ensemble,
    simulate,
    truncate_chain,
    validate_qmatrix,
)
from regime import simulate
from regime.errors import NegativeOffDiagonal, StepTooLarge, UnboundedRate
from regime.reproduce import ex21_sde_model, ex22_sde_model
from regime.simulate import _Kernel, _norm, _simulate_paths, power_drift, regime_sigma

Q2 = validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]])
PLANE_SIGMA = np.array([1.0, 0.8])
# at dt = 1e-3 regime 0 switches with probability q dt = 0.1, the thinning bound
Q_AT_BOUND = validate_qmatrix([[-100.0, 100.0], [50.0, -50.0]])


def plane_model() -> SdeModel:
    """2-d linear pull toward the origin with constant per-axis noise scales."""
    return SdeModel(dim=2, drift=lambda x, lam: -0.5 * x,
                    sigma=lambda x, lam: PLANE_SIGMA, rates=Q2)


def bound_model() -> SdeModel:
    """ex22's slopes at kappa = 0.3 with the constant generator Q_AT_BOUND."""
    return SdeModel(dim=1, drift=power_drift([-0.7, 0.3]), sigma=regime_sigma(np.sqrt(2.0)),
                    rates=Q_AT_BOUND, boundary="reflect")


def step(model: SdeModel, x, regime: int, dt: float, rng: np.random.Generator) -> tuple:
    """Single-path step through the batch kernel: returns (x', regime').  Draws
    one normal vector and one uniform from ``rng`` in that order."""
    xv = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, model.dim)
    z = rng.standard_normal((1, model.dim))
    u = rng.random(1)
    x_new, lam_new = _Kernel(model, dt).advance(xv, np.array([regime]), z, np.array([0]), u)
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


def reference_simulate_paths(model: SdeModel, path_ids: np.ndarray, x0: np.ndarray, i0: int,
                             r0: float, n_steps: int, dt: float, seed: int) -> tuple:
    """``_simulate_paths`` with one numpy generator per path, seeded by
    ``default_rng(SeedSequence(seed, spawn_key=(k,)))``, each block filled
    one buffer column at a time into dense buffers, and every path a
    candidate to switch at every step: the reference for the one-pass
    seeding, the shared generator, the grouped fill and the store that keeps
    only the uniforms below the kernel's bound."""
    k = path_ids.size
    d = model.dim
    kernel = _Kernel(model, dt)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(pid),)))
            for pid in path_ids]
    hit_time = np.full(k, np.nan)
    ids = np.arange(k)
    x = np.tile(x0, (k, 1))
    lam = np.full(k, i0, dtype=np.intp)
    done_steps = 0
    while done_steps < n_steps and ids.size:
        span = min(simulate.BLOCK, n_steps - done_steps)
        z_buf = np.empty((span, ids.size, d))
        u_buf = np.empty((span, ids.size))
        for col, j in enumerate(ids.tolist()):
            z_buf[:, col] = rngs[j].standard_normal((span, d))
            u_buf[:, col] = rngs[j].random(span)
        cols = np.arange(ids.size)
        for s in range(span):
            x, lam = kernel.advance(x, lam, z_buf[s, cols], np.arange(ids.size),
                                    u_buf[s, cols])
            hit = _norm(x) <= r0
            if hit.any():
                hit_time[ids[hit]] = (done_steps + s + 1) * dt
                keep = ~hit
                ids, x, lam, cols = ids[keep], x[keep], lam[keep], cols[keep]
                if ids.size == 0:
                    break
        done_steps += span
    radius = np.full(k, np.nan)
    radius[ids] = _norm(x)
    return hit_time, radius


def assert_one_record(record: tuple) -> None:
    """A ``_simulate_paths`` record: the radius is nan exactly where the
    hitting time is finite."""
    hit_time, radius = record
    np.testing.assert_array_equal(np.isnan(radius), np.isfinite(hit_time))


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
        _, lam_new = _Kernel(model, dt).advance(x, lam, z, np.arange(k), u)
        frac = (lam_new != 0).mean()
        assert frac == pytest.approx(Q2.entries[0, 1] * dt, abs=0.003)

    def test_step_too_large(self):
        fast = validate_qmatrix([[-30.0, 30.0], [30.0, -30.0]])
        model = _const_model(rates=fast)
        with pytest.raises(StepTooLarge):
            step(model, 1.0, 0, 0.01, np.random.default_rng(0))

    def test_constant_generator_step_is_checked_before_any_step(self):
        # only regime 2 breaks q dt <= 0.1 (0.3); the ensemble starts in
        # regime 0 and fails before a path is seeded or the drift is called
        q3 = validate_qmatrix([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [15.0, 15.0, -30.0]])
        seen = []
        model = SdeModel(dim=1, drift=lambda x, lam: seen.append(1) or -x,
                         sigma=lambda x, lam: 1.0, rates=q3)
        with pytest.raises(StepTooLarge, match=r"dt \* q = 0\.3 > 0\.1 in regime 2; shrink dt"):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-2, trials=100, seed=0)
        assert seen == []

    def test_reflection_keeps_half_line(self):
        model = _const_model(drift_slope=-0.5, sigma=2.0, boundary="reflect")
        rng = np.random.default_rng(3)
        x = 0.2
        lam = 0
        for _ in range(500):
            x, lam = step(model, x, lam, 0.01, rng)
            assert x >= 0.0


class TestCandidates:
    @pytest.mark.parametrize("model", [bound_model(), ex22_sde_model(0.3)],
                             ids=["at-bound", "state-dependent"])
    def test_uniforms_below_the_bound_decide_every_switch(self, model):
        # one step with every path a candidate against one with only those
        # whose uniform lies below the kernel's bound: the same to the bit,
        # uniforms exactly at the bound included
        dt, k = 1e-3, 5000
        kernel = _Kernel(model, dt)
        assert kernel.bound == (0.1 if model.rates is Q_AT_BOUND else simulate._MAX_SWITCH_PROB)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 5.0, (k, 1))
        lam = rng.integers(0, 2, k)
        z = rng.standard_normal((k, 1))
        u = rng.random(k) * 2 * kernel.bound
        u[::9] = kernel.bound
        dense = kernel.advance(x, lam, z, np.arange(k), u)
        cand = np.flatnonzero(u < kernel.bound)
        kept = kernel.advance(x, lam, z, cand, u[cand])
        for a, b in zip(dense, kept):
            np.testing.assert_array_equal(a, b)
        assert (dense[1] != lam).sum() > 20

    def test_rate_table_of_a_constant_generator_switches_as_the_generator(self):
        # one switching rule serves both representations: a rate_fn that
        # returns the off-diagonal columns of Q gives, on the same step and
        # candidates in any order, the outputs of Q itself, to the bit
        q = validate_qmatrix([[-60.0, 40.0, 20.0], [30.0, -80.0, 50.0], [25.0, 25.0, -50.0]])
        off = q.entries.copy()
        np.fill_diagonal(off, 0.0)
        table = StateDependentRates(n=3, rate_fn=lambda x, lam: off[lam].T)
        dt, k = 1e-3, 5000
        rng = np.random.default_rng(8)
        x = rng.uniform(0.5, 5.0, (k, 1))
        lam = rng.integers(0, 3, k)
        z = rng.standard_normal((k, 1))
        u = rng.random(k) * 0.2
        cand = rng.permutation(np.flatnonzero(u < simulate._MAX_SWITCH_PROB))
        const, rated = (
            _Kernel(SdeModel(dim=1, drift=power_drift([-1.0, 0.5, 0.2]),
                             sigma=regime_sigma([1.0, 2.0, 0.5]), rates=rates), dt)
            .advance(x, lam, z, cand, u[cand]) for rates in (q, table))
        for a, b in zip(const, rated):
            np.testing.assert_array_equal(a, b)
        moved = const[1] != lam
        assert moved.sum() > 100 and np.unique(const[1][moved]).size == 3


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
            x, lam = kernel.advance(x, lam, z, np.arange(k), u)
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
            x, lam = kernel.advance(x, lam, rng.standard_normal((k, 1)), np.arange(k),
                                    rng.random(k))
        assert float(np.var(x)) == pytest.approx(1.0, rel=0.05)


class TestRunEnsemble:
    def test_deterministic_reports(self):
        model = ex22_sde_model(0.3)
        kwargs = dict(x0=5.0, i0=0, r0=1.0, T=5.0, dt=1e-3, trials=120, seed=99)
        r1 = run_ensemble(model, **kwargs)
        r2 = run_ensemble(model, **kwargs)
        assert r1 == r2

    @pytest.mark.parametrize("build", [lambda: ex22_sde_model(0.3),
                                       lambda: ex21_sde_model(0.3)], ids=["ex22", "ex21"])
    def test_path_blocks_do_not_change_results(self, build):
        # each path owns its stream, so a path's hitting time and radius at
        # the horizon are the same whether it runs in the whole batch or a block
        model = build()
        args = (np.array([3.0]), 0, 1.0, 3000, 1e-3, 99)
        ids = np.arange(120)
        whole = _simulate_paths(model, ids, *args)
        assert_one_record(whole)
        assert np.isfinite(whole[0]).sum() > 10 and np.isfinite(whole[1]).sum() > 10
        for block in (ids[:1], ids[1:50], ids[50:]):
            part = _simulate_paths(model, block, *args)
            for w, p in zip(whole, part):
                np.testing.assert_array_equal(w[block], p)

    @pytest.mark.parametrize("build, x0", [(lambda: ex22_sde_model(0.3), [3.0]),
                                           (lambda: ex21_sde_model(0.3), [3.0]),
                                           (bound_model, [3.0]),
                                           (plane_model, [6.0, 8.0])],
                             ids=["ex22", "ex21", "at-bound", "plane"])
    def test_shared_generator_matches_per_path_generators(self, monkeypatch, build, x0):
        # 3000 steps cross 30 blocks of 100, and groups of 3 do not divide the
        # 40 paths or the active counts as paths retire mid-block; each block
        # rebuilds the store of kept uniforms from the carried states.  ex22's
        # rates depend on x, and at-bound keeps uniforms up to q dt = 0.1
        monkeypatch.setattr(simulate, "BLOCK", 100)
        monkeypatch.setattr(simulate, "_FILL_GROUP", 3)
        model = build()
        args = (np.array(x0), 0, 1.0 if model.dim == 1 else 2.0, 3000, 1e-3, 99)
        ids = np.arange(40)
        whole = _simulate_paths(model, ids, *args)
        assert_one_record(whole)
        assert np.isfinite(whole[0]).sum() > 3 and np.isfinite(whole[1]).sum() > 3
        # the returns fall in several blocks of 0.1 time units
        assert np.unique(whole[0][np.isfinite(whole[0])] // 0.1).size > 3
        for w, r in zip(whole, reference_simulate_paths(model, ids, *args)):
            np.testing.assert_array_equal(w, r)
        for block in (ids[:1], ids[1:20], np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])):
            part = _simulate_paths(model, block, *args)
            for w, p, r in zip(whole, part, reference_simulate_paths(model, block, *args)):
                np.testing.assert_array_equal(p, r)
                np.testing.assert_array_equal(w[block], p)

    def test_rng_memory_holds_normals_and_kept_uniforms(self):
        # 2000 paths by 1000 steps: 16 MB of normals and about 200000 kept
        # uniforms (q dt <= 0.1); a dense buffer of every uniform would add
        # another 16 MB
        model = ex22_sde_model(1.2)
        tracemalloc.start()
        try:
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=2000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_seeding_cost_does_not_grow_with_trials(self, monkeypatch):
        # one SeedSequence or Generator per path cost about 13 us each; the
        # ensemble makes a fixed number whatever its width
        made = []
        for name in ("SeedSequence", "Generator", "PCG64", "default_rng"):
            def counted(*a, _make=getattr(np.random, name), **kw):
                made.append(_make)
                return _make(*a, **kw)

            monkeypatch.setattr(np.random, name, counted)
        run_ensemble(ex22_sde_model(1.2), x0=5.0, i0=0, r0=1.0, T=0.01, dt=1e-3,
                     trials=500, seed=7)
        assert 0 < len(made) <= 3

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3", np.int64(-2), np.float64(3.0)])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        seen = []
        model = SdeModel(dim=1, drift=lambda x, lam: seen.append(1) or -x,
                         sigma=lambda x, lam: 1.0, rates=Q2)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=0.1, dt=1e-2, trials=100, seed=seed)
        assert seen == []

    def test_numpy_integer_seed_is_the_int_seed(self):
        # numpy integer seed, trials and i0 run and are reported as the ints
        kwargs = dict(x0=5.0, r0=1.0, T=0.5, dt=1e-2)
        model = ex22_sde_model(0.3)
        rep = run_ensemble(model, seed=np.uint32(9), trials=np.int64(100), i0=np.int32(1),
                           **kwargs)
        assert rep == run_ensemble(model, seed=9, trials=100, i0=1, **kwargs)
        assert all(type(v) is int for v in (rep.seed, rep.trials, rep.i0))

    @pytest.mark.parametrize("bad, message", [
        (dict(x0=np.nan), "x0 must be finite"),
        (dict(x0=np.inf), "x0 must be finite"),
        (dict(r0=np.nan), "r0 must be finite"),
        (dict(T=np.inf), "T must be finite"),
        (dict(T=np.nan), "T must be finite"),
        (dict(dt=np.nan), "dt must be finite"),
        (dict(escape_radius=np.nan), "escape_radius must be finite"),
        (dict(T=1e300, dt=1e-300), "T / dt must be finite"),
        (dict(trials=150.5), "trials must be a non-negative integer"),
        (dict(trials=True), "trials must be a non-negative integer"),
        (dict(i0=0.7), "i0 must be a non-negative integer"),
        (dict(i0=np.float64(0.0)), "i0 must be a non-negative integer"),
        (dict(i0=-1), "i0 must be a non-negative integer"),
        (dict(T=1e12, dt=1e-3), r"^T / dt = 1e\+15 steps exceeds the cap of 1e\+08 steps per path$"),
        (dict(r0=0.0), "^r0 must be positive$"),
        (dict(r0=-1.0), "^r0 must be positive$"),
        (dict(escape_radius=0.5), "^escape_radius must exceed r0$"),
        (dict(escape_radius=-3.0), "^escape_radius must exceed r0$"),
        (dict(x0=[5.0, 5.0]), "^x0 must match the model dimension$"),
        (dict(T=0.0), "^T and dt must be positive$"),
        (dict(dt=-1e-2), "^T and dt must be positive$"),
        (dict(i0=2), "^i0 out of range$"),
        (dict(T=1e-3), "^horizon shorter than one step$"),
    ])
    def test_nonfinite_or_noninteger_inputs_raise(self, bad, message):
        seen = []
        model = SdeModel(dim=1, drift=lambda x, lam: seen.append(1) or -x,
                         sigma=lambda x, lam: 1.0, rates=Q2)
        kwargs = {**dict(x0=5.0, i0=0, r0=1.0, T=0.1, dt=1e-2, trials=100, seed=0), **bad}
        with pytest.raises(ValueError, match=message):
            run_ensemble(model, **kwargs)
        assert seen == []

    def test_step_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_STEPS", 10)
        model = SdeModel(dim=1, drift=lambda x, lam: -x, sigma=lambda x, lam: 1.0, rates=Q2)
        kwargs = dict(x0=5.0, i0=0, r0=1.0, dt=1e-2, trials=100, seed=0)
        assert run_ensemble(model, T=0.1, **kwargs).t_horizon == pytest.approx(0.1)
        with pytest.raises(ValueError, match="exceeds the cap of 10 steps per path"):
            run_ensemble(model, T=0.11, **kwargs)

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
        _Kernel(model, 0.01).advance(x, np.array([0, 1, 1]), np.zeros((3, 1)), np.arange(3),
                                     np.ones(3))
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
                                         np.zeros((3, 1)), np.arange(3), np.ones(3))

    @pytest.mark.parametrize("sig", [
        np.array([1.0, 2.0, 3.0]),      # (k,) aligns with the axis dimension
        np.ones((3, 3)),
        np.ones((2, 2)),                # a (d, d) noise matrix is not a scale
    ], ids=["diag-sig0", "diag-sig1", "d-by-d"])
    def test_bad_sigma_shapes_are_rejected(self, sig):
        model = SdeModel(dim=2, drift=lambda x, lam: -x, sigma=lambda x, lam: sig, rates=Q2)
        with pytest.raises(ValueError, match=r"sigma\(x, lam\)"):
            _Kernel(model, 0.01).advance(np.ones((3, 2)), np.zeros(3, dtype=int),
                                         np.zeros((3, 2)), np.arange(3), np.ones(3))

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
                                         np.zeros((3, 1)), np.arange(3), np.ones(3))

    def test_rate_fn_sees_the_batch_once_per_step(self):
        seen = []

        def rate_fn(x, lam):
            seen.append((x.shape, lam.copy()))
            return np.where(np.arange(2)[:, None] == lam, 0.0, 1.0)

        model = SdeModel(dim=1, drift=lambda x, lam: np.zeros_like(x), sigma=lambda x, lam: 0.0,
                         rates=StateDependentRates(n=2, rate_fn=rate_fn))
        _Kernel(model, 0.01).advance(np.ones((3, 1)), np.array([0, 1, 1]),
                                     np.zeros((3, 1)), np.arange(3), np.ones(3))
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

    def test_generator_column_names_the_diagonal(self):
        # a column of Q (-q on the diagonal) is not the rate table; it used to
        # fail as a negative off-diagonal rate q[0,0]
        rates = StateDependentRates(n=2, rate_fn=lambda x, lam: np.where(
            np.arange(2)[:, None] == lam, -1.0, 1.0) + 0.0 * x)
        model = SdeModel(dim=1, drift=lambda x, lam: -x, sigma=lambda x, lam: 0.0, rates=rates)
        with pytest.raises(ValueError, match=r"rate_fn\(x, lam\) entry \(lam\[p\], p\) = "
                                             r"\(0, 0\) must be 0, got -1 at x = 3"):
            run_ensemble(model, x0=3.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=100, seed=0)

    def test_positive_diagonal_is_not_a_step_too_large(self):
        # a table of 60s counts the diagonal toward dt * q = 0.12, while the
        # exit probability is 0.06, below the bound
        rates = StateDependentRates(n=2, rate_fn=lambda x, lam: np.full((2, x.shape[0]), 60.0))
        model = SdeModel(dim=1, drift=lambda x, lam: -x, sigma=lambda x, lam: 0.0, rates=rates)
        with pytest.raises(ValueError, match=r"rate_fn\(x, lam\) entry \(lam\[p\], p\) = "
                                             r"\(0, 0\) must be 0, got 60 at x = 3"):
            run_ensemble(model, x0=3.0, i0=0, r0=1.0, T=1.0, dt=1e-3, trials=100, seed=0)


class TestMultiDimensional:
    def test_radius_past_the_square_range(self):
        # |x| ~ 1e150 * 1.2**100 squares past the float range; the radius,
        # and with it the growth exponent, must not
        slopes = power_drift([20.0, 20.0])
        for x0 in ([1e150], [1e150, 0.0]):
            model = SdeModel(dim=len(x0), drift=slopes, sigma=lambda x, lam: 1.0, rates=Q2)
            rep = run_ensemble(model, x0=x0, i0=0, r0=1.0, T=1.0, dt=1e-2, trials=100, seed=1)
            assert rep.growth_exponent == pytest.approx(100 * np.log(1.2), rel=1e-12)

    def test_norm_keeps_the_squared_form_in_range(self):
        x = np.array([[3.0, 4.0], [1e200, 1e200], [-1e300, 0.0], [np.inf, 1.0], [0.1, 0.2]])
        r = _norm(x)
        np.testing.assert_array_equal(r[[0, 4]], np.sqrt((x[[0, 4]] ** 2).sum(axis=1)))
        np.testing.assert_array_equal(r[1:4], [np.hypot(1e200, 1e200), 1e300, np.inf])

    def test_per_axis_sigma_plane_model(self):
        rep = run_ensemble(plane_model(), x0=[3.0, 4.0], i0=0, r0=1.0, T=20.0, dt=0.01,
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
