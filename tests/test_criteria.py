import math

import numpy as np
import pytest

from regime import (
    BetaSequence,
    Limit,
    LyapunovBehavior,
    TailHomogeneousChain,
    Verdict,
    bisect_verdict,
    classify_avg,
    classify_infinite,
    classify_mmatrix,
    classify_ou,
    classify_power_1d,
    classify_radial_sampled,
    classify_state_dependent,
    classify_two_function,
    classify_two_function_state_dependent,
    criteria,
    invariant_measure,
    kappa_thresholds,
    leading_minors,
    validate_qmatrix,
)
from regime.errors import ChainNotRecurrent, SingularSolve
from regime.reproduce import (
    ex21_beta,
    ex21_chain,
    ex21_partition,
    ex21_recurrence_verdict,
    ex21_transience_verdict,
    ex22_qtilde,
)
from regime.simplex import feasible_point

Q2 = validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]])
TO_INF, TO_ZERO = Limit.TO_INFINITY, Limit.TO_ZERO


def random_generator(rng, n):
    a = rng.uniform(0.1, 1.5, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return validate_qmatrix(a)


class TestClassifyAvg:
    def test_negative_average_to_infinity(self):
        out = classify_avg(Q2, LyapunovBehavior(TO_INF, [-3.0, 1.0]))
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC
        assert out.certificate["mu_beta"] == pytest.approx(-5 / 3, abs=1e-12)

    def test_boundary_average_inconclusive(self):
        out = classify_avg(Q2, LyapunovBehavior(TO_INF, [-1.0, 2.0]))
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "not negative" in out.reason

    def test_linear_growth_measure_of_linear_drift(self):
        # V = |x| with linear drift slopes b gives beta = b
        out = classify_avg(Q2, LyapunovBehavior(TO_INF, [-2.0, 1.0]))
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC
        assert out.certificate["mu_beta"] == pytest.approx(-1.0, abs=1e-12)

    def test_to_zero_gives_transient(self):
        out = classify_avg(Q2, LyapunovBehavior(TO_ZERO, [-3.0, 1.0]))
        assert out.verdict is Verdict.TRANSIENT

    def test_single_regime_reduces_to_sign(self):
        q1 = validate_qmatrix([[0.0]])
        assert classify_avg(q1, LyapunovBehavior(TO_INF, [-0.2])).verdict \
            is Verdict.EXPONENTIALLY_ERGODIC
        assert classify_avg(q1, LyapunovBehavior(TO_INF, [0.2])).verdict \
            is Verdict.INCONCLUSIVE


class TestClassifyMMatrix:
    def test_zero_leading_minor_inconclusive(self):
        out = classify_mmatrix(Q2, LyapunovBehavior(TO_INF, [1.0, 1.0]))
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_mildly_negative_beta_by_hand(self):
        # -(Q + diag beta) = [[1.5, -1], [-2, 2.5]]: minors (1.5, 1.75)
        out = classify_mmatrix(Q2, LyapunovBehavior(TO_INF, [-0.5, -0.5]))
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC
        np.testing.assert_allclose(out.certificate["mmatrix"]["minors"], [1.5, 1.75])

    def test_dominant_beta(self):
        out = classify_mmatrix(Q2, LyapunovBehavior(TO_ZERO, [-2.0, -3.0]))
        assert out.verdict is Verdict.TRANSIENT


class TestClassifyStateDependent:
    def test_benchmark_recurrent_side(self):
        k = 0.5
        out = classify_state_dependent(
            ex22_qtilde(), LyapunovBehavior(TO_INF, [k - 1.0, k]))
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC

    def test_benchmark_past_threshold(self):
        k = 0.9
        out = classify_state_dependent(
            ex22_qtilde(), LyapunovBehavior(TO_INF, [k - 1.0, k]))
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_constant_rates_agree_with_plain_test_when_strongly_negative(self):
        lyap = LyapunovBehavior(TO_INF, [-3.0, -3.0])
        assert classify_state_dependent(Q2, lyap).verdict \
            is classify_mmatrix(Q2, lyap).verdict


class TestClassifyInfinite:
    def test_two_class_recurrent(self):
        out = classify_infinite(ex21_chain(), ex21_beta(0.5), ex21_partition(2), TO_INF)
        assert out.verdict is Verdict.RECURRENT

    def test_three_class_recurrent_beyond_two_class_bound(self):
        kappa = 0.6  # above 2 - sqrt(2) but below (11 - sqrt(73)) / 4
        out2 = classify_infinite(ex21_chain(), ex21_beta(kappa), ex21_partition(2), TO_INF)
        out3 = classify_infinite(ex21_chain(), ex21_beta(kappa), ex21_partition(3), TO_INF)
        assert out2.verdict is Verdict.INCONCLUSIVE
        assert out3.verdict is Verdict.RECURRENT

    def test_transient_branch_with_tail_limit_bounds(self):
        # V = 1/x drift bounds at r0 -> infinity: (1 - kappa, -kappa)
        kappa = 0.8
        beta = BetaSequence(head=(1.0 - kappa,), tail_limit=-kappa)
        out = classify_infinite(ex21_chain(), beta, ex21_partition(2), TO_ZERO)
        assert out.verdict is Verdict.TRANSIENT
        assert list(out.certificate) == ["beta_f", "q_f", "matrix", "mmatrix",
                                         "partition", "chain_recurrent"]
        np.testing.assert_array_equal(out.certificate["beta_f"], [1.0 - kappa, -kappa])
        np.testing.assert_array_equal(out.certificate["q_f"], [[-1.0, 1.0], [2.0, -2.0]])

    def test_requires_recurrent_chain(self):
        chain = TailHomogeneousChain.constant(up=2.0, down=1.0)
        with pytest.raises(ChainNotRecurrent):
            classify_infinite(chain, ex21_beta(0.3), ex21_partition(2), TO_INF)


class TestClassifyOU:
    def test_negative_average(self):
        out = classify_ou(Q2, [-2.0, 1.0])
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC
        assert out.certificate["mu_b"] == pytest.approx(-1.0, abs=1e-12)

    def test_all_positive_drift(self):
        assert classify_ou(Q2, [1.0, 1.0]).verdict is Verdict.TRANSIENT

    def test_balanced_is_inconclusive(self):
        assert classify_ou(Q2, [-1.0, 2.0]).verdict is Verdict.INCONCLUSIVE


def fredholm(q, beta):
    """The resolvent pair of a conclusive thm31 certificate."""
    return classify_two_function(q, LyapunovBehavior(TO_INF, beta)).certificate["fredholm"]


class TestFredholm:
    def test_constant_beta(self):
        pair = fredholm(Q2, [-0.8, -0.8])
        assert pair["kappa"] == pytest.approx(0.8, abs=1e-14)
        np.testing.assert_allclose(pair["xi"], [0.0, 0.0], atol=1e-12)

    def test_two_state_by_hand(self):
        # kappa = 5/3; Q xi = (4/3, -8/3) with mu-mean zero gives (-4/9, 8/9)
        pair = fredholm(Q2, [-3.0, 1.0])
        assert pair["kappa"] == pytest.approx(5 / 3, abs=1e-12)
        np.testing.assert_allclose(pair["xi"], [-4 / 9, 8 / 9], atol=1e-12)
        assert pair["residual"] <= 1e-9 * 5.0

    def test_random_residuals(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            q = random_generator(rng, 6)
            mu = invariant_measure(q)
            beta = rng.standard_normal(6)
            beta -= (mu @ beta) + 1.0  # averaged drift exactly -1
            pair = fredholm(q, beta)
            assert pair["kappa"] == pytest.approx(1.0, rel=1e-12)
            scale = q.scale() + np.abs(beta).max()
            resid = np.abs(q.entries @ pair["xi"] + pair["kappa"] + beta).max()
            assert resid <= 1e-9 * scale
            assert abs(mu @ pair["xi"]) < 1e-10

    def test_positive_average_gives_no_pair(self):
        out = classify_two_function(Q2, LyapunovBehavior(TO_INF, [1.0, 1.0]))
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "fredholm" not in out.certificate

    def test_singular_system_raises(self, monkeypatch):
        # mu is taken as computed, so the pinned system is the one solve left
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")
        mu = invariant_measure(Q2)
        monkeypatch.setattr(criteria, "invariant_measure", lambda q: mu)
        monkeypatch.setattr(criteria.np.linalg, "solve", singular)
        with pytest.raises(SingularSolve, match="^pinned resolvent solve failed: Singular matrix$"):
            fredholm(Q2, [-3.0, 1.0])

    def test_residual_past_the_bound_raises(self, monkeypatch):
        # xi + c 1 leaves Q xi unchanged, so one entry moves alone; the data
        # scale is 5 and the bound 5e-9
        solve = criteria._pinned_solve

        def perturbed(q, mu, rhs):
            xi = solve(q, mu, rhs)
            xi[0] += 1e-8
            return xi
        monkeypatch.setattr(criteria, "_pinned_solve", perturbed)
        with pytest.raises(SingularSolve, match="^resolvent residual 2e-08 exceeds tolerance$"):
            fredholm(Q2, [-3.0, 1.0])


class TestClassifyTwoFunction:
    def test_uniformly_negative_beta(self):
        out = classify_two_function(Q2, LyapunovBehavior(TO_INF, [-1.0, -1.0]))
        assert out.verdict is Verdict.RECURRENT
        assert out.certificate["fredholm"]["kappa"] == pytest.approx(1.0)

    def test_power_pair_reduction(self):
        # h = |x|^g, g = |x|^{g+delta-1} with radial slopes (-1, 0.5):
        # the averaged bound is -0.5 < 0
        out = classify_two_function(Q2, LyapunovBehavior(TO_INF, [-1.0, 0.5]))
        assert out.verdict is Verdict.RECURRENT

    def test_shrinking_h_gives_transient(self):
        out = classify_two_function(Q2, LyapunovBehavior(TO_ZERO, [-1.0, -1.0]))
        assert out.verdict is Verdict.TRANSIENT

    def test_boundary_inconclusive(self):
        out = classify_two_function(Q2, LyapunovBehavior(TO_INF, [-1.0, 2.0]))
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "cor31" in out.reason

    def test_invariant_measure_computed_once(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return invariant_measure(q)

        monkeypatch.setattr(criteria, "invariant_measure", counted)
        out = classify_two_function(Q2, LyapunovBehavior(TO_INF, [-1.0, -1.0]))
        assert out.conclusive and len(calls) == 1


class TestClassifyTwoFunctionStateDependent:
    def test_uniformly_negative_beta_feasible(self):
        out = classify_two_function_state_dependent(Q2, [-2.0, -2.0], TO_INF)
        assert out.verdict is Verdict.RECURRENT
        eta = out.certificate["eta"]
        assert (np.diff(eta) <= 1e-9).all() and eta[-1] >= 1.0 - 1e-9
        assert ((np.asarray([-2.0, -2.0]) + Q2.entries @ eta) <= -1.0 + 1e-7).all()

    def test_positive_beta_on_fast_regime_infeasible(self):
        # 0.5 + 2 (eta_1 - eta_2) < 0 contradicts eta_1 >= eta_2
        out = classify_two_function_state_dependent(Q2, [-1.0, 0.5], TO_INF)
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_positive_beta_on_slow_regime_infeasible(self):
        # needs eta_1 - eta_2 >= 1.5 and eta_1 <= eta_2 simultaneously
        out = classify_two_function_state_dependent(Q2, [0.5, -1.0], TO_INF)
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_one_regime_poses_an_lp_with_no_variables(self):
        # Q~ = [[0]] leaves beta + Q~ eta = beta, and eta = (1,)
        q = validate_qmatrix([[0.0]])
        assert classify_two_function_state_dependent(q, [0.5], TO_INF).verdict is Verdict.INCONCLUSIVE
        out = classify_two_function_state_dependent(q, [-2.0], TO_INF)
        assert out.verdict is Verdict.RECURRENT
        assert out.certificate["eta"].tolist() == [1.0]

    def test_lp_is_over_the_increments_of_eta(self, monkeypatch):
        posed = []
        monkeypatch.setattr(criteria, "feasible_point", lambda a, b: posed.append((a, b)))
        rng = np.random.default_rng(32)
        for n in (1, 2, 5, 12):
            q = random_generator(rng, n) if n > 1 else validate_qmatrix([[0.0]])
            beta = rng.standard_normal(n)
            classify_two_function_state_dependent(q, beta, TO_INF)
            a, b = posed.pop()
            want = np.cumsum(q.entries, axis=1)[:, :-1]
            assert a.shape == (n, n - 1) and a.tobytes() == want.tobytes()
            assert b.tobytes() == (-1.0 - beta).tobytes()

    def test_verdict_is_the_row_systems(self):
        # the row system over eta, solved by the same simplex, decides alike,
        # and each returned eta satisfies its rows
        for n, kind, q, beta in thm32_systems():
            a_ub, b_ub = thm32_row_system(q, beta)
            out = classify_two_function_state_dependent(q, beta, TO_INF)
            assert out.conclusive == (feasible_point(a_ub, b_ub) is not None), (n, kind)
            assert out.conclusive == THM32_FEASIBLE.get(kind, out.conclusive), (n, kind)
            if out.conclusive:
                assert (a_ub @ out.certificate["eta"] <= b_ub + 1e-9).all(), (n, kind)


def thm32_row_system(q, beta):
    """The thm32 LP as rows over eta: eta_{i+1} - eta_i <= 0, -eta_n <= -1,
    then (Q~ eta)_i <= -1 - beta_i."""
    n = q.n
    a_ub = np.vstack([np.eye(n, k=1) - np.eye(n), q.entries])
    return a_ub, np.concatenate([np.zeros(n - 1), [-1.0], -1.0 - np.asarray(beta)])


# a feasible eta gives mu.beta = mu.(beta + Q~ eta) <= -1, so only the kinds
# built around a decreasing eta with mu.beta < -1 are feasible
THM32_FEASIBLE = {"lp": True, "edge-below": True, "edge-above": False,
                  "mu.beta=+0.5": False, "mu.beta=-0.5": False}


def thm32_systems():
    """Seeded (n, kind, Q~, beta) at n = 1, 2, 5, 12, 20, 50: the benchmark's
    four kinds (beta < 0; mu.beta = +0.5 or -0.5; feasible by construction)
    and beta 1e-6 on either side of the Farkas edge mu.beta = -1."""
    rng = np.random.default_rng(3232)
    for n in (1, 2, 5, 12, 20, 50):
        q = random_generator(rng, n) if n > 1 else validate_qmatrix([[0.0]])
        mu = invariant_measure(q)
        yield n, "dominant", q, -(0.5 + rng.random(n))
        for shift in (0.5, -0.5):
            beta = rng.standard_normal(n)
            yield n, f"mu.beta={shift:+}", q, beta + shift - mu @ beta
        eta = 1.0 + np.sort(2.0 * rng.random(n))[::-1]
        yield n, "lp", q, -1.0 - q.entries @ eta - (0.1 + 0.4 * rng.random(n))
        for kind, margin in (("edge-below", 1e-6), ("edge-above", -1e-6)):
            yield n, kind, q, -1.0 - q.entries @ eta - margin


def radial_samples(profile, n_regimes):
    """Samples b^(phi, i) . phi of a drift profile over 1024 angles of the
    circle, shaped (n_directions, n_regimes)."""
    th = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    phis = np.column_stack([np.cos(th), np.sin(th)])
    return np.column_stack([np.einsum("md,md->m", profile(phis, i), phis)
                            for i in range(n_regimes)])


class TestClassifyRadial:
    def test_recurrent_radial_drift(self):
        slopes = (-1.0, 0.5)

        def profile(phis, i):
            return slopes[i] * phis

        out = classify_radial_sampled(Q2, radial_samples(profile, 2), 0.5)
        assert out.verdict is Verdict.RECURRENT
        assert out.certificate["mu_beta"] == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(out.certificate["beta"], slopes, atol=1e-12)

    def test_outward_drift_everywhere(self):
        def profile(phis, i):
            return 0.8 * phis

        out = classify_radial_sampled(Q2, radial_samples(profile, 2), 0.0)
        assert out.verdict is Verdict.TRANSIENT
        assert out.certificate["mu_beta_tilde"] == pytest.approx(0.8, abs=1e-12)

    def test_criterion_gap(self):
        # beta = +1, beta~ = -1 for a pure cosine field: both averages straddle 0
        def profile(phis, i):
            return phis[:, :1] * phis

        out = classify_radial_sampled(Q2, radial_samples(profile, 2), 0.5)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "straddle zero" in out.reason
        np.testing.assert_allclose(out.certificate["beta"], [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(out.certificate["beta_tilde"], [-1.0, -1.0], atol=1e-12)

    def test_delta_minus_one_is_inconclusive(self):
        # outward 0.3 / |x| in both regimes with sigma = 1 is recurrent in 1-d
        out = classify_radial_sampled(Q2, [[0.3, 0.3], [0.3, 0.3]], -1.0)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "Ito's sigma^2/(2|x|) term" in out.reason

    @pytest.mark.parametrize("samples", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 2, 1))])
    def test_samples_must_be_directions_by_regimes(self, samples):
        with pytest.raises(ValueError, match=r"samples must be \(n_directions, n_regimes\)"):
            classify_radial_sampled(Q2, samples, 0.5)


class TestClassifyPower1d:
    def test_balanced_boundary_is_recurrent_with_certificate(self):
        out = classify_power_1d(Q2, [-1.0, 2.0], [1.0], 0.5)
        assert out.verdict is Verdict.RECURRENT
        cert = out.certificate["boundary_certificate"]
        np.testing.assert_allclose(cert["w"], [1 / 3, -2 / 3], atol=1e-12)
        assert cert["mu_b_w"] == pytest.approx(-2 / 3, abs=1e-12)

    def test_positive_drift_everywhere(self):
        for delta in (-0.5, 0.0, 0.5, 0.9):
            assert classify_power_1d(Q2, [1.0, 1.0], [1.0], delta).verdict \
                is Verdict.TRANSIENT
        # at delta = -1 identical regimes are recurrent iff b <= sigma^2 / 2
        assert classify_power_1d(Q2, [1.0, 1.0], [1.0], -1.0).verdict \
            is Verdict.INCONCLUSIVE

    def test_delta_minus_one_is_inconclusive(self):
        # dX = 0.4/X dt + dB is a Bessel process of dimension 1.8: recurrent,
        # though mu.b = 0.4 > 0
        out = classify_power_1d(Q2, [0.4, 0.4], [1.0], -1.0)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "Ito's sigma^2/(2|x|) term" in out.reason
        assert out.certificate["mu_b"] == pytest.approx(0.4, abs=1e-12)

    def test_linear_case_delegates(self):
        out = classify_power_1d(Q2, [-2.0, 1.0], [1.0], 1.0)
        assert out.criterion == "prop22"
        assert out.verdict is Verdict.EXPONENTIALLY_ERGODIC
        assert out.certificate["delegated_from"] == "cor31"

    def test_linear_boundary_stays_open(self):
        out = classify_power_1d(Q2, [-1.0, 2.0], [1.0], 1.0)
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_total_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            q = random_generator(rng, n) if n > 1 else validate_qmatrix([[0.0]])
            mu = invariant_measure(q)
            b = rng.standard_normal(n)
            shift = rng.choice([-0.5, 0.0, 0.5])
            b += shift - (mu @ b)
            out = classify_power_1d(q, b, [1.0], float(rng.uniform(-1, 0.99)))
            assert out.verdict is not Verdict.INCONCLUSIVE
            expected = Verdict.RECURRENT if shift <= 0 else Verdict.TRANSIENT
            assert out.verdict is expected

    def test_single_regime_zero_drift(self):
        q1 = validate_qmatrix([[0.0]])
        assert classify_power_1d(q1, [0.0], [1.0], 0.0).verdict is Verdict.RECURRENT


class TestKappaThresholds:
    def test_benchmark_values(self):
        rec, trans = kappa_thresholds(2.0, 1.0)
        assert rec == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert trans == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
        assert (rec.hex(), trans.hex()) == ("0x1.2bec333018866p-1", "0x1.76cf5d0b09954p-1")

    def test_equal_rates(self):
        rec, trans = kappa_thresholds(1.0, 1.0)
        assert rec == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
        assert trans == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_small_up_rate_limit(self):
        rec, _ = kappa_thresholds(1.0, 1e-6)
        assert rec == pytest.approx(1.0, abs=2e-3)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            kappa_thresholds(1.0, 2.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_rates_refused(self, a, b):
        with pytest.raises(ValueError, match="^need finite a >= b > 0$"):
            kappa_thresholds(a, b)

    def test_overflowing_closed_forms_refused(self):
        # both tend to finite limits (1/2 and 3/4), but s * s overflows
        with pytest.raises(ValueError, match="^the closed forms overflow at a = 1e"):
            kappa_thresholds(1e200, 1e200)

    @pytest.mark.parametrize("a", [1e8, 1e12])
    def test_large_equal_rates_reach_the_limits(self, a):
        assert kappa_thresholds(a, a) == (0.5, 0.75)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="both closed forms subtract nearly equal numbers and lose "
                              "every digit while staying finite (ROADMAP item 2)")
    @pytest.mark.parametrize("a", [1e16, 1e20])
    def test_huge_equal_rates_reach_the_limits(self, a):
        rec, trans = kappa_thresholds(a, a)
        assert rec == pytest.approx(0.5) and trans == pytest.approx(0.75)


class TestThresholdConsistency:
    def test_two_class_bisection_matches_closed_forms(self):
        rec, trans = kappa_thresholds(2.0, 1.0)
        assert abs(bisect_verdict(lambda k: ex21_recurrence_verdict(k, 2),
                                  0.01, 1.0) - rec) <= 1e-6
        assert abs(bisect_verdict(lambda k: ex21_transience_verdict(k, 2),
                                  0.01, 1.2) - trans) <= 1e-6

    def test_three_class_bisection_matches_radicals(self):
        assert abs(bisect_verdict(lambda k: ex21_recurrence_verdict(k, 3), 0.01, 1.0)
                   - (11 - math.sqrt(73)) / 4) <= 1e-6
        assert abs(bisect_verdict(lambda k: ex21_transience_verdict(k, 3), 0.2, 1.5)
                   - (math.sqrt(17) - 1) / 4) <= 1e-6

    def test_refinement_ordering(self):
        # finer singleton partitions do not keep improving the recurrence
        # bound: it rises from 2 to 3 classes and falls at 4 and again at 6;
        # from 2 to 3 classes the transience bound happens to worsen
        rec2, trans2 = kappa_thresholds(2.0, 1.0)
        rec3 = (11 - math.sqrt(73)) / 4
        trans3 = (math.sqrt(17) - 1) / 4
        rec4, rec6 = (bisect_verdict(lambda k: ex21_recurrence_verdict(k, m), 0.01, 1.0)
                      for m in (4, 6))
        assert rec3 > rec2
        assert rec4 < rec3
        assert rec6 < rec4
        assert rec4 == pytest.approx(0.5858, abs=1e-4)
        assert rec6 == pytest.approx(0.5127, abs=1e-4)
        assert trans3 > trans2
        assert trans3 == pytest.approx(0.7807764, abs=1e-7)
        assert trans2 == pytest.approx(0.7320508, abs=1e-7)

    def test_recurrence_bisection_for_other_rate_pairs(self):
        # at b -> 0 the determinant roots nearly collide, so the inconclusive
        # boundary band widens the flip region; allow for it there
        for a, b, tol in ((1.0, 1.0, 1e-6), (1.0, 1e-6, 2e-5), (3.0, 0.5, 1e-6)):
            rec, _ = kappa_thresholds(a, b)
            chain = TailHomogeneousChain.constant(up=b, down=a)

            def recurrent(k):
                out = classify_infinite(chain, ex21_beta(k), ex21_partition(2), TO_INF)
                return out.verdict is Verdict.RECURRENT
            bis = bisect_verdict(recurrent, 1e-4, min(1.0 + b, 1.0) - 1e-9)
            assert abs(bis - rec) <= tol


class TestRelabelingInvariance:
    def test_order_free_classifiers(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            q = random_generator(rng, n)
            beta = rng.standard_normal(n) - 0.5
            perm = rng.permutation(n)
            qp = validate_qmatrix(q.entries[np.ix_(perm, perm)])
            bp = beta[perm]
            pairs = [
                (classify_avg(q, LyapunovBehavior(TO_INF, beta)),
                 classify_avg(qp, LyapunovBehavior(TO_INF, bp))),
                (classify_mmatrix(q, LyapunovBehavior(TO_INF, beta)),
                 classify_mmatrix(qp, LyapunovBehavior(TO_INF, bp))),
                (classify_ou(q, beta), classify_ou(qp, bp)),
                (classify_power_1d(q, beta, [1.0], 0.5),
                 classify_power_1d(qp, bp, [1.0], 0.5)),
                (classify_two_function(q, LyapunovBehavior(TO_INF, beta)),
                 classify_two_function(qp, LyapunovBehavior(TO_INF, bp))),
            ]
            for original, permuted in pairs:
                assert original.verdict is permuted.verdict


class TestCertificateRevalidation:
    def test_mmatrix_certificate_recomputes(self):
        out = classify_mmatrix(Q2, LyapunovBehavior(TO_INF, [-0.5, -0.5]))
        a = -(Q2.entries + np.diag([-0.5, -0.5]))
        np.testing.assert_allclose(out.certificate["mmatrix"]["minors"],
                                   leading_minors(a)[0], atol=1e-12)

    def test_avg_certificate_recomputes(self):
        out = classify_avg(Q2, LyapunovBehavior(TO_INF, [-3.0, 1.0]))
        mu = out.certificate["mu"]
        np.testing.assert_allclose(mu @ Q2.entries, 0.0, atol=1e-12)
        assert out.certificate["mu_beta"] == pytest.approx(
            float(mu @ np.array([-3.0, 1.0])), abs=1e-14)
