"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import math
import time

import numpy as np
import pytest

from regime import (
    Verdict,
    classify_power_1d,
    fredholm_solve,
    invariant_measure,
    leading_minors,
    perron,
    run_ensemble,
    semipositive_certificate,
    validate_qmatrix,
)
from regime.criteria import Limit, LyapunovBehavior, classify_avg, classify_mmatrix, \
    classify_ou
from regime.markov import BetaSequence, Partition, TailHomogeneousChain, coarsen
from regime.mmatrix import BOUNDARY_BAND, least_real_eigenvalue
from regime.reproduce import ex22_sde_model, ou_sde_model, reproduce_ex21
from regime.simulate import _simulate_paths


def _announce(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_irreducible(rng, n):
    a = rng.uniform(0.2, 1.5, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return validate_qmatrix(a)


def test_criterion_1_benchmark_thresholds():
    t0 = time.perf_counter()
    report = reproduce_ex21()
    rows = {row["case"]: row for row in report["thresholds"]}
    references = {
        "two-class recurrence": 2.0 - math.sqrt(2.0),
        "two-class transience": math.sqrt(3.0) - 1.0,
        "three-class recurrence": (11.0 - math.sqrt(73.0)) / 4.0,
        "three-class transience": (math.sqrt(17.0) - 1.0) / 4.0,
    }
    worst = 0.0
    for case, ref in references.items():
        row = rows[case]
        assert row["closed_form"] == pytest.approx(ref, abs=1e-12), case
        worst = max(worst, abs(row["bisection"] - ref))
        assert abs(row["bisection"] - ref) <= 1e-6, case
    elapsed = time.perf_counter() - t0
    _announce("criterion 1", True,
              f"four thresholds, bisection error <= {worst:.2e}, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_2_mmatrix_equivalence_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    checked = skipped = disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        a = -rng.uniform(0.0, 5.0, size=(n, n))
        np.fill_diagonal(a, rng.uniform(-5.0, 5.0, size=n))
        scale = max(1.0, np.abs(a).max())
        minors, _ = leading_minors(a)
        bands = BOUNDARY_BAND * scale ** np.arange(1, n + 1)
        tau = least_real_eigenvalue(a)
        if abs(tau) <= BOUNDARY_BAND * scale or (np.abs(minors) <= bands).any():
            skipped += 1
            continue
        checked += 1
        minors_ok = bool((minors > 0).all())
        sem_ok = semipositive_certificate(a) is not None
        eig_ok = tau > 0
        if not (minors_ok == sem_ok == eig_ok):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _announce("criterion 2", disagreements == 0,
              f"{checked} Z-matrices checked ({skipped} on the boundary skipped), "
              f"{disagreements} disagreements, {elapsed:.2f}s")
    assert disagreements == 0
    assert checked >= 950
    assert elapsed < 30.0


def test_criterion_3_perron_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    p = 1e-3
    worst_rel = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        q = _random_irreducible(rng, n)
        mu = invariant_measure(q)
        beta = rng.standard_normal(n)
        target = -(0.3 + 0.7 * rng.random())
        beta += target - float(mu @ beta)  # averaged drift exactly `target`

        eta0 = perron(q, beta, 0.0).eta_p
        assert abs(eta0) <= 1e-10

        eta = perron(q, beta, p).eta_p
        assert eta > 0
        rel = abs(eta - (-p * target)) / (p * abs(target))
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05
    elapsed = time.perf_counter() - t0
    _announce("criterion 3", True,
              f"200 spectral slopes, worst first-order error {worst_rel:.2%}, "
              f"{elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_4_fredholm_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        q = _random_irreducible(rng, n)
        mu = invariant_measure(q)
        beta = rng.standard_normal(n)
        target = -(0.2 + rng.random())
        beta += target - float(mu @ beta)
        pair = fredholm_solve(q, beta)
        assert pair.kappa == pytest.approx(-target, rel=1e-12)
        scale = q.scale() + np.abs(beta).max()
        resid = np.abs(q.entries @ pair.xi + pair.kappa + beta).max()
        assert resid <= 1e-9 * scale

    # the proof-side boundary quantity: sum(mu_i b_i w_i) < 0 for Q w = b
    # whenever b is mu-centered and nonzero; cross-checked against the
    # Dirichlet-form identity -2 s = sum mu_i q_ij (w_j - w_i)^2
    for _ in range(200):
        n = int(rng.integers(2, 9))
        q = _random_irreducible(rng, n)
        mu = invariant_measure(q)
        b = rng.standard_normal(n)
        b -= float(mu @ b)
        if np.abs(b).max() < 1e-6:
            b[0] += 1.0
            b -= float(mu @ b)
        out = classify_power_1d(q, b, [1.0], 0.5)
        s = out.certificate["boundary_certificate"]["mu_b_w"]
        assert s < 0
        w = out.certificate["boundary_certificate"]["w"]
        dirichlet = sum(mu[i] * q.entries[i, j] * (w[j] - w[i]) ** 2
                        for i in range(n) for j in range(n) if i != j)
        assert s == pytest.approx(-dirichlet / 2, rel=1e-8)
    elapsed = time.perf_counter() - t0
    _announce("criterion 4", True,
              f"200 resolvent pairs + 200 boundary certificates, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_5_power_drift_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(999)
    qs = [validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]]),
          _random_irreducible(rng, 3), _random_irreducible(rng, 5)]
    cases = 0
    for q in qs:
        mu = invariant_measure(q)
        for delta in (-1.0, -0.5, 0.0, 0.5, 0.9):
            for sigma in (0.5, 1.0, 2.0):
                for shift in (-0.7, -0.1, 0.0, 0.1, 0.7):
                    b = rng.standard_normal(q.n)
                    b += shift - float(mu @ b)
                    out = classify_power_1d(q, b, [sigma], delta)
                    assert out.verdict is not Verdict.INCONCLUSIVE
                    expected = Verdict.RECURRENT if shift <= 0 else Verdict.TRANSIENT
                    assert out.verdict is expected
                    cases += 1
    elapsed = time.perf_counter() - t0
    _announce("criterion 5", True,
              f"{cases} grid cases, recurrent iff averaged drift <= 0, {elapsed:.2f}s")
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_6_monte_carlo_corroboration():
    t0 = time.perf_counter()
    common = dict(x0=5.0, i0=0, r0=1.0, T=500.0, dt=1e-3, trials=500,
                  escape_radius=50.0)

    recurrent = run_ensemble(ex22_sde_model(0.3), seed=1001, **common)
    assert recurrent.return_fraction >= 0.95

    transient = run_ensemble(ex22_sde_model(1.2), seed=1002, **common)
    assert transient.escape_fraction >= 0.8

    ergodic = run_ensemble(ou_sde_model((-2.0, 1.0)), seed=1003, **common)
    assert ergodic.return_fraction >= 0.95

    elapsed = time.perf_counter() - t0
    _announce("criterion 6", True,
              f"return {recurrent.return_fraction:.3f} / escape "
              f"{transient.escape_fraction:.3f} / return {ergodic.return_fraction:.3f}, "
              f"{elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    # invariant measures: residual and normalisation on 1000 random generators
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        a = rng.uniform(0.05, 1.0, size=(n, n))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=1))
        q = validate_qmatrix(a)
        mu = invariant_measure(q)
        assert abs(mu.sum() - 1.0) <= 1e-14
        assert np.abs(mu @ q.entries).max() <= 1e-10 * q.scale()

    # permutation invariance of the order-free classifiers
    for _ in range(20):
        n = int(rng.integers(2, 7))
        q = _random_irreducible(rng, n)
        beta = rng.standard_normal(n) - 0.4
        perm = rng.permutation(n)
        qp = validate_qmatrix(q.entries[np.ix_(perm, perm)])
        mu = invariant_measure(q)
        np.testing.assert_allclose(invariant_measure(qp), mu[perm], atol=1e-12)
        lyap, lyap_p = (LyapunovBehavior(Limit.TO_INFINITY, beta),
                        LyapunovBehavior(Limit.TO_INFINITY, beta[perm]))
        assert classify_avg(q, lyap).verdict is classify_avg(qp, lyap_p).verdict
        assert classify_mmatrix(q, lyap).verdict is classify_mmatrix(qp, lyap_p).verdict
        assert classify_ou(q, beta).verdict is classify_ou(qp, beta[perm]).verdict

    # cumulative weights from the triangular transform strictly decrease
    for _ in range(50):
        m = int(rng.integers(2, 12))
        xi = np.triu(np.ones((m, m))) @ rng.uniform(0.01, 3.0, size=m)
        assert (np.diff(xi) < 0).all() and xi.min() > 0

    # coarsened drift bounds increase strictly and dominate their classes
    chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
    for _ in range(25):
        limit = rng.uniform(-1.0, 1.0)
        head = limit - np.sort(rng.uniform(0.05, 2.0, size=8))[::-1]
        beta = BetaSequence(head=tuple(head), tail_limit=limit)
        partition = Partition(((1, 1), (2, 3), (4, None)))
        beta_f, _ = coarsen(chain, beta, partition)
        assert (np.diff(beta_f) > 0).all()
        for (lo, hi), bound in zip(partition.classes, beta_f):
            for j in range(lo, (hi or len(head)) + 1):
                assert beta.value(j) <= bound + 1e-15

    # simulator determinism, including across blocks of paths
    model = ex22_sde_model(0.3)
    kwargs = dict(x0=5.0, i0=0, r0=1.0, T=4.0, dt=1e-3, trials=120, seed=55)
    first = run_ensemble(model, **kwargs)
    second = run_ensemble(model, **kwargs)
    assert first == second
    ids = np.arange(120)
    args = (np.array([5.0]), 0, 1.0, 4000, 1e-3, 55)
    whole = _simulate_paths(model, ids, *args)
    np.testing.assert_array_equal(np.isnan(whole[1]), np.isfinite(whole[0]))
    for block in np.array_split(ids, 4):
        part = _simulate_paths(model, block, *args)
        for w, p in zip(whole, part):
            np.testing.assert_array_equal(w[block], p)

    elapsed = time.perf_counter() - t0
    _announce("criterion 7", True, f"property suite complete, {elapsed:.1f}s")
    assert elapsed < 60.0
