import numpy as np
import pytest

from regime import (
    BetaSequence,
    Partition,
    ScanGrid,
    StateDependentRates,
    TailHomogeneousChain,
    bound_rates,
    coarsen,
    invariant_measure,
    validate_qmatrix,
)
from regime.errors import (
    EmptyClass,
    EmptyGrid,
    NegativeOffDiagonal,
    Reducible,
    RowSumNonzero,
    ScanNotStabilized,
    UnboundedRate,
)


def random_generator(rng, n):
    a = rng.uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return validate_qmatrix(a)


class TestValidateQMatrix:
    def test_smallest_irreducible_chain(self):
        q = validate_qmatrix([[-1, 1], [2, -2]])
        assert q.n == 2
        np.testing.assert_array_equal(q.exit_rates, [1.0, 2.0])

    def test_absorbing_state_is_reducible(self):
        with pytest.raises(Reducible):
            validate_qmatrix([[-1, 1], [0, 0]])

    def test_row_defect(self):
        with pytest.raises(RowSumNonzero):
            validate_qmatrix([[-1, 0.5], [2, -2]])

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_qmatrix([[1, -1], [-2, 2]])

    def test_tolerated_round_off_is_exactly_zero(self):
        q = validate_qmatrix([[-1.0, 1.0, -1e-13], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        assert q.entries[0, 2] == 0.0
        assert (q.entries - np.diag(np.diag(q.entries))).min() == 0.0

    def test_single_regime(self):
        q = validate_qmatrix([[0.0]])
        np.testing.assert_array_equal(invariant_measure(q), [1.0])

    def test_entries_read_only(self):
        q = validate_qmatrix([[-1, 1], [2, -2]])
        with pytest.raises(ValueError):
            q.entries[0, 0] = 5.0


class TestInvariantMeasure:
    def test_two_state_by_hand(self):
        q = validate_qmatrix([[-1, 1], [2, -2]])
        np.testing.assert_allclose(invariant_measure(q), [2 / 3, 1 / 3], atol=1e-14)

    def test_detailed_balance_two_state(self):
        # a mu_2 = b mu_1 with a = 2, b = 1
        q = validate_qmatrix([[-1, 1], [2, -2]])
        mu = invariant_measure(q)
        assert abs(2 * mu[1] - 1 * mu[0]) < 1e-14

    def test_symmetric_generator_is_uniform(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.1, 1.0, size=(4, 4))
        a = (s + s.T) / 2
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=1))
        mu = invariant_measure(validate_qmatrix(a))
        np.testing.assert_allclose(mu, 0.25, atol=1e-12)

    def test_residual_and_normalisation_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            q = random_generator(rng, n)
            mu = invariant_measure(q)
            assert abs(mu.sum() - 1.0) <= 1e-14
            assert np.abs(mu @ q.entries).max() <= 1e-10 * q.scale()
            assert mu.min() > 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q = random_generator(rng, 6)
        mu = invariant_measure(q)
        perm = rng.permutation(6)
        qp = validate_qmatrix(q.entries[np.ix_(perm, perm)])
        np.testing.assert_allclose(invariant_measure(qp), mu[perm], atol=1e-12)


def two_regime_rates(up, down):
    """``rate_fn(x, lam)`` of two regimes with q_01(x) = up(x), q_10(x) = down(x)."""
    def rate_fn(x, lam):
        return np.stack([np.where(lam == 1, down(x), 0.0), np.where(lam == 0, up(x), 0.0)])
    return rate_fn


class TestBoundRates:
    def test_hints_take_precedence(self):
        # rates b(1+2x)/(1+x) up and a(1+2x)/(2(1+x)) down collapse to the
        # constant chain with up-rate b and down-rate a; with every rate
        # hinted, rate_fn is never called, scan grid or not
        a, b = 2.0, 1.0

        def fn(x, lam):
            raise AssertionError("rate_fn called although every rate has a hint")

        rates = StateDependentRates(n=2, rate_fn=fn,
                                    hints={(0, 1): (b, 2 * b), (1, 0): (a / 2, a)})
        for grid in (None, ScanGrid(lo=0.01, hi=100.0)):
            qt = bound_rates(rates, grid)
            np.testing.assert_array_equal(qt.entries, [[-b, b], [a, -a]])

    def test_one_call_per_scanned_row_and_grid_pass(self):
        # row 0 is fully hinted; rows 1 and 2 are read on the grid, then on the doubled grid
        calls = []

        def fn(x, lam):
            calls.append((x.size, np.unique(lam).tolist()))
            return np.where(np.arange(3)[:, None] == lam, 0.0, 1.0 + 0.0 * x)

        rates = StateDependentRates(n=3, rate_fn=fn, hints={(0, 1): (1.0, 1.0), (0, 2): (1.0, 1.0)})
        qt = bound_rates(rates, ScanGrid(lo=1.0, hi=2.0, points=5))
        assert calls == [(5, [1]), (9, [1]), (5, [2]), (9, [2])]
        np.testing.assert_array_equal(qt.entries, [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0],
                                                   [1.0, 1.0, -2.0]])

    def test_bad_rate_table_shape_is_rejected(self):
        # one rate per position is not the (n, k) table
        rates = StateDependentRates(n=2, rate_fn=lambda x, lam: np.ones_like(x))
        with pytest.raises(ValueError, match=r"rate_fn\(x, lam\)"):
            bound_rates(rates, ScanGrid(lo=0.01, hi=100.0))

    def test_constant_rates_identity(self):
        fn = two_regime_rates(up=lambda x: 0.7, down=lambda x: 1.3)
        rates = StateDependentRates(n=2, rate_fn=fn)
        qt = bound_rates(rates, ScanGrid(lo=0.01, hi=100.0))
        np.testing.assert_array_equal(qt.entries, [[-0.7, 0.7], [1.3, -1.3]])

    def test_monotone_rate_scanned_to_its_limit(self):
        fn = two_regime_rates(up=lambda x: 1.0 + np.exp(-x), down=lambda x: 1.0)
        rates = StateDependentRates(n=2, rate_fn=fn)
        qt = bound_rates(rates, ScanGrid(lo=1e-3, hi=60.0))
        # entry above the diagonal takes the infimum, reached as x -> infinity
        np.testing.assert_allclose(qt.entries, [[-1, 1], [1, -1]], atol=1e-9)

    def test_rate_cap(self):
        # x**2 reaches 1e12 on the grid, above the fixed cap of 1e8
        fn = two_regime_rates(up=lambda x: x**2, down=lambda x: 1.0)
        rates = StateDependentRates(n=2, rate_fn=fn)
        with pytest.raises(UnboundedRate, match=r"q\[0,1\] exceeds the rate cap 1e\+08"):
            bound_rates(rates, ScanGrid(lo=1.0, hi=1e6))

    def test_grid_required_without_hints(self):
        rates = StateDependentRates(n=2, rate_fn=two_regime_rates(up=lambda x: 1.0,
                                                                   down=lambda x: 1.0))
        with pytest.raises(EmptyGrid):
            bound_rates(rates)

    def test_geometric_grid_rejects_nonpositive_lo(self):
        with pytest.raises(EmptyGrid):
            ScanGrid(lo=0.0, hi=1.0).build()

    def test_refinement_detects_unstable_scan(self):
        # a spike the coarse grid misses entirely
        fn = two_regime_rates(up=lambda x: 1.0,
                              down=lambda x: 5.0 * np.maximum(0.0, 1.0 - np.abs(x - 1.25) * 40.0))
        rates = StateDependentRates(n=2, rate_fn=fn)
        with pytest.raises(ScanNotStabilized):
            bound_rates(rates, ScanGrid(lo=1.0, hi=2.0, points=3, spacing="linear"))


class TestTailHomogeneousChain:
    def test_constant_chain_rates(self):
        chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        assert chain.up(1) == chain.up(17) == 1.0
        assert chain.down(2) == chain.down(40) == 2.0
        assert chain.is_recurrent()

    def test_transient_tail(self):
        assert not TailHomogeneousChain.constant(up=2.0, down=1.0).is_recurrent()

    def test_positive_rates_required(self):
        with pytest.raises(ValueError):
            TailHomogeneousChain(up_rates=(0.0,), down_rates=(1.0,), K0=1)


class TestPartitionAndCoarsen:
    def setup_method(self):
        self.kappa = 0.5
        self.chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        self.beta = BetaSequence(
            head=tuple(self.kappa - 1.0 / j for j in range(1, 9)),
            tail_limit=self.kappa)

    def test_two_class_cutpoints(self):
        p = Partition.from_cutpoints(self.beta, [self.kappa - 1.0, self.kappa])
        assert p.classes == ((1, 1), (2, None))

    def test_three_class_cutpoints(self):
        p = Partition.from_cutpoints(
            self.beta, [self.kappa - 1.0, self.kappa - 0.5, self.kappa])
        assert p.classes == ((1, 1), (2, 2), (3, None))

    def test_empty_class_raises(self):
        with pytest.raises(EmptyClass):
            Partition.from_cutpoints(
                self.beta, [self.kappa - 1.0, self.kappa - 0.9, self.kappa])

    def test_two_class_coarsening(self):
        beta_f, q_f = coarsen(self.chain, self.beta, Partition(((1, 1), (2, None))))
        np.testing.assert_allclose(beta_f, [self.kappa - 1.0, self.kappa], atol=1e-15)
        np.testing.assert_array_equal(q_f, [[-1.0, 1.0], [2.0, -2.0]])

    def test_three_class_coarsening(self):
        beta_f, q_f = coarsen(self.chain, self.beta,
                              Partition(((1, 1), (2, 2), (3, None))))
        np.testing.assert_allclose(
            beta_f, [self.kappa - 1.0, self.kappa - 0.5, self.kappa], atol=1e-15)
        np.testing.assert_array_equal(
            q_f, [[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])

    def test_single_class(self):
        beta_f, q_f = coarsen(self.chain, self.beta, Partition(((1, None),)))
        np.testing.assert_allclose(beta_f, [self.kappa])
        np.testing.assert_array_equal(q_f, [[0.0]])

    def test_coarse_beta_dominates_and_increases(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            limit = rng.uniform(-1, 1)
            head = limit - np.sort(rng.uniform(0.05, 2.0, size=10))[::-1]
            beta = BetaSequence(head=tuple(head), tail_limit=limit)
            cuts = sorted({head[0], head[3], head[7], limit})
            try:
                p = Partition.from_cutpoints(beta, cuts)
            except EmptyClass:
                continue
            beta_f, _ = coarsen(self.chain, beta, p)
            assert (np.diff(beta_f) > 0).all()
            for (lo, hi), bf in zip(p.classes, beta_f):
                members = range(lo, (hi or len(head)) + 1)
                assert all(beta.value(j) <= bf + 1e-15 for j in members)
