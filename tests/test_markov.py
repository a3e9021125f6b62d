import re

import numpy as np
import pytest

from regime import markov
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

    def test_strong_connectivity_matches_scipy(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 40))
            # densities near 1/n give both outcomes
            adj = rng.random((n, n)) < rng.uniform(0.2, 3.0) / n
            want = csgraph.connected_components(adj, connection="strong")[0] == 1
            assert markov._strongly_connected(adj) == want, (n, adj.sum())
            seen.add(want)
        # a cycle and a path need the full n - 1 steps
        for n in (2, 3, 17, 18, 64, 65, 66):
            cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
            assert markov._strongly_connected(cycle)
            path = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
            assert markov._strongly_connected(path)
            path[n // 2, n // 2 - 1] = False
            assert not markov._strongly_connected(path)
        assert seen == {True, False}

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
    def test_hints_are_checked_against_the_scan(self):
        # rates b(1+2x)/(1+x) up and a(1+2x)/(2(1+x)) down lie in their hints,
        # which collapse them to the constant chain with up-rate b and
        # down-rate a
        a, b = 2.0, 1.0
        hints = {(0, 1): (b, 2 * b), (1, 0): (a / 2, a)}
        fn = two_regime_rates(up=lambda x: b * (1 + 2 * x) / (1 + x),
                              down=lambda x: a * (1 + 2 * x) / (2 * (1 + x)))
        qt = bound_rates(StateDependentRates(n=2, rate_fn=fn, hints=hints),
                         ScanGrid(lo=0.01, hi=100.0))
        np.testing.assert_array_equal(qt.entries, [[-b, b], [a, -a]])

    @pytest.mark.parametrize("down, error, message", [
        (lambda x: x - 3.0, NegativeOffDiagonal,
         r"^switching rate q\[1,0\]\(x = 0\.01\) = -2\.99 is negative$"),
        (lambda x: 1.0 + x, ValueError,
         r"^q\[1,0\]\(x = 1\.0\d*\) = 2\.0\d* lies outside its hint \[inf, sup\] = \[1, 2\]$"),
        (lambda x: 0.5 + 0.0 * x, ValueError,
         r"^q\[1,0\]\(x = 0\.01\) = 0\.5 lies outside its hint \[inf, sup\] = \[1, 2\]$"),
    ], ids=["negative", "above-sup", "below-inf"])
    def test_hint_contradicted_by_the_scan_is_rejected(self, down, error, message):
        fn = two_regime_rates(up=lambda x: 1.0 + 0.0 * x, down=down)
        rates = StateDependentRates(n=2, rate_fn=fn, hints={(0, 1): (1.0, 1.0), (1, 0): (1.0, 2.0)})
        with pytest.raises(error, match=message):
            bound_rates(rates, ScanGrid(lo=0.01, hi=100.0))

    @pytest.mark.parametrize("hint", [(2.0, 1.0), (1.0, float("nan"))],
                             ids=["inverted", "nan"])
    def test_inverted_hint_is_rejected_when_the_rates_are_built(self, hint):
        # an entry below the diagonal reads only sup; an inverted hint is
        # refused before any scan reads the rates
        fn = two_regime_rates(up=lambda x: 1.0, down=lambda x: 1.0)
        with pytest.raises(ValueError, match=r"^hint for q\[1,0\] needs inf <= sup, got "):
            StateDependentRates(n=2, rate_fn=fn, hints={(0, 1): (1.0, 1.0), (1, 0): hint})

    @pytest.mark.parametrize("pair, hint, message", [
        ((0, 5), (1.0, 2.0), r"^hint for q\[0,5\] names no off-diagonal pair of regimes 0\.\.1$"),
        ((1, 1), (1.0, 2.0), r"^hint for q\[1,1\] names no off-diagonal pair of regimes 0\.\.1$"),
        ((-1, 0), (1.0, 2.0), r"^hint for q\[-1,0\] names no off-diagonal pair"),
        ((0.5, 1), (1.0, 2.0), r"^hint for q\[0\.5,1\] names no off-diagonal pair"),
        ((True, 0), (1.0, 2.0), r"^hint for q\[True,0\] names no off-diagonal pair"),
        ((1, 0), (-3.0, -1.0), r"^hint for q\[1,0\] needs finite bounds with inf >= 0, "
                               r"got \[-3, -1\]$"),
        ((1, 0), (1.0, float("inf")), r"^hint for q\[1,0\] needs finite bounds with inf >= 0, "
                                      r"got \[1, inf\]$"),
    ], ids=["out-of-range", "diagonal", "negative-index", "float-index", "bool-index", "negative",
            "infinite"])
    def test_bad_hint_is_rejected_when_the_rates_are_built(self, pair, hint, message):
        # bound_rates would skip such a key, and a negative sup would let the
        # Monte Carlo engine keep no uniform at all
        fn = two_regime_rates(up=lambda x: 1.0, down=lambda x: 1.0)
        with pytest.raises(ValueError, match=message):
            StateDependentRates(n=2, rate_fn=fn, hints={(0, 1): (1.0, 1.0), pair: hint})

    def test_one_call_per_row(self):
        # row 0 is fully hinted and read too; every row is read once, on the
        # grid refined once
        calls = []

        def fn(x, lam):
            calls.append((x.size, np.unique(lam).tolist()))
            return np.where(np.arange(3)[:, None] == lam, 0.0, 1.0 + 0.0 * x)

        rates = StateDependentRates(n=3, rate_fn=fn, hints={(0, 1): (1.0, 1.0), (0, 2): (1.0, 1.0)})
        qt = bound_rates(rates, ScanGrid(lo=1.0, hi=2.0, points=5))
        assert calls == [(9, [0]), (9, [1]), (9, [2])]
        np.testing.assert_array_equal(qt.entries, [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0],
                                                   [1.0, 1.0, -2.0]])

    def test_even_nodes_are_the_unrefined_grid(self):
        # numpy's own grid of `points` nodes, bit for bit, on random grids
        rng = np.random.default_rng(17)
        for _ in range(500):
            lo = float(10.0 ** rng.uniform(-8, 3))
            hi = lo * float(10.0 ** rng.uniform(1e-3, 12))
            points = int(rng.integers(2, 400))
            geo = ScanGrid(lo=lo, hi=hi, points=points).build()
            assert geo.size == 2 * points - 1
            np.testing.assert_array_equal(geo[::2], np.geomspace(lo, hi, points))
            lo = float(rng.uniform(-1e3, 1e3))
            hi = lo + float(10.0 ** rng.uniform(-3, 4))
            lin = ScanGrid(lo=lo, hi=hi, points=points, spacing="linear").build()
            np.testing.assert_array_equal(lin[::2], np.linspace(lo, hi, points))

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

    @pytest.mark.parametrize("up, down, error, message", [
        (lambda x: 1.0, lambda x: x - 3.0, NegativeOffDiagonal,
         r"^switching rate q\[1,0\]\(x = 0\.001\) = -2\.999 is negative$"),
        (lambda x: np.where(x < 2.0, 1.0, np.nan), lambda x: 1.0, UnboundedRate,
         r"^switching rate q\[0,1\]\(x = 2\.\d+\) = nan is not finite$"),
        (lambda x: np.where(x < 2.0, 1.0, np.inf), lambda x: 1.0, UnboundedRate,
         r"^q\[0,1\] exceeds the rate cap 1e\+08 on the scan grid$"),
    ], ids=["negative", "nan", "inf"])
    def test_bad_scanned_rates_are_rejected(self, up, down, error, message):
        # the table is judged as the simulator judges it: a negative or NaN
        # rate at its first grid point, an infinite one by the rate cap
        rates = StateDependentRates(n=2, rate_fn=two_regime_rates(up=up, down=down))
        with pytest.raises(error, match=message):
            bound_rates(rates, ScanGrid(lo=1e-3, hi=1e3))

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
            TailHomogeneousChain(up_rates=(0.0,), down_rates=(1.0,))

    def test_k0_is_the_common_length(self):
        chain = TailHomogeneousChain(up_rates=(0.5, 1.0), down_rates=(3.0, 2.0))
        assert chain.K0 == 2 and chain.up(9) == 1.0 and chain.down(2) == 3.0
        for up, down in (((), ()), ((1.0, 1.0, 1.0), (1.0, 1.0))):
            with pytest.raises(ValueError, match="must both have length K0 >= 1"):
                TailHomogeneousChain(up_rates=up, down_rates=down)


class TestPartitionAndCoarsen:
    def setup_method(self):
        self.kappa = 0.5
        self.chain = TailHomogeneousChain.constant(up=1.0, down=2.0)
        self.beta = BetaSequence(
            head=tuple(self.kappa - 1.0 / j for j in range(1, 9)),
            tail_limit=self.kappa)

    def test_list_head_is_the_tuple_head(self):
        head = [self.kappa - 1.0 / j for j in range(1, 9)]
        seq = BetaSequence(head=head, tail_limit=self.kappa)
        assert seq.head == self.beta.head and isinstance(seq.head, tuple)
        assert [seq.value(j) for j in range(1, 12)] == [self.beta.value(j) for j in range(1, 12)]
        for lo, hi in [(1, 1), (2, 5), (1, None), (5, None), (9, None)]:
            assert seq.sup_over(lo, hi) == self.beta.sup_over(lo, hi)
        cuts = [self.kappa - 1.0, self.kappa - 0.5, self.kappa]
        assert (Partition.from_cutpoints(seq, cuts).classes
                == Partition.from_cutpoints(self.beta, cuts).classes)

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


def reference_from_cutpoints(beta, cutpoints):
    """``Partition.from_cutpoints`` as it was before the one-pass rewrite: a
    member list per bin, contiguity checked bin by bin, and ``Partition``
    catching classes out of order.  The differential test holds the current
    code to its classes and exception types."""
    cuts = np.asarray(cutpoints, dtype=float)
    if cuts.ndim != 1 or cuts.size < 1:
        raise ValueError("cutpoints must be a nonempty 1-d sequence")
    if not np.isfinite(cuts).all() or (np.diff(cuts) <= 0).any():
        raise ValueError("cutpoints must be finite and strictly increasing")
    cuts_up = cuts + 1e-12 * np.maximum(1.0, np.abs(cuts))
    if beta.sup() > cuts_up[-1]:
        raise ValueError("last cutpoint must dominate the whole beta sequence")

    def bin_of(v):
        return int(np.searchsorted(cuts_up, v, side="left"))

    head_bins = [bin_of(v) for v in beta.head]
    tail_bin = bin_of(beta.tail_limit)
    h_last = beta.head[-1]
    lo_gap, hi_gap = min(h_last, beta.tail_limit), max(h_last, beta.tail_limit)
    if ((cuts_up > lo_gap) & (cuts_up < hi_gap)).any():
        raise ValueError("a cutpoint falls between the last head value and the tail "
                         "limit; extend the beta head")
    bins = head_bins + [tail_bin]
    m = cuts.size
    members = {b: [] for b in range(m)}
    for j, b in enumerate(bins[:-1], start=1):
        members[b].append(j)
    empty = [b for b in range(m) if not members[b] and b != tail_bin]
    if empty:
        raise EmptyClass(f"partition bins {empty} contain no state; delete those cutpoints")
    classes = []
    for b in range(m):
        js = members[b]
        if b == tail_bin:
            lo = min(js) if js else len(beta.head) + 1
            if js and js != list(range(lo, len(beta.head) + 1)):
                raise ValueError("cutpoint classes are not contiguous state intervals; "
                                 "supply explicit classes instead")
            classes.append((lo, None))
        else:
            lo, hi = min(js), max(js)
            if js != list(range(lo, hi + 1)):
                raise ValueError("cutpoint classes are not contiguous state intervals; "
                                 "supply explicit classes instead")
            classes.append((lo, hi))
    return Partition(classes=tuple(classes))


def _outcome(fn, beta, cuts):
    try:
        return fn(beta, cuts).classes
    except (ValueError, EmptyClass) as exc:
        return type(exc)


class TestPartitionErrors:
    @pytest.mark.parametrize("classes, message", [
        ((), "partition needs at least one class"),
        (((2, None),), "classes must tile {1,2,...} contiguously in order"),
        (((1, 2), (4, None)), "classes must tile {1,2,...} contiguously in order"),
        (((1, 3),), "the final class must be the infinite tail (hi=None)"),
        (((1, None), (2, None)), "non-final classes must be nonempty finite intervals"),
        (((1, 0), (1, None)), "non-final classes must be nonempty finite intervals"),
    ])
    def test_bad_classes_are_rejected(self, classes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(classes=classes)


class TestFromCutpointsErrors:
    @pytest.mark.parametrize("head, tail, cuts, error, message", [
        ((-0.5, 0.0), 0.5, [], ValueError, "cutpoints must be a nonempty 1-d sequence"),
        ((-0.5, 0.0), 0.5, [[0.0, 1.0]], ValueError,
         "cutpoints must be a nonempty 1-d sequence"),
        ((-0.5, 0.0), 0.5, [1.0, 0.0], ValueError,
         "cutpoints must be finite and strictly increasing"),
        ((-0.5, 0.0), 0.5, [0.0, 0.0, 1.0], ValueError,
         "cutpoints must be finite and strictly increasing"),
        ((-0.5, 0.0), 0.5, [0.0, np.inf], ValueError,
         "cutpoints must be finite and strictly increasing"),
        ((-0.5, 0.0), 0.5, [0.0, 0.25], ValueError,
         "last cutpoint must dominate the whole beta sequence"),
        ((-0.5, 0.0), 0.5, [0.25, 0.5], ValueError,
         "a cutpoint falls between the last head value and the tail limit; "
         "extend the beta head"),
        ((-0.5, 0.5), 0.5, [-1.0, 0.0, 0.5], EmptyClass,
         "partition bins [0] contain no state; delete those cutpoints"),
        ((-0.5, 0.0, 0.5), 0.5, [-0.5, -0.25, 0.0, 0.5], EmptyClass,
         "partition bins [1] contain no state; delete those cutpoints"),
    ])
    def test_bad_cutpoints_are_rejected(self, head, tail, cuts, error, message):
        beta = BetaSequence(head=head, tail_limit=tail)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Partition.from_cutpoints(beta, cuts)

    @pytest.mark.parametrize("head, tail", [
        ((-1.0, 0.5, -1.0, 0.5), 0.5),  # bin 0 holds states 1 and 3, not 2
        ((0.5, -1.0, 0.5), 0.5),  # the tail's bin holds states 1 and 3, not 2
        ((0.5, 0.5, -1.0, -1.0), -1.0),  # each bin is contiguous, the tail's comes first
    ], ids=["split-bin", "split-tail", "tail-first"])
    def test_misordered_bins_are_rejected(self, head, tail):
        beta = BetaSequence(head=head, tail_limit=tail)
        message = ("cutpoint classes are not contiguous state intervals in order; "
                   "supply explicit classes instead")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition.from_cutpoints(beta, [0.0, 1.0])

    def test_matches_the_reference_on_random_cases(self):
        # heads drawn on a quarter grid, so values tie with each other and
        # with the cutpoints; increasing, decreasing and unordered heads
        rng = np.random.default_rng(20241019)
        grid = np.arange(-4, 6) / 4.0
        outcomes = {}
        for case in range(3000):
            vals = rng.choice(grid[:-1], size=int(rng.integers(2, 10)))
            if case % 3 == 0:
                vals = np.sort(vals)
            elif case % 3 == 1:
                vals = np.sort(vals)[::-1]
            if case % 2:  # the tail limit continues the head
                vals[-1] = vals[-2]
            beta = BetaSequence(head=tuple(vals[:-1]), tail_limit=float(vals[-1]))
            cuts = rng.choice(grid[:-1], size=int(rng.integers(1, 5)), replace=False)
            if case % 4:  # a last cutpoint above every value
                cuts = np.append(cuts, grid[-1])
            cuts = np.sort(cuts)
            if case % 7 == 0:
                cuts = cuts + rng.choice([-1e-13, 1e-13, 1e-9], size=cuts.size)
            want = _outcome(reference_from_cutpoints, beta, cuts)
            assert _outcome(Partition.from_cutpoints, beta, cuts) == want, (beta, cuts)
            key = want if isinstance(want, type) else "accepted"
            outcomes[key] = outcomes.get(key, 0) + 1
        assert set(outcomes) == {"accepted", ValueError, EmptyClass}
        assert min(outcomes.values()) >= 100, outcomes
