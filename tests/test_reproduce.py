import math

import numpy as np
import pytest

from regime import (
    ScanGrid,
    SdeModel,
    StateDependentRates,
    TailHomogeneousChain,
    bound_rates,
    power_drift,
    regime_sigma,
    run_ensemble,
    validate_qmatrix,
)
from regime import reproduce
from regime.reproduce import (
    EX21_REFERENCES,
    ex21_chain,
    ex22_qtilde,
    ex22_sde_model,
    ou_sde_model,
    reproduce_cor31,
    reproduce_ex21,
    reproduce_ex22,
    reproduce_ou,
)


# The hand-written ex22 and ou models the benchmark documents replaced; the
# document-built models must match them bit for bit.

def reference_ex22_rates() -> StateDependentRates:
    """q_12(x) = b (1+2x)/(1+x), q_21(x) = a (1+2x)/(2(1+x)) with the ex21
    tail rates b = 1 and a = 2: both are (1+2x)/(1+x)."""

    def rate_fn(x, lam):
        bump = (1.0 + 2.0 * x) / (1.0 + x)
        down = lam == 1
        return np.stack([np.where(down, bump, 0.0), np.where(down, 0.0, bump)])

    return StateDependentRates(n=2, rate_fn=rate_fn, hints={(0, 1): (1.0, 2.0),
                                                            (1, 0): (1.0, 2.0)})


def reference_ex22_sde(kappa: float) -> SdeModel:
    return SdeModel(dim=1, drift=power_drift((kappa - 1.0, kappa)),
                    sigma=regime_sigma(math.sqrt(2.0)), rates=reference_ex22_rates(),
                    boundary="reflect")


def reference_ou_sde(b) -> SdeModel:
    return SdeModel(dim=1, drift=power_drift(b), sigma=regime_sigma(1.0),
                    rates=validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]]), boundary="reflect")


class TestDocumentModels:
    @pytest.mark.parametrize("k", [1, 5, 100, 2000])
    def test_rate_table_is_the_reference_bit_for_bit(self, k):
        compiled = ex22_sde_model(0.5).rates.rate_fn
        reference = reference_ex22_rates().rate_fn
        rng = np.random.default_rng(k)
        for scale in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            x = scale * np.abs(rng.standard_normal(k))
            lam = rng.integers(0, 2, k)
            assert compiled(x, lam).tobytes() == reference(x, lam).tobytes()

    def test_ex21_chain_is_the_documents_parsed_once(self):
        assert ex21_chain() is ex21_chain()
        assert ex21_chain() == TailHomogeneousChain.constant(up=1.0, down=2.0)

    def test_bounding_generator_is_the_reference(self):
        want = bound_rates(reference_ex22_rates(), ScanGrid(lo=1e-6, hi=1e6, points=129))
        assert ex22_qtilde().entries.tobytes() == want.entries.tobytes()

    @pytest.mark.parametrize("build, reference, trials, seed", [
        (lambda: ex22_sde_model(0.3), lambda: reference_ex22_sde(0.3), 200, 7),
        (lambda: ex22_sde_model(1.2), lambda: reference_ex22_sde(1.2), 200, 7),
        (lambda: ou_sde_model((-2.0, 1.0)), lambda: reference_ou_sde((-2.0, 1.0)), 500, 3),
    ], ids=["ex22-0.3", "ex22-1.2", "ou"])
    def test_ensemble_is_the_reference_field_by_field(self, build, reference, trials, seed):
        kwargs = dict(x0=5.0, i0=0, r0=1.0, T=2.0, dt=1e-3, trials=trials, seed=seed,
                      escape_radius=20.0)
        got, want = run_ensemble(build(), **kwargs), run_ensemble(reference(), **kwargs)
        assert got.returned + got.escape_count > 0
        assert vars(got).keys() == vars(want).keys()
        for field, value in vars(want).items():
            assert repr(vars(got)[field]) == repr(value), field


class TestThresholdTables:
    def test_ex21_all_rows_agree(self):
        report = reproduce_ex21()
        assert {row["case"] for row in report["thresholds"]} == set(EX21_REFERENCES)
        assert all(row["agree_1e-6"] for row in report["thresholds"])

    def test_ex22_matches_the_infinite_benchmark(self):
        report = reproduce_ex22()
        np.testing.assert_array_equal(report["bounding_generator"],
                                      [[-1.0, 1.0], [2.0, -2.0]])
        rows = {row["case"]: row for row in report["thresholds"]}
        assert rows["recurrence"]["bisection"] == pytest.approx(
            EX21_REFERENCES["two-class recurrence"], abs=1e-6)
        assert rows["transience"]["bisection"] == pytest.approx(
            EX21_REFERENCES["two-class transience"], abs=1e-6)


class TestSignTables:
    def test_cor31_boundary_sweep(self):
        rows = reproduce_cor31()["boundary_sweep"]
        assert [row["verdict"] for row in rows] == ["recurrent", "recurrent", "transient"]

    def test_ou_verdicts_follow_the_sign(self):
        for row in reproduce_ou()["sign_table"]:
            if row["mu_b"] < -1e-9:
                assert row["verdict"] == "exponentially-ergodic"
            elif row["mu_b"] > 1e-9:
                assert row["verdict"] == "transient"
            else:
                assert row["verdict"] == "inconclusive"


class TestMonteCarloCorroboration:
    def test_ou_mc_summary(self):
        report = reproduce_ou(mc=True)
        summary = report["monte_carlo"][0]
        assert summary["return_fraction"] >= 0.95

    @pytest.mark.parametrize("reproducer", [reproduce_ex21, reproduce_ex22],
                             ids=["ex21", "ex22"])
    def test_two_sided_mc_rows(self, reproducer, monkeypatch):
        # the rows' own horizon of 60 is shortened to 5 for speed
        run = reproduce.simulate.run_ensemble
        monkeypatch.setattr(reproduce.simulate, "run_ensemble",
                            lambda model, **kw: run(model, **{**kw, "T": 5.0}))
        rows = reproducer(mc=True)["monte_carlo"]
        assert [row["label"] for row in rows] == ["kappa=0.3 (recurrent side)",
                                                  "kappa=1.2 (transient side)"]
        assert [(row["trials"], row["t_horizon"]) for row in rows] == [(200, 5.0)] * 2
        recurrent, transient = rows
        assert recurrent["return_fraction"] > transient["return_fraction"]
