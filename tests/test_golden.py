"""Golden reports: exact Monte Carlo output at fixed seeds and short horizons.

The values were recorded from the per-regime step loop that preceded the
whole-batch step kernel; every float is compared through ``float.hex``, so a
change to the integrator that moves any report by one ulp fails here.  The
cases cover the built-in benchmark models (state-dependent ex22 rates, the
2-regime OU generator, the 12-regime truncated ex21 chain), the models the
CLI builds from emitted files (cor31 has delta = 0.5, the nonlinear power
drift), a 2-d model with a noise matrix, and one single-path ``step`` sequence.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from regime import SdeModel, cli, reproduce, run_ensemble, step, validate_qmatrix
from regime.modelfile import load_model

PLANE_SIGMA = np.array([[1.0, 0.3], [0.0, 0.8]])


def _plane_model():
    return SdeModel(dim=2, n_regimes=2, drift=lambda x, lam: -0.5 * x,
                    sigma=lambda x, lam: PLANE_SIGMA,
                    rates=validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]]),
                    sigma_mode="matrix")


# name -> (model builder taking the emitted-model directory, run_ensemble kwargs)
CASES = {
    "ex22_0.3": (lambda d: reproduce.ex22_sde_model(0.3),
                 dict(x0=2.0, i0=0, r0=1.0, T=2.0, dt=1e-3, trials=120, seed=3)),
    "ex22_1.2": (lambda d: reproduce.ex22_sde_model(1.2),
                 dict(x0=2.0, i0=1, r0=1.0, T=2.0, dt=1e-3, trials=120, seed=4,
                      escape_radius=5.0)),
    "ou": (lambda d: reproduce.ou_sde_model((-2.0, 1.0)),
           dict(x0=3.0, i0=0, r0=1.0, T=2.0, dt=1e-3, trials=120, seed=5)),
    "ex21_0.3": (lambda d: reproduce.ex21_sde_model(0.3),
                 dict(x0=3.0, i0=4, r0=1.0, T=3.0, dt=1e-3, trials=150, seed=6)),
    "cli_ex22": (lambda d: cli._build_sde(load_model(d / "ex22.json")),
                 dict(x0=2.0, i0=0, r0=1.0, T=2.0, dt=1e-3, trials=120, seed=7)),
    "cli_ou": (lambda d: cli._build_sde(load_model(d / "ou.json")),
               dict(x0=3.0, i0=1, r0=1.0, T=2.0, dt=1e-3, trials=120, seed=8)),
    "cli_cor31": (lambda d: cli._build_sde(load_model(d / "cor31.json")),
                  dict(x0=2.0, i0=0, r0=1.0, T=3.0, dt=1e-3, trials=120, seed=9)),
    "plane_matrix": (lambda d: _plane_model(),
                     dict(x0=[3.0, 4.0], i0=0, r0=2.0, T=3.0, dt=1e-2, trials=100,
                          seed=12)),
}

GOLDEN = {
    "ex22_0.3": {
        "t_horizon": "0x1.0000000000000p+1", "returned": 89,
        "return_fraction": "0x1.7bbbbbbbbbbbcp-1", "return_ci95": "0x1.40ca15b1d62f4p-4",
        "mean_hitting_time": "0x1.42dbf0ff2609ap-1", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 31,
        "growth_exponent": "0x1.634466a6f8b74p-4",
    },
    "ex22_1.2": {
        "t_horizon": "0x1.0000000000000p+1", "returned": 14,
        "return_fraction": "0x1.ddddddddddddep-4", "return_ci95": "0x1.d688ba565dc29p-5",
        "mean_hitting_time": "0x1.38775e8025730p-1", "escape_count": 92,
        "escape_fraction": "0x1.8888888888889p-1", "censored": 14,
        "growth_exponent": "0x1.960329cafa1abp-1",
    },
    "ou": {
        "t_horizon": "0x1.0000000000000p+1", "returned": 110,
        "return_fraction": "0x1.d555555555555p-1", "return_ci95": "0x1.951b91a50e5a2p-5",
        "mean_hitting_time": "0x1.22c036cfda774p-1", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 10,
        "growth_exponent": "0x1.a973367d0043dp-3",
    },
    "ex21_0.3": {
        "t_horizon": "0x1.8000000000000p+1", "returned": 62,
        "return_fraction": "0x1.a740da740da74p-2", "return_ci95": "0x1.42c986471ca2fp-4",
        "mean_hitting_time": "0x1.8a626fa626fa5p+0", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 88,
        "growth_exponent": "0x1.7f338fe8ee508p-4",
    },
    "cli_ex22": {
        "t_horizon": "0x1.0000000000000p+1", "returned": 88,
        "return_fraction": "0x1.7777777777777p-1", "return_ci95": "0x1.44160e1da514dp-4",
        "mean_hitting_time": "0x1.f82b31b5e64e9p-2", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 32,
        "growth_exponent": "0x1.316e688c8120ep-2",
    },
    "cli_ou": {
        "t_horizon": "0x1.0000000000000p+1", "returned": 76,
        "return_fraction": "0x1.4444444444444p-1", "return_ci95": "0x1.612a299b38052p-4",
        "mean_hitting_time": "0x1.e9488ad53523ep-1", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 44,
        "growth_exponent": "0x1.383acaa26b889p-3",
    },
    "cli_cor31": {
        "t_horizon": "0x1.8000000000000p+1", "returned": 92,
        "return_fraction": "0x1.8888888888889p-1", "return_ci95": "0x1.35f7d9112ead8p-4",
        "mean_hitting_time": "0x1.65c122a34e44fp-1", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 28,
        "growth_exponent": "0x1.01b608b52527bp-2",
    },
    "plane_matrix": {
        "t_horizon": "0x1.8000000000000p+1", "returned": 87,
        "return_fraction": "0x1.bd70a3d70a3d7p-1", "return_ci95": "0x1.0dfd62175dfe0p-4",
        "mean_hitting_time": "0x1.a6aa3224043cbp+0", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 13,
        "growth_exponent": "-0x1.acbc5e664f685p-3",
    },
}

# ex22 (kappa = 0.3) from x = 2 in regime 0, 1000 steps of dt = 0.02 drawn
# from default_rng(8): sha256 of the "x.hex():regime" sequence joined by ";"
STEP_DIGEST = "3e40b2266bbc6c3b28d17b734183d1008ad76cf567dd85c15117aed6d6684a4d"
STEP_LAST = ("0x1.9ab5d11c6e709p-1", 0)
STEP_SWITCHES = 26


def _hexed(report) -> dict:
    out = {}
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        out[f.name] = v.hex() if isinstance(v, float) else v
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("models")
    reproduce.emit_models(dest)
    return dest


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_bitwise_golden(name, model_dir):
    build, kwargs = CASES[name]
    got = _hexed(run_ensemble(build(model_dir), **kwargs))
    assert {k: got[k] for k in GOLDEN[name]} == GOLDEN[name]
    assert got["trials"] == kwargs["trials"] and got["seed"] == kwargs["seed"]


def test_step_sequence_is_bitwise_golden():
    model = reproduce.ex22_sde_model(0.3)
    rng = np.random.default_rng(8)
    x, lam = 2.0, 0
    seq = []
    for _ in range(1000):
        x, lam = step(model, x, lam, 2e-2, rng)
        seq.append((float(x).hex(), lam))
    switches = sum(a[1] != b[1] for a, b in zip([("", 0)] + seq, seq))
    assert (seq[-1], switches) == (STEP_LAST, STEP_SWITCHES)
    digest = hashlib.sha256(";".join(f"{h}:{r}" for h, r in seq).encode()).hexdigest()
    assert digest == STEP_DIGEST
