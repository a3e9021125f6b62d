"""Golden reports: exact Monte Carlo output at fixed seeds and short horizons.

The values were recorded from the per-regime step loop that preceded the
whole-batch step kernel; every float is compared through ``float.hex``, so a
change to the integrator that moves any report by one ulp fails here.  The
cases cover the built-in benchmark models (state-dependent ex22 rates, the
2-regime OU generator, the 12-regime truncated ex21 chain), the models the
CLI builds from emitted files (cor31 has delta = 0.5, the nonlinear power
drift), a 2-d model with a noise matrix, and one single-path ``step`` sequence.
The CLI's ``classify`` and ``simulate`` output on every emitted model is
pinned by sha256 of its bytes, recorded before constant subexpressions of
rate expressions were folded at load time.  ``classify-modes`` pins, for
``auto`` and every criterion id, in JSON and ``--text``, the exit code,
stdout and stderr of ``classify`` on documents that reach each runner's
conclusive, inconclusive, skip and error paths; those digests were recorded
before the three M-matrix criteria shared one certify step and the model
kept one switching field.
"""

import dataclasses
import hashlib
import json

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

# (model stem, command) -> sha256 of the CLI's stdout, the model path replaced
# by "MODEL"; ex21 has no drift section, so only classify runs on it.
# "classify-modes" hashes the transcript of ``_classify_transcript``.
CLI_DIGEST = {
    ("cor31", "classify"): "59778622abbcf03a62a004eed14bed5f7fb888af13e3dafc09ef88fd323029d2",
    ("cor31", "simulate"): "0ec894992741274700c431ccef23bef3b7a188f381f87b0416208cafba0cd3be",
    ("ex21", "classify"): "36cf41c189c28acc41f5bb8e1995f2c272f6909b408b3dcff4657accc5ac2e43",
    ("ex22", "classify"): "b85d11490c8ff7592c17331ab0bf59d1aa1e110736969b83dd73e5fb85fac482",
    ("ex22", "simulate"): "5ecf65ce543d54e6fa7cd00a24b6a5e79c7c12145996c35319ac950f10a4897b",
    ("ou", "classify"): "9d802e4b62addaf1e2740d4c4c15157cf964d42b34e029ce04c96d39afadee38",
    ("ou", "simulate"): "4ecad45025270891523b810887e1ce949049489dc718a6ddd0419b22254609d1",
    ("beta-boundary", "classify-modes"): "c3d20091387c2daf5ff4e44f40ea4f827c1e205d008fec8bc3e15d1152fb2086",
    ("beta-inf", "classify-modes"): "0fc2bee1c11c636f39940d32fe85d7e7a97d18f5740b15024935a5278a53e2fc",
    ("beta-zero", "classify-modes"): "f971dcdec3a6644c37f3c84583657d513f70e7db00aec1a8d488e4ac3affe9a3",
    ("cor31", "classify-modes"): "161fada3cefab37e8d194881a43c94dc72ebc131d97fdea8b51b008e03ab21eb",
    ("ex21", "classify-modes"): "97bb5c1fb63b9dbcf3b444499ad9abe6a4dbf05d4b33e4722ffccadd94521404",
    ("ex22", "classify-modes"): "05f586922c38ea839cf52e91d6c2a48e513b930d380e637addb9d3d4480d7fc8",
    ("infinite-gap", "classify-modes"): "6fa8bb74e0ef427b2a88f242332b273d915cfadc95e87a66637de678769278d8",
    ("infinite-no-partition", "classify-modes"): "8fdfb0de35ef5e1609c359e395a2a5f03be7a0b7a2678533f98baf3cc0f31414",
    ("infinite-transient-chain", "classify-modes"): "8691571054ea89af56a7f426c57af5cb6c9d77c274517ab4eb91331ca9b0b780",
    ("infinite-zero", "classify-modes"): "1dfd2cd4f3cecc88f8b00aa89994d22f92db0f583a94da52a38f10819dd13d4a",
    ("ou", "classify-modes"): "eb2c87d56734cd00e094680f04d2921356e13c5ce8481ba30c9f36d41c24bf3e",
    ("power-linear", "classify-modes"): "4df40d1b07722b17184a0ad5096da9e9ff36e9020b1e719b80c0a73e6e2dc380",
    ("preset-abs", "classify-modes"): "d0013695c78c30e863e77870593c2896c547c8b0bb2261094dbb17f23f19d32f",
    ("preset-inverse-abs", "classify-modes"): "b7410b2e83d115cca308f59c39a2bdfc83feb9c4626a28d7577a907bbb16181f",
    ("radial", "classify-modes"): "c937c3d4d7ea669dea8531ead0b15f7eabe236765993e6e49dfa967e5ba70248",
    ("radial-gap", "classify-modes"): "8d0022cc4570dd3222a4b2200cbb54363d8950501babf2eeb21f209a3bd4ce16",
    ("two-matrix", "classify-modes"): "162ae590799d13ceb9b9a9c0875d06654e3a3237b2a969e3f4af55c55b56e980",
    ("two-matrix-gap", "classify-modes"): "1510ff89934215575eb4a55c819ac0b169c7de0577665e7f150097b4a89e0223",
    ("two-rates", "classify-modes"): "42b40b7f0ca3d2b6f849d623ef70b8c5f6094104982c99ff24675501d4c8ccd1",
    ("two-rates-gap", "classify-modes"): "e559eeb39ce2d9085621d032755f5a894c9eed50e2c74842ef437c9a7935628a",
}
CLI_SIMULATE_ARGS = ["--x0", "2", "--r0", "1", "--T", "1.0", "--dt", "0.01",
                     "--trials", "100", "--seed", "3"]
CLI_MODES = ("auto", "cor31", "prop22", "thm22", "thm23", "thm24",
             "thm21", "thm31", "thm32", "thm33")

_Q2 = {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]}
_RATES2 = {"kind": "rates",
           "entries": [{"i": 1, "j": 2, "expr": "1.0*(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0},
                       {"i": 2, "j": 1, "expr": "(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0}]}


def _birth_death(kappa, cutpoints, tag, a=2.0, b=1.0):
    return {"regimes": "infinite", "q": {"kind": "birth-death", "a": a, "b": b},
            "lyapunov": {"beta_values": [kappa - 1.0 / j for j in range(1, 9)],
                         "beta_tail_limit": kappa, "tag": tag},
            "partition": {"cutpoints": cutpoints}}


# documents beyond the emitted models; every one is classified in every mode
CLASSIFY_DOCS = {
    "beta-inf": {"regimes": 3,
                 "q": {"kind": "matrix", "entries": [[-2.0, 1.0, 1.0], [1.0, -1.5, 0.5],
                                                     [0.5, 0.5, -1.0]]},
                 "lyapunov": {"beta": [-0.5, -1.0, -0.25], "tag": "to-infinity"}},
    "beta-zero": {"regimes": 2, "q": _Q2,
                  "lyapunov": {"beta": [-1.0, 1.5], "tag": "to-zero", "r0": 2.0}},
    "beta-boundary": {"regimes": 2, "q": _Q2,
                      "lyapunov": {"beta": [0.0, 0.0], "tag": "to-infinity"}},
    "preset-abs": {"regimes": 2, "q": _Q2, "drift": {"kind": "ou", "b": [-2.0, 1.0]},
                   "sigma": 1.0, "lyapunov": {"preset": "abs"}},
    "preset-inverse-abs": {"regimes": 2, "q": _Q2,
                           "drift": {"kind": "power", "b": [1.0, 0.5], "delta": 0.5},
                           "sigma": [1.0, 2.0],
                           "lyapunov": {"preset": "inverse-abs", "r0": 4.0}},
    "power-linear": {"regimes": 2, "q": _Q2,
                     "drift": {"kind": "power", "b": [-2.0, 1.0], "delta": 1.0},
                     "sigma": 1.0},
    "two-matrix": {"regimes": 2, "q": _Q2,
                   "two_function": {"beta": [-1.0, 0.5], "h_limit": "to-infinity"}},
    "two-matrix-gap": {"regimes": 2, "q": _Q2,
                       "two_function": {"beta": [1.0, -1.0], "h_limit": "to-zero"}},
    "two-rates": {"regimes": 2, "q": _RATES2,
                  "lyapunov": {"beta": [1.0, 1.0], "tag": "to-zero"},
                  "two_function": {"beta": [-2.0, -2.0], "h_limit": "to-zero"}},
    "two-rates-gap": {"regimes": 2, "q": _RATES2,
                      "two_function": {"beta": [0.5, 0.5], "h_limit": "to-infinity"}},
    "radial": {"regimes": 2, "q": _Q2, "dimension": 2,
               "drift": {"kind": "radial", "delta": 0.0,
                         "radial_component": [[-1.0, 0.2], [-0.8, 0.4]]}},
    "radial-gap": {"regimes": 2, "q": _Q2,
                   "drift": {"kind": "radial", "delta": -1.0,
                             "radial_component": [[-1.0, 0.5], [-0.5, 1.0]]}},
    "infinite-zero": _birth_death(-0.2, [-1.2, -0.2], "to-zero"),
    "infinite-gap": _birth_death(0.65, [0.65 - 1.0, 0.65 - 0.5, 0.65], "to-infinity"),
    "infinite-no-partition": {k: v for k, v in _birth_death(0.5, [], "to-infinity").items()
                              if k != "partition"},
    "infinite-transient-chain": _birth_death(0.5, [-0.5, 0.5], "to-infinity", a=1.0, b=2.0),
}


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
    for stem, doc in CLASSIFY_DOCS.items():
        (dest / f"{stem}.json").write_text(json.dumps(doc), encoding="utf-8")
    return dest


def _classify_transcript(path, capsys) -> str:
    """Exit code, stdout and stderr of ``classify`` in every mode and format."""
    parts = []
    for mode in CLI_MODES:
        for text in ([], ["--text"]):
            code = cli.main(["classify", path, "--criterion", mode] + text)
            out, err = capsys.readouterr()
            parts.append(f"$ classify MODEL --criterion {mode} {' '.join(text)}\n"
                         f"{out}{err}exit {code}\n")
    return "".join(parts).replace(path, "MODEL")


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


@pytest.mark.parametrize("stem, command", sorted(CLI_DIGEST))
def test_cli_output_is_bitwise_golden(stem, command, model_dir, capsys):
    path = str(model_dir / f"{stem}.json")
    if command == "classify-modes":
        out = _classify_transcript(path, capsys)
    else:
        extra = CLI_SIMULATE_ARGS if command == "simulate" else []
        assert cli.main([command, path] + extra) == 0
        out = capsys.readouterr().out.replace(path, "MODEL")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGEST[(stem, command)]
