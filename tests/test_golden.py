"""Golden reports: exact Monte Carlo output at fixed seeds and short horizons.

The values were recorded from the per-regime step loop that preceded the
whole-batch step kernel; every float is compared through ``float.hex``, so a
change to the integrator that moves any report by one ulp fails here.  The
cases cover the built-in benchmark models (state-dependent ex22 rates, the
2-regime OU generator, the 12-regime truncated ex21 chain), the models the
CLI builds from emitted files (cor31 has delta = 0.5, the nonlinear power
drift), a 2-d model with per-axis noise (recorded before matrix noise was
removed from the engine, which took its ``plane_matrix`` case along), and one
single-path ``step`` sequence.
``RATES3_DOC``, a three-regime ``rates`` file with absent pairs, pins the
``simulate`` output of a compiled rate table that skips regimes and pairs.
The CLI's ``classify`` and ``simulate`` output on every emitted model is
pinned by sha256 of its bytes, recorded before constant subexpressions of
rate expressions were folded at load time.  ``classify-modes`` pins, for
``auto`` and every criterion id, in JSON and ``--text``, the exit code,
stdout and stderr of ``classify`` on documents that reach each runner's
conclusive, inconclusive, skip and error paths; those digests were recorded
before the three M-matrix criteria shared one certify step and the model
kept one switching field.  Four digests were re-recorded when an ``ou``
drift became the power drift with delta 1: the ``ou`` file now runs cor31,
which hands delta = 1 to prop22, and a lyapunov preset on a drift with
delta != 1 is a schema error (``test_ou_drift_is_the_linear_power_drift``,
``test_lyapunov_preset_needs_a_linear_drift``).  Nine were re-recorded when
the M-matrix certificate became A^-1 1 with a residual proof and thm23/thm24
began to certify the Z-matrix A instead of A H (same leading minors): the
positive vector, the matrix, its Z flag, its least real eigenvalue and the
last bits of some minors changed, and no verdict did.  Eleven were
re-recorded when the certificate dropped its Z-pattern flag, which every
report printed as true: each transcript lost only its ``z_pattern_ok``
lines.  Eleven were re-recorded when the certificate stopped computing the
least real eigenvalue: each transcript lost only its ``eigen_witness``
lines, and no exit code changed.  ``VERDICTS_FILE`` pins,
apart from certificate numbers, what every ``classify`` run concludes on the
same documents: exit code, verdict, criterion, and each attempt's verdict and
reason (or skip message, or error line).  ``three-rates`` joined the pinned
documents as the one whose thm32 certificate needs a non-constant eta; its
verdicts were pinned before thm32 was posed over the increments of eta, and
its digest after, when its eta became exactly (2, 1, 1) (it was
(1.9999999999999998, 0.9999999999999999, 1.0), not nonincreasing).  No other
digest moved with that change.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from regime import cli, least_real_eigenvalue, reproduce, run_ensemble
from regime.markov import bound_rates
from regime.modelfile import load_model
from test_mmatrix import exact_leading_minors, exactly_semipositive
from test_simulate import plane_model, step


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
    "plane": (lambda d: plane_model(),
              dict(x0=[3.0, 4.0], i0=0, r0=2.0, T=3.0, dt=1e-2, trials=100, seed=12)),
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
    "plane": {
        "t_horizon": "0x1.8000000000000p+1", "returned": 91,
        "return_fraction": "0x1.d1eb851eb851fp-1", "return_ci95": "0x1.cb80a9e47f4a9p-5",
        "mean_hitting_time": "0x1.c1ff532865b98p+0", "escape_count": 0,
        "escape_fraction": "0x0.0p+0", "censored": 9,
        "growth_exponent": "-0x1.bbd7507a357a9p-3",
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
    ("ex21", "classify"): "12c3e413fe80c88b27d02ccbfe9a49891c3d41acd861bc1ddfff4a768c675071",
    ("ex22", "classify"): "9f1074a1ea19db7bf5e835c1da122edd20762b5afe9b66e21f41605478b1d3ec",
    ("ex22", "simulate"): "5ecf65ce543d54e6fa7cd00a24b6a5e79c7c12145996c35319ac950f10a4897b",
    ("ou", "classify"): "10d14ac1a22246ee70618314dec6a903c0a3fb5f23056a9ef0af9927cfd76767",
    ("ou", "simulate"): "4ecad45025270891523b810887e1ce949049489dc718a6ddd0419b22254609d1",
    ("beta-boundary", "classify-modes"): "4c3f6d3803955a55af97e4ea814d1dde6c2927aab7ce84982d90406b880d5de5",
    ("beta-inf", "classify-modes"): "39913561bbe07a59364e222f908f2bd8178c57fb87d79a9b4efcea1ff4ec3058",
    ("beta-zero", "classify-modes"): "a1f181a57dc6632748cc090c4528d99d2ff356f65b2ad567246fc7661ce2397a",
    ("cor31", "classify-modes"): "161fada3cefab37e8d194881a43c94dc72ebc131d97fdea8b51b008e03ab21eb",
    ("ex21", "classify-modes"): "2f5b4afd960a2a2d0b859b61fb64dcc597daae5ff66c61ecce15cc1ce6cc5a00",
    ("ex22", "classify-modes"): "aea75d60218b4af11fbe7f81cfa31bafd7c26f05e943800730b9d13574fecf91",
    ("infinite-gap", "classify-modes"): "417c9d23a5bc56a87baaeb0b5bf1445704ac4a5d151d68970cb78e131f8f473c",
    ("infinite-no-partition", "classify-modes"): "8fdfb0de35ef5e1609c359e395a2a5f03be7a0b7a2678533f98baf3cc0f31414",
    ("infinite-transient-chain", "classify-modes"): "8691571054ea89af56a7f426c57af5cb6c9d77c274517ab4eb91331ca9b0b780",
    ("infinite-zero", "classify-modes"): "fe28f9880dda633a225a19f12a1b044ef79c8617ad129a21916d4bb8c7ddea87",
    ("ou", "classify-modes"): "4df40d1b07722b17184a0ad5096da9e9ff36e9020b1e719b80c0a73e6e2dc380",
    ("power-linear", "classify-modes"): "4df40d1b07722b17184a0ad5096da9e9ff36e9020b1e719b80c0a73e6e2dc380",
    ("preset-abs", "classify-modes"): "78b61cfd4a8665185e7bf1cc3c28a385222a5ba5fe33015a85282837f201bbdd",
    ("preset-inverse-abs", "classify-modes"): "96b256d8322f5dea5f245eb76c2556c5cb10b2cb224c2b8a5cecfb8586d4cf36",
    ("radial", "classify-modes"): "c937c3d4d7ea669dea8531ead0b15f7eabe236765993e6e49dfa967e5ba70248",
    ("radial-gap", "classify-modes"): "8d0022cc4570dd3222a4b2200cbb54363d8950501babf2eeb21f209a3bd4ce16",
    ("two-matrix", "classify-modes"): "162ae590799d13ceb9b9a9c0875d06654e3a3237b2a969e3f4af55c55b56e980",
    ("two-matrix-gap", "classify-modes"): "1510ff89934215575eb4a55c819ac0b169c7de0577665e7f150097b4a89e0223",
    ("two-rates", "classify-modes"): "bc6a1b176f9cc8f6788407f4cde8214e59c8391c52ca4044278d69aaa045b0be",
    ("two-rates-gap", "classify-modes"): "e559eeb39ce2d9085621d032755f5a894c9eed50e2c74842ef437c9a7935628a",
    ("three-rates", "classify-modes"): "56e16df56df8951fe11db13c84cbed2db992733a7b73975fe755f2641fd7c7a3",
}
CLI_SIMULATE_ARGS = ["--x0", "2", "--r0", "1", "--T", "1.0", "--dt", "0.01",
                     "--trials", "100", "--seed", "3"]

# a three-regime rates file with two absent pairs (1 -> 3 and 3 -> 2), so each
# regime's rates are read on its own paths' positions while the others are 0;
# its ``simulate`` output was recorded while the rates were called per (i, j)
RATES3_DOC = {"regimes": 3,
              "q": {"kind": "rates",
                    "entries": [{"i": 1, "j": 2, "expr": "2 + exp(-x)"},
                                {"i": 2, "j": 1, "expr": "sqrt(1 + x)"},
                                {"i": 2, "j": 3, "expr": "3*x/(1 + x)"},
                                {"i": 3, "j": 1, "expr": "1 + tanh(x)"}]},
              "drift": {"kind": "power", "b": [-1.0, 0.5, -0.5], "delta": 0.5},
              "sigma": [1.0, 0.8, 1.2], "boundary": "reflect"}
RATES3_SIMULATE_DIGEST = "d65cee30ec3a5e89371e41cf3405693db69bd7fc34d667bd70cb0c4f3fc600bf"
CLI_MODES = ("auto", "cor31", "prop22", "thm22", "thm23", "thm24",
             "thm21", "thm31", "thm32", "thm33")

_Q2 = {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]}
_RATES2 = {"kind": "rates",
           "entries": [{"i": 1, "j": 2, "expr": "1.0*(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0},
                       {"i": 2, "j": 1, "expr": "(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0}]}
# three hinted regimes; Q~ is [[-1.5, 1, 0.5], [2, -3, 1], [1, 1, -2]], and
# beta_1 = 0.5 > -1 makes every thm32 certificate raise eta_1 above eta_3
_RATES3 = {"kind": "rates",
           "entries": [{"i": 1, "j": 2, "expr": "1 + x/(1 + x)", "inf": 1.0, "sup": 2.0},
                       {"i": 1, "j": 3, "expr": "0.5 + 0.5*x/(1 + x)", "inf": 0.5, "sup": 1.0},
                       {"i": 2, "j": 1, "expr": "2 - exp(-x)", "inf": 1.0, "sup": 2.0},
                       {"i": 2, "j": 3, "expr": "1 + exp(-x)", "inf": 1.0, "sup": 2.0},
                       {"i": 3, "j": 1, "expr": "1 - 0.5*exp(-x)", "inf": 0.5, "sup": 1.0},
                       {"i": 3, "j": 2, "expr": "0.5 + 0.5*tanh(x)", "inf": 0.5, "sup": 1.0}]}


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
    "three-rates": {"regimes": 3, "q": _RATES3,
                    "two_function": {"beta": [0.5, -3.0, -5.0], "h_limit": "to-infinity"}},
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


VERDICTS_FILE = Path(__file__).with_name("classify_verdicts.json")


def _verdicts(path, capsys) -> dict:
    """Per mode: exit code, verdict, criterion and each attempt's outcome,
    from the JSON output of ``classify`` (or its one error line)."""
    out = {}
    for mode in CLI_MODES:
        code = cli.main(["classify", path, "--criterion", mode])
        stdout, stderr = capsys.readouterr()
        if code == 1:
            out[mode] = {"exit": code, "error": stderr.strip()}
            continue
        report = json.loads(stdout)
        attempts = [f"{a['criterion']}: {a.get('verdict', 'skipped')}: "
                    f"{a.get('reason') or a.get('skipped')}" for a in report["attempted"]]
        out[mode] = {"exit": code, "verdict": report["verdict"],
                     "criterion": report.get("criterion"), "attempted": attempts}
    return out


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


def test_three_regime_rates_simulate_is_bitwise_golden(tmp_path, capsys):
    path = tmp_path / "rates3.json"
    path.write_text(json.dumps(RATES3_DOC), encoding="utf-8")
    assert cli.main(["simulate", str(path)] + CLI_SIMULATE_ARGS) == 0
    out = capsys.readouterr().out.replace(str(path), "MODEL")
    assert hashlib.sha256(out.encode()).hexdigest() == RATES3_SIMULATE_DIGEST


def test_classify_verdicts_are_pinned(model_dir, capsys):
    pinned = json.loads(VERDICTS_FILE.read_text(encoding="utf-8"))
    stems = sorted(p.stem for p in model_dir.glob("*.json"))
    assert sorted(pinned) == stems
    for stem in stems:
        path = str(model_dir / f"{stem}.json")
        assert _verdicts(path, capsys) == pinned[stem], stem


def test_conclusive_mmatrix_certificates_check_out(model_dir, capsys):
    # every conclusive thm22/thm23/thm24 attempt, re-checked from its JSON
    # certificate alone: the positive vector exactly, the eigenvalue, and the
    # exact minors where they are cheap
    seen = set()
    for path in sorted(model_dir.glob("*.json")):
        for mode in CLI_MODES:
            if cli.main(["classify", str(path), "--criterion", mode]) == 1:
                capsys.readouterr()
                continue
            for att in json.loads(capsys.readouterr().out)["attempted"]:
                if (att["criterion"] not in ("thm22", "thm23", "thm24")
                        or att.get("verdict", "inconclusive") == "inconclusive"):
                    continue
                cert = att["certificate"]
                a = np.array(cert["matrix"])
                where = (path.stem, mode, att["criterion"])
                assert exactly_semipositive(a, cert["mmatrix"]["positive_vector"]), where
                assert least_real_eigenvalue(a) > 0, where
                if len(a) <= 8:
                    assert all(m > 0 for m in exact_leading_minors(a)), where
                seen.add(att["criterion"])
    assert seen == {"thm22", "thm23", "thm24"}


def test_conclusive_thm32_certificates_check_out(model_dir, capsys):
    # every conclusive thm32 attempt, re-checked in exact arithmetic against
    # the model's own beta and the Q~ that bound_rates makes of the loaded model
    seen = set()
    for path in sorted(model_dir.glob("*.json")):
        for mode in CLI_MODES:
            if cli.main(["classify", str(path), "--criterion", mode]) == 1:
                capsys.readouterr()
                continue
            for att in json.loads(capsys.readouterr().out)["attempted"]:
                if att["criterion"] != "thm32" or att.get("verdict", "inconclusive") == "inconclusive":
                    continue
                model = load_model(path)
                q = [[Fraction(v) for v in row]
                     for row in bound_rates(model.switching, model.scan).entries.tolist()]
                beta = [Fraction(v) for v in model.two_function.beta.tolist()]
                eta = [Fraction(v) for v in att["certificate"]["eta"]]
                where = (path.stem, mode)
                assert [Fraction(v) for v in att["certificate"]["beta"]] == beta, where
                assert all(e > 0 for e in eta), where
                assert all(a >= b for a, b in zip(eta, eta[1:])), where
                assert all(b + sum(qij * e for qij, e in zip(row, eta)) < 0
                           for b, row in zip(beta, q)), where
                seen.add((path.stem, len(set(eta)) > 1))
    assert seen == {("two-rates", False), ("three-rates", True)}


@pytest.mark.parametrize("stem", ["ou", "preset-abs"])
def test_ou_drift_is_the_linear_power_drift(stem, model_dir, tmp_path, capsys):
    path = model_dir / f"{stem}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["drift"]["kind"] == "ou"
    doc["drift"] = {"kind": "power", "b": doc["drift"]["b"], "delta": 1}
    power = tmp_path / f"{stem}.json"
    power.write_text(json.dumps(doc), encoding="utf-8")
    assert _classify_transcript(str(power), capsys) == _classify_transcript(str(path), capsys)


def test_lyapunov_preset_needs_a_linear_drift(model_dir, capsys):
    # V = 1/|x| bounds L_i V by beta_i V only for a linear drift; this one has delta = 0.5
    path = str(model_dir / "preset-inverse-abs.json")
    for mode in CLI_MODES:
        for text in ([], ["--text"]):
            assert cli.main(["classify", path, "--criterion", mode] + text) == 1
            assert capsys.readouterr() == ("", "error: SchemaError: lyapunov presets need a "
                                               "linear drift section (ou, or power with delta 1)\n")


def test_decimal_cutpoints_classify_as_computed_ones(model_dir, tmp_path, capsys):
    # 0.65 - 0.5 is 0.15000000000000002, a beta value just above the cutpoint 0.15
    path = tmp_path / "infinite-gap.json"
    path.write_text(json.dumps(_birth_death(0.65, [-0.35, 0.15, 0.65], "to-infinity")),
                    encoding="utf-8")
    assert (_classify_transcript(str(path), capsys)
            == _classify_transcript(str(model_dir / "infinite-gap.json"), capsys))
