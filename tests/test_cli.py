import argparse
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from regime import modelfile
from regime._util import jsonify
from regime.cli import RUNNERS, build_parser, main
from regime.criteria import Limit, classify_infinite
from regime.errors import CriterionNotApplicable, ParseError, SchemaError
from regime.markov import (
    BetaSequence,
    Partition,
    QMatrix,
    StateDependentRates,
    TailHomogeneousChain,
)
from regime.modelfile import compile_rate_expr, load_model, parse_model
from regime.reproduce import benchmark_documents, emit_models


def _refuse_constant(name: str):
    raise AssertionError(f"report holds the non-JSON literal {name}")


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def ex21_doc(kappa, cutpoints):
    return {
        "regimes": "infinite",
        "q": {"kind": "birth-death", "a": 2.0, "b": 1.0},
        "lyapunov": {"beta_values": [kappa - 1.0 / j for j in range(1, 9)],
                     "beta_tail_limit": kappa, "tag": "to-infinity"},
        "partition": {"cutpoints": cutpoints},
    }


class TestRateExpressions:
    def test_vectorised_evaluation(self):
        fn = compile_rate_expr("2*(1+2*x)/(2*(1+x))")
        xs = np.array([0.0, 1.0, 100.0])
        np.testing.assert_allclose(fn(xs), (1 + 2 * xs) / (1 + xs))

    def test_functions_and_constants(self):
        fn = compile_rate_expr("exp(-x) + sqrt(x) + pi")
        assert fn(np.array([1.0]))[0] == pytest.approx(math.exp(-1) + 1 + math.pi)

    def test_rejects_names_and_calls(self):
        for bad in ("__import__('os')", "x.real", "lambda: 1", "open('f')", "y + 1"):
            with pytest.raises(ParseError):
                compile_rate_expr(bad)

    @pytest.mark.parametrize("expr", ["9**9**9 + x", "10**400 + x",
                                      pytest.param("1" + "0" * 400 + " * x", id="10**400 literal"),
                                      "1/0 + x", "log(-1) * x", "(-8)**0.5 + x",
                                      "exp(1000) * x", "1e308 * 10 + x"])
    def test_constant_without_finite_value_rejected(self, expr):
        # 9**9**9 as a Python integer would not finish; folded in floats it
        # overflows at once
        with pytest.raises(ParseError, match="no finite real value"):
            compile_rate_expr(expr)

    def test_evaluation_failure_is_parse_error(self):
        fn = compile_rate_expr("exp(x)")
        with np.errstate(over="raise"), pytest.raises(ParseError, match="failed to evaluate"):
            fn(np.array([1000.0]))

    @pytest.mark.parametrize("expr", ["2*(1+2*x)/(2*(1+x))", "1.0*(1+2*x)/(1+x)",
                                      "x**2 + 3*x**-1 - 2**-3", "exp(1)*x + pi/2 - e",
                                      "2**0.5 * sqrt(x) + 1/3", "-(4 - 1)**2 + tanh(+x)",
                                      "123456789012345678901234567 * x"])
    def test_folded_constants_keep_values_bitwise(self, expr):
        xs = np.linspace(0.5, 50.0, 100)
        names = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh,
                 "pi": math.pi, "e": math.e, "x": xs}
        want = np.asarray(eval(expr, {"__builtins__": {}}, names), dtype=float)
        assert compile_rate_expr(expr)(xs).tobytes() == want.tobytes()


# three regimes with two absent pairs (1 -> 3 and 3 -> 2) and one expression
# shared by two entries
SHARED_RATES_DOC = {"regimes": 3,
                    "q": {"kind": "rates",
                          "entries": [{"i": 1, "j": 2, "expr": "2 + exp(-x)"},
                                      {"i": 2, "j": 1, "expr": "sqrt(1 + x)"},
                                      {"i": 2, "j": 3, "expr": "3*x/(1 + x)"},
                                      {"i": 3, "j": 1, "expr": "2 + exp(-x)"}],
                          "scan": {"lo": 1e-3, "hi": 1e3}}}
# q_12 is nan below x = 3, where only regime-2 paths may sit
LOG_RATE_DOC = {"regimes": 2,
                "q": {"kind": "rates", "entries": [{"i": 1, "j": 2, "expr": "log(x - 3)"},
                                                   {"i": 2, "j": 1, "expr": "1"}],
                      "scan": {"lo": 1e-3, "hi": 1e3}},
                "drift": {"kind": "power", "b": [-1.0, -0.5], "delta": 1.0},
                "sigma": 1.0, "boundary": "reflect"}


def per_regime_table(doc, x, lam):
    """The rate table one source regime at a time: each entry's expression
    runs only on the positions of the paths in its source regime."""
    q = np.zeros((doc["regimes"], x.size))
    for ent in doc["q"]["entries"]:
        at = lam == ent["i"] - 1
        if at.any():
            q[ent["j"] - 1, at] = compile_rate_expr(ent["expr"])(x[at])
    return q


# two regimes, one rate each way, read on the whole batch; with one rate the
# other row stays 0
TWO_RATES_DOC = {"regimes": 2, "q": {"kind": "rates",
                                     "entries": [{"i": 1, "j": 2, "expr": "2 + exp(-x)"},
                                                 {"i": 2, "j": 1, "expr": "sqrt(1 + x)"}],
                                     "scan": {"lo": 1e-3, "hi": 1e3}}}
ONE_RATE_DOC = {"regimes": 2, "q": {"kind": "rates",
                                    "entries": [{"i": 2, "j": 1, "expr": "sqrt(1 + x)"}],
                                    "scan": {"lo": 1e-3, "hi": 1e3}}}


class TestRateTable:
    @pytest.mark.parametrize("k", [1, 5, 100, 2000])
    @pytest.mark.parametrize("doc", [SHARED_RATES_DOC, TWO_RATES_DOC, ONE_RATE_DOC],
                             ids=["three-regimes", "two-rates", "one-rate"])
    def test_compiled_table_is_the_per_regime_table(self, doc, k):
        rate_fn = parse_model(doc).switching.rate_fn
        rng = np.random.default_rng(k)
        for _ in range(10):
            x = 10.0 * np.abs(rng.standard_normal(k))
            lam = rng.integers(0, doc["regimes"], k)
            assert rate_fn(x, lam).tobytes() == per_regime_table(doc, x, lam).tobytes()

    def test_nan_of_an_empty_regime_never_reaches_the_table(self):
        x = np.linspace(0.0, 2.9, 50)
        lam = np.ones(50, dtype=np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parse_model(LOG_RATE_DOC).switching.rate_fn(x, lam)
        assert got.tobytes() == per_regime_table(LOG_RATE_DOC, x, lam).tobytes()
        assert (got == [[1.0], [0.0]]).all()

    def test_nan_of_a_path_fails_simulate_with_one_error_line(self, tmp_path, capsys):
        path = write_model(tmp_path, LOG_RATE_DOC)
        assert main(["simulate", path, "--x0", "2", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err == "error: UnboundedRate: switching rate q[0,1](x = 2) = nan is not finite\n"


class TestSdeModel:
    @pytest.mark.parametrize("drop, message", [
        ("drift", "simulation needs a power or ou drift section"),
        ("sigma", "simulation needs a sigma section"),
    ])
    def test_missing_section_is_not_applicable(self, drop, message):
        doc = benchmark_documents()["ou"]
        del doc[drop]
        with pytest.raises(CriterionNotApplicable, match=f"^{message}$"):
            parse_model(doc).sde()

    def test_radial_drift_is_not_simulated(self):
        doc = benchmark_documents()["ou"]
        doc["drift"] = {"kind": "radial", "delta": 0.5, "radial_component": [[-1.0, 2.0]]}
        with pytest.raises(CriterionNotApplicable,
                           match="^simulation needs a power or ou drift section$"):
            parse_model(doc).sde()

    def test_fields_come_from_the_document(self):
        sde = parse_model(benchmark_documents()["cor31"]).sde()
        assert (sde.dim, sde.boundary, sde.n_regimes) == (1, "reflect", 2)
        x, lam = np.array([[4.0], [9.0]]), np.array([0, 1])
        np.testing.assert_array_equal(sde.drift(x, lam), [[-2.0], [6.0]])
        assert sde.sigma(x, lam) == 1.0


class TestModelParsing:
    def test_unknown_key_rejected(self, tmp_path):
        doc = benchmark_documents()["ou"]
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            parse_model(doc)

    def test_nested_unknown_key_rejected(self):
        doc = benchmark_documents()["ou"]
        doc["q"]["extra"] = []
        with pytest.raises(SchemaError):
            parse_model(doc)

    def test_each_distinct_rate_expression_is_compiled_once(self, monkeypatch):
        # both ex22 rates are "(1+2*x)/(1+x)"
        compiled = []

        def counted(text):
            compiled.append(text)
            return compile_rate_expr(text)

        monkeypatch.setattr(modelfile, "compile_rate_expr", counted)
        parse_model(benchmark_documents()["ex22"])
        assert compiled == ["(1+2*x)/(1+x)"]

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"regimes": 2, "q": {"kind": "matrix", "entries": '
                        '[[-1, 1], [2, NaN]]}}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_model(path)

    def test_matrix_shape_checked(self):
        with pytest.raises(SchemaError):
            parse_model({"regimes": 3,
                         "q": {"kind": "matrix", "entries": [[-1, 1], [2, -2]]}})

    def test_benchmark_documents_parse(self):
        want = {"ex21": TailHomogeneousChain, "ex22": StateDependentRates,
                "ou": QMatrix, "cor31": QMatrix}
        docs = benchmark_documents()
        assert set(docs) == set(want)
        for name, doc in docs.items():
            assert type(parse_model(doc, source=name).switching) is want[name]

    @pytest.mark.parametrize("points", [None, [3], 12.9, "abc", True, 1])
    def test_scan_points_must_be_an_integer(self, points):
        doc = benchmark_documents()["ex22"]
        doc["q"]["scan"]["points"] = points
        with pytest.raises(SchemaError, match="q.scan.points"):
            parse_model(doc)

    def test_scan_spacing_checked_at_load(self):
        doc = benchmark_documents()["ex22"]
        doc["q"]["scan"]["spacing"] = "cubic"
        with pytest.raises(SchemaError, match="q.scan.spacing"):
            parse_model(doc)

    @pytest.mark.parametrize("key", ["i", "j"])
    def test_rate_index_rejects_bools(self, key):
        doc = benchmark_documents()["ex22"]
        doc["q"]["entries"][0][key] = True
        with pytest.raises(SchemaError, match="bad index pair"):
            parse_model(doc)

    @pytest.mark.parametrize("scan, message", [
        ({"lo": 0, "hi": 1e6}, "geometric spacing needs lo > 0"),
        ({"lo": 5.0, "hi": 5.0}, "is empty"),
        ({"lo": 5.0, "hi": 1.0, "spacing": "linear"}, "is empty"),
    ])
    def test_scan_range_checked_at_load(self, scan, message):
        doc = benchmark_documents()["ex22"]
        doc["q"]["scan"] = scan
        with pytest.raises(SchemaError, match=f"q.scan: .*{message}"):
            parse_model(doc)

    @pytest.mark.parametrize("preset", [{"preset": "abs"}, {"preset": "inverse-abs"}])
    def test_lyapunov_presets_need_a_linear_drift(self, preset):
        # L|x| = -|x|**-0.5 is not bounded by beta |x| with beta < 0; thm21 and
        # thm22 called this drift exponentially ergodic
        doc = {"regimes": 2, "q": {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]},
               "drift": {"kind": "power", "b": [-1.0, -1.0], "delta": -0.5}, "sigma": 1.0,
               "lyapunov": preset}
        with pytest.raises(SchemaError, match="lyapunov presets need a linear drift"):
            parse_model(doc)

    def test_birth_death_k0_rejects_bools(self):
        # the rate lists give the chain's length, so any K0 key is refused
        doc = benchmark_documents()["ex21"]
        doc["q"]["K0"] = True
        with pytest.raises(SchemaError, match=r"q: unknown keys \['K0'\]"):
            parse_model(doc)

    def test_birth_death_lists_classify_as_the_library_chain(self, tmp_path, capsys):
        # a head that is not the tail: the coarse generator takes up(1) and down(2)
        doc = ex21_doc(0.5, [-0.5, 0.5])
        doc["q"] = {"kind": "birth-death", "up": [0.5, 1.0], "down": [3.0, 2.0]}
        assert main(["classify", write_model(tmp_path, doc), "--criterion", "thm24"]) == 0
        report = json.loads(capsys.readouterr().out)
        chain = TailHomogeneousChain(up_rates=(0.5, 1.0), down_rates=(3.0, 2.0))
        beta = BetaSequence(head=tuple(doc["lyapunov"]["beta_values"]), tail_limit=0.5)
        want = classify_infinite(chain, beta, Partition.from_cutpoints(beta, [-0.5, 0.5]),
                                 Limit.TO_INFINITY)
        assert report["verdict"] == want.verdict.value == "recurrent"
        assert report["attempted"][0]["certificate"]["q_f"] == [[-0.5, 0.5], [3.0, -3.0]]

    def test_birth_death_takes_one_form(self):
        doc = ex21_doc(0.5, [-0.5, 0.5])
        doc["q"] = {"kind": "birth-death", "a": 5.0, "b": 0.1,
                    "up": [1.0, 1.0], "down": [2.0, 2.0]}
        with pytest.raises(SchemaError, match="either a and b or up and down, not both"):
            parse_model(doc)

    def test_birth_death_lists_must_have_k0_entries(self, tmp_path, capsys):
        doc = ex21_doc(0.5, [-0.5, 0.5])
        doc["q"] = {"kind": "birth-death", "up": [1.0, 1.0, 1.0], "down": [2.0, 2.0]}
        assert main(["classify", write_model(tmp_path, doc)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: SchemaError: q.up and q.down must have one "
                                     "length, got 3 and 2\n")

    def test_inverse_abs_preset_beta(self):
        # V = 1/|x| on a linear drift: beta_i = -b_i + sigma_i**2 / r0**2
        doc = {"regimes": 2, "q": {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]},
               "drift": {"kind": "ou", "b": [1.0, -0.5]}, "sigma": [1.0, 2.0],
               "lyapunov": {"preset": "inverse-abs", "r0": 4.0}}
        lyap = parse_model(doc).lyapunov
        assert lyap.tag is Limit.TO_ZERO
        np.testing.assert_array_equal(lyap.beta, [-1.0 + 1.0 / 16, 0.5 + 4.0 / 16])
        # r0 defaults to 10, and a scalar sigma serves every regime
        del doc["lyapunov"]["r0"]
        doc["sigma"] = 2.0
        lyap = parse_model(doc).lyapunov
        np.testing.assert_array_equal(lyap.beta, [-1.0 + 0.04, 0.5 + 0.04])
        for r0 in (0.0, -1.0):
            doc["lyapunov"]["r0"] = r0
            with pytest.raises(SchemaError, match="lyapunov.r0 must be positive"):
                parse_model(doc)

    @pytest.mark.parametrize("lyapunov", [{"preset": "abs"},
                                          {"beta": [-0.5, -0.5], "tag": "to-infinity"}],
                             ids=["abs", "explicit"])
    def test_r0_is_checked_in_every_form_that_takes_it(self, lyapunov, tmp_path, capsys):
        doc = {"regimes": 2, "q": {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]},
               "drift": {"kind": "ou", "b": [-1.0, -1.0]}, "lyapunov": lyapunov}
        for r0 in (None, 0.5):
            if r0 is not None:
                lyapunov["r0"] = r0
            assert main(["classify", write_model(tmp_path, doc), "--criterion", "thm22"]) == 0
        capsys.readouterr()
        lyapunov["r0"] = 0.0
        assert main(["classify", write_model(tmp_path, doc), "--criterion", "thm22"]) == 1
        assert capsys.readouterr() == ("", "error: SchemaError: lyapunov.r0 must be positive\n")

    def test_birth_death_needs_infinite_regimes(self):
        doc = benchmark_documents()["ex21"]
        doc["regimes"] = 3
        with pytest.raises(SchemaError, match="birth-death"):
            parse_model(doc)

    def test_bad_scan_points_exit_one_with_one_error_line(self, tmp_path, capsys):
        doc = benchmark_documents()["ex22"]
        doc["q"]["scan"]["points"] = None
        assert main(["classify", write_model(tmp_path, doc)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: SchemaError: q.scan.points")

    def test_emitted_models_round_trip(self, tmp_path):
        docs = benchmark_documents()
        for path in emit_models(tmp_path):
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh) == docs[path.stem]
            load_model(path)


class TestClassifyCommand:
    def test_ou_model_is_conclusive(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        out_file = tmp_path / "report.json"
        assert main(["classify", path, "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["verdict"] == "exponentially-ergodic"
        assert report["criterion"] == "prop22"

    def test_cor31_model_first_in_auto_order(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["cor31"])
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["criterion"] == "cor31"
        assert report["verdict"] == "recurrent"

    def test_infinite_benchmark_recurrent(self, tmp_path, capsys):
        path = write_model(tmp_path, ex21_doc(0.5, [-0.5, 0.5]))
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["criterion"] == "thm24"
        assert report["verdict"] == "recurrent"

    def test_infinite_benchmark_between_thresholds(self, tmp_path, capsys):
        for cuts in ([0.65 - 1.0, 0.65], [0.65 - 1.0, 0.65 - 0.5, 0.65]):
            path = write_model(tmp_path, ex21_doc(0.65, cuts))
            assert main(["classify", path]) == 2
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"] == "inconclusive"

    def test_state_dependent_model(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ex22"])
        assert main(["classify", path, "--criterion", "thm23"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "exponentially-ergodic"

    @staticmethod
    def _birth_death_doc(n, up=1.0, down=1.0, beta=None):
        # reflecting birth-death generator, beta = -1 unless given
        q = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
        q -= np.diag(q.sum(axis=1))
        beta = [-1.0] * n if beta is None else list(beta)
        return {"regimes": n, "q": {"kind": "matrix", "entries": q.tolist()},
                "lyapunov": {"beta": beta, "tag": "to-infinity"}}

    @pytest.mark.parametrize("n", [70, 200])
    def test_thm22_answers_auto_at_any_size(self, n, tmp_path, capsys):
        path = write_model(tmp_path, self._birth_death_doc(n))
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["criterion"], report["verdict"]) == ("thm22", "exponentially-ergodic")
        assert "skipped" not in report["attempted"][-1]

    def test_thm22_on_request_above_64_regimes(self, tmp_path, capsys):
        path = write_model(tmp_path, self._birth_death_doc(70))
        assert main(["classify", path, "--criterion", "thm22"]) == 0
        report = json.loads(capsys.readouterr().out)
        cert = report["attempted"][0]["certificate"]["mmatrix"]
        assert report["verdict"] == "exponentially-ergodic"
        assert len(cert["minors"]) == 70 and not cert["boundary"]

    @pytest.mark.parametrize("mode", ["auto", "thm22"])
    def test_thm22_proves_an_ill_conditioned_chain(self, mode, tmp_path, capsys):
        # A^-1 1 spreads like 2^70, too far for its own residual proof;
        # A^-2 1 carries it
        doc = self._birth_death_doc(70, up=2.0, down=1e-3, beta=[1.0] * 69 + [1e-3 - 1.0])
        path = write_model(tmp_path, doc)
        assert main(["classify", path, "--criterion", mode]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["criterion"], report["verdict"]) == ("thm22", "exponentially-ergodic")

    def _unprovable_doc(self):
        # unit diagonal and up-rate 1e4: every A^-k 1 leaves the float range,
        # and the stationary masses underflow
        doc = self._birth_death_doc(80, up=1e4, down=1e-6)
        doc["lyapunov"]["beta"] = [-row[i] - 1.0 for i, row in enumerate(doc["q"]["entries"])]
        return doc

    def test_thm22_without_a_provable_vector_is_inconclusive(self, tmp_path, capsys):
        path = write_model(tmp_path, self._unprovable_doc())
        assert main(["classify", path, "--criterion", "thm22"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["reasons"] == [
            "no positive vector x with A x >> 0 is provable in floating point"]

    def test_auto_records_a_singular_solve_and_goes_on(self, tmp_path, capsys):
        path = write_model(tmp_path, self._unprovable_doc())
        failure = "invariant measure failed validation (residual or positivity)"
        assert main(["classify", path, "--criterion", "thm21"]) == 1
        assert capsys.readouterr().err == f"error: SingularSolve: {failure}\n"
        assert main(["classify", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert {"criterion": "thm21", "skipped": failure} in report["attempted"]
        assert [r for r in report["reasons"] if not r.startswith("needs")] == [
            "no positive vector x with A x >> 0 is provable in floating point", failure]

    @pytest.mark.parametrize("mode", ["auto", "thm22"])
    def test_tolerated_round_off_leaves_a_z_matrix(self, mode, tmp_path, capsys):
        # q[0, 3] = -2.97e-12 is round-off to the generator (within 1e-12 max|Q|,
        # max|Q| = 3) but would be a positive entry of A = -(Q + diag beta) beyond
        # the Z-pattern tolerance (1e-12 max|A|, max|A| = 2)
        q = [[-3.0, 1.5, 1.5 + 2.97e-12, -2.97e-12], [1.0, -2.0, 0.5, 0.5],
             [0.5, 0.5, -2.0, 1.0], [1.0, 0.5, 0.5, -2.0]]
        doc = {"regimes": 4, "q": {"kind": "matrix", "entries": q},
               "lyapunov": {"beta": [1.0, 0.5, 0.5, 0.5], "tag": "to-infinity"}}
        path = write_model(tmp_path, doc)
        assert main(["classify", path, "--criterion", mode]) == 2
        report = json.loads(capsys.readouterr().out)
        expected = ["matrix is not a nonsingular M-matrix (the test is sufficient only)"]
        if mode == "auto":
            expected.append("averaged drift 0.607143 is not negative beyond tolerance")
        assert [r for r in report["reasons"] if not r.startswith("needs")] == expected

    def test_overflowed_minors_leave_no_nan(self, tmp_path, capsys):
        # beta = 0 makes A = -Q singular; the minors overflow before the last,
        # exactly zero pivot
        path = write_model(tmp_path, self._birth_death_doc(200, 1e4, 1e4, [0.0] * 200))
        assert main(["classify", path, "--criterion", "thm22"]) == 2
        out = capsys.readouterr().out
        assert "NaN" not in out
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["reasons"] == ["verdict sits on the singularity boundary"]

    def test_overflowed_minors_are_strict_json_with_their_sign(self, tmp_path, capsys):
        # the second minor overflows to +inf; JSON has no literal for it, so
        # the report carries the string --text prints, and keeps the sign
        doc = {"regimes": 2, "q": {"kind": "matrix",
                                   "entries": [[-1e200, 1e200], [1e200, -1e200]]},
               "lyapunov": {"beta": [-3e200, -3e200], "tag": "to-infinity"}}
        path = write_model(tmp_path, doc)
        out_file = tmp_path / "report.json"
        assert main(["classify", path, "--criterion", "thm22", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert out == out_file.read_text()
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["attempted"][0]["certificate"]["mmatrix"]["minors"] == [4e200, "inf"]
        assert main(["classify", path, "--criterion", "thm22", "--text"]) == 0
        assert "[4e+200, inf]" in capsys.readouterr().out

    def test_requested_criterion_must_apply(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        assert main(["classify", path, "--criterion", "thm24"]) == 1

    def test_schema_error_exits_one(self, tmp_path, capsys):
        doc = benchmark_documents()["ou"]
        doc["mystery"] = True
        path = write_model(tmp_path, doc)
        assert main(["classify", path]) == 1

    def test_text_rendering_lists_fields(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        out_file = tmp_path / "report.json"
        assert main(["classify", path, "--text", "--out", str(out_file)]) == 0
        text = capsys.readouterr().out
        report = json.loads(out_file.read_text())
        assert "verdict" in text and report["verdict"] in text
        assert "criterion" in text and report["criterion"] in text


class TestCriterionRegistry:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_readme_table_lists_the_runners_in_auto_order(self):
        text = self.README.read_text(encoding="utf-8")
        section = text.split("### Criterion identifiers", 1)[1].split("\n### ", 1)[0]
        rows = re.findall(r"^\| (\w+)\s+\|", section, flags=re.MULTILINE)
        assert tuple(rows[1:]) == tuple(RUNNERS)  # rows[0] is the header

    def test_readme_usage_line_lists_the_runners(self):
        text = self.README.read_text(encoding="utf-8")
        (choices,) = re.findall(r"regime classify MODEL\.json \[--criterion ([\w|]+)\]", text)
        assert tuple(choices.split("|")) == ("auto",) + tuple(RUNNERS)


class TestSimulateCommand:
    def test_same_seed_same_output(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        args = ["simulate", path, "--x0", "3", "--r0", "1", "--T", "2.0",
                "--dt", "0.01", "--trials", "100", "--seed", "5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        code = main(["simulate", path, "--x0", "3", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "0"])
        assert code == 1

    def test_too_few_trials_fail_with_one_error_line(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        assert main(["simulate", path, "--x0", "3", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "99"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: trials must be at least 100")

    def test_negative_seed_fails_with_one_error_line(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        assert main(["simulate", path, "--x0", "3", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "100", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: seed must be a non-negative integer")

    @pytest.mark.parametrize("override, message", [
        ({"--T": "inf"}, "T must be finite"),
        ({"--x0": "nan"}, "x0 must be finite"),
        ({"--r0": "nan"}, "r0 must be finite"),
        ({"--escape-radius": "nan"}, "escape_radius must be finite"),
        ({"--T": "1e300", "--dt": "1e-300"}, "T / dt must be finite"),
        ({"--escape-radius": "0.5"}, "escape_radius must exceed r0"),
    ])
    def test_nonfinite_inputs_fail_with_one_error_line(self, tmp_path, capsys, override,
                                                       message):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        opts = {"--x0": "3", "--r0": "1", "--T": "1.0", "--dt": "0.01", "--trials": "100",
                **override}
        assert main(["simulate", path, *(s for kv in opts.items() for s in kv)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("i0", ["0", "3", "-1"])
    def test_i0_outside_the_regimes_names_their_range(self, tmp_path, capsys, i0):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        assert main(["simulate", path, "--x0", "3", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "100", "--i0", i0]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --i0 must lie in 1..2, got {i0}\n"

    def test_infinite_chain_fails_with_one_error_line(self, tmp_path, capsys):
        doc = benchmark_documents()["ex21"]
        doc.update(drift={"kind": "ou", "b": [-1.0]}, sigma=1.0)
        path = write_model(tmp_path, doc)
        assert main(["simulate", path, "--x0", "3", "--r0", "1", "--T", "1.0",
                     "--dt", "0.01", "--trials", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "truncate infinite chains first" in err

    def test_state_dependent_simulation(self, tmp_path, capsys):
        path = write_model(tmp_path, benchmark_documents()["ex22"])
        out = tmp_path / "sim.json"
        assert main(["simulate", path, "--x0", "5", "--r0", "1", "--T", "3.0",
                     "--dt", "0.001", "--trials", "100", "--seed", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["simulation"]
        assert report["trials"] == 100
        assert 0.0 <= report["return_fraction"] <= 1.0

    @pytest.mark.parametrize("expr, error", [("x - 3", "NegativeOffDiagonal"),
                                             ("log(x - 3)", "UnboundedRate"),
                                             ("10**400 + x", "ParseError")])
    def test_invalid_rate_fails_with_one_error_line(self, tmp_path, capsys, expr, error):
        # at x0 = 2 the rate out of regime 1 is -1, or log(-1) = nan; 10**400
        # has no float value, which the model loader reports
        doc = benchmark_documents()["ex22"]
        doc["q"]["entries"][0]["expr"] = expr
        path = write_model(tmp_path, doc)
        code = main(["simulate", path, "--x0", "2", "--r0", "1", "--T", "1.0",
                     "--dt", "0.001", "--trials", "100", "--seed", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith(f"error: {error}: ")


# q_21(x) = x - 3 is negative below x = 3; without a hint bound_rates scans it
NEGATIVE_RATE_DOC = {
    "regimes": 2,
    "q": {"kind": "rates",
          "entries": [{"i": 1, "j": 2, "expr": "1 + x/(1 + x)"}, {"i": 2, "j": 1, "expr": "x - 3"}],
          "scan": {"lo": 1e-3, "hi": 1e3}},
    "drift": {"kind": "power", "b": [-1.0, -0.5], "delta": 1.0},
    "sigma": 1.0,
    "lyapunov": {"beta": [-1.0, -0.5], "tag": "to-infinity"},
    "two_function": {"beta": [-1.0, -0.5], "h_limit": "to-infinity"},
}
# both rates hinted, q_12 = 1 by [1, 1] and q_21 = x - 3 by [1, 2]: the hints
# alone give a Q~ that thm23 certifies, so the rates must be read to see that
# q_21 is negative below 3
HINTED_NEGATIVE_DOC = {
    "regimes": 2,
    "q": {"kind": "rates",
          "entries": [{"i": 1, "j": 2, "expr": "1", "inf": 1.0, "sup": 1.0},
                      {"i": 2, "j": 1, "expr": "x - 3", "inf": 1.0, "sup": 2.0}],
          "scan": {"lo": 1e-3, "hi": 1e3}},
    "drift": {"kind": "power", "b": [-1.0, -0.5], "delta": 1.0},
    "sigma": 1.0,
    "lyapunov": {"beta": [-0.5, -0.5], "tag": "to-infinity"},
    "two_function": {"beta": [-0.5, -0.5], "h_limit": "to-infinity"},
}

# every command that reads a rate table: the classifiers that bound it and the
# simulator
RATE_TABLE_COMMANDS = pytest.mark.parametrize(
    "args", [["classify", "--criterion", "auto"],
             ["classify", "--criterion", "thm23"],
             ["classify", "--criterion", "thm32"],
             ["simulate", "--x0", "5", "--r0", "1", "--T", "1.0", "--dt", "0.001",
              "--trials", "100"]],
    ids=["auto", "thm23", "thm32", "simulate"])


@RATE_TABLE_COMMANDS
def test_negative_rate_fails_with_one_error_line(tmp_path, capsys, args):
    # the rate table is judged in one place, so the classifiers' scan of
    # q_21 fails where the simulator's paths would, hinted or not
    for doc in (NEGATIVE_RATE_DOC, HINTED_NEGATIVE_DOC):
        path = write_model(tmp_path, doc)
        assert main([args[0], path, *args[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: NegativeOffDiagonal: switching rate q[1,0](x = ")
        if args[0] == "classify":
            # the first point of the scan grid
            assert err == ("error: NegativeOffDiagonal: switching rate q[1,0](x = 0.001) = "
                           "-2.999 is negative\n")


def pair_twice_doc():
    """HINTED_NEGATIVE_DOC with q_21 = 1, hinted [1, 1], and q_12 listed
    once more as 5, which its first entry's hint [1, 1] does not contain."""
    doc = json.loads(json.dumps(HINTED_NEGATIVE_DOC))
    doc["q"]["entries"][1].update(expr="1", sup=1.0)
    doc["q"]["entries"].insert(1, {"i": 1, "j": 2, "expr": "5"})
    return doc


def without_scan(doc):
    """A copy of ``doc`` with its rate table's scan section deleted."""
    doc = json.loads(json.dumps(doc))
    del doc["q"]["scan"]
    return doc


@RATE_TABLE_COMMANDS
def test_rate_pair_listed_twice_fails_with_one_error_line(tmp_path, capsys, args):
    # the later expression would replace the earlier one under its hint
    path = write_model(tmp_path, pair_twice_doc())
    assert main([args[0], path, *args[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: SchemaError: q.entries[1]: pair (1,2) is listed twice\n"


@RATE_TABLE_COMMANDS
@pytest.mark.parametrize("doc", [benchmark_documents()["ex22"], HINTED_NEGATIVE_DOC,
                                 pair_twice_doc()],
                         ids=["ex22", "hinted-negative", "pair-twice"])
def test_rates_without_scan_fail_with_one_error_line(tmp_path, capsys, args, doc):
    # every rate is read on its scan, so a rates file must give one
    path = write_model(tmp_path, without_scan(doc))
    assert main([args[0], path, *args[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: SchemaError: q(rates): missing keys ['scan']\n"


def hinted_rate_doc(expr):
    """NEGATIVE_RATE_DOC with q_21 replaced by ``expr`` and hinted [1, 2]."""
    doc = json.loads(json.dumps(NEGATIVE_RATE_DOC))
    doc["q"]["entries"][1].update(expr=expr, inf=1.0, sup=2.0)
    return doc


@pytest.mark.parametrize("mode", ["auto", "thm23", "thm32"])
@pytest.mark.parametrize("expr, want", [
    ("x - 3", r"error: NegativeOffDiagonal: switching rate q\[1,0\]\(x = 0\.001\) = -2\.999 "
              r"is negative"),
    ("1 + x", r"error: q\[1,0\]\(x = 1\.\d+\) = 2\.\d+ lies outside its hint "
              r"\[inf, sup\] = \[1, 2\]"),
], ids=["negative", "above-sup"])
def test_hint_that_its_expression_breaks_fails_with_one_error_line(tmp_path, capsys, mode,
                                                                   expr, want):
    # the hint is checked against the scan, not trusted in its place
    path = write_model(tmp_path, hinted_rate_doc(expr))
    assert main(["classify", path, "--criterion", mode]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(want + "\n", err), err


def inverted_hint_doc(scan):
    """The emitted ex22 document with q_21 = "1" hinted [2, 1], with or
    without its scan section; lyapunov beta = (-1, -1)."""
    doc = benchmark_documents()["ex22"]
    doc["q"]["entries"][1].update(expr="1", inf=2.0, sup=1.0)
    doc["lyapunov"]["beta"] = [-1.0, -1.0]
    return doc if scan else without_scan(doc)


@pytest.mark.parametrize("mode", ["auto", "thm23"])
@pytest.mark.parametrize("scan, want", [
    (False, "error: SchemaError: q(rates): missing keys ['scan']\n"),
    (True, "error: SchemaError: q.entries[1]: hint inf 2 exceeds sup 1\n"),
], ids=["no-scan", "scan"])
def test_inverted_hint_fails_with_one_error_line(tmp_path, capsys, mode, scan, want):
    # below the diagonal only sup is read, so the inverted hint alone would
    # give a Q~ that thm23 certifies
    path = write_model(tmp_path, inverted_hint_doc(scan))
    assert main(["classify", path, "--criterion", mode]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == want


def test_step_cap_fails_at_once_with_one_error_line(tmp_path, capsys):
    # 1e15 steps of work are refused before any path is seeded
    path = write_model(tmp_path, benchmark_documents()["ex22"])
    start = time.perf_counter()
    code = main(["simulate", path, "--x0", "5", "--r0", "1", "--T", "1e12", "--dt", "1e-3",
                 "--trials", "100"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: T / dt = 1e+15 steps exceeds the cap of 1e+08 steps per path\n"
    assert elapsed < 1.0


def _doc(stem, **changes):
    """A benchmark document with top-level keys replaced (None deletes one)."""
    doc = benchmark_documents()[stem]
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _with(doc, path, value):
    """``doc`` with the entry at ``path`` (a tuple of keys) set to ``value``."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


# one document per loader error branch: (id, document or raw text, error type,
# text the single error line must contain)
BAD_DOCUMENTS = [
    ("not-json", "{", "ParseError", "is not valid JSON"),
    ("nan-literal", '{"regimes": NaN}', "ParseError", "non-finite JSON literal 'NaN'"),
    ("huge-number", '{"regimes": 2, "q": {"kind": "matrix", "entries": '
                    '[[-1.0, 1.0], [2.0, -2.0]]}, "sigma": 1e999}',
     "SchemaError", "sigma must be finite"),
    ("model-not-object", [1, 2], "SchemaError", "must be an object"),
    ("unknown-key", _doc("ou", colour="red"), "SchemaError", "unknown keys ['colour']"),
    ("missing-key", {"regimes": 2}, "SchemaError", "missing keys ['q']"),
    ("regimes", _doc("ou", regimes=0), "SchemaError",
     "regimes must be a positive integer or 'infinite'"),
    ("q-kind", _doc("ou", q={"kind": "table"}), "SchemaError",
     "q.kind must be matrix | rates | birth-death, got 'table'"),
    ("matrix-infinite", _doc("ou", regimes="infinite"), "SchemaError",
     "q.kind 'matrix' needs a finite regime count"),
    ("matrix-rows", _doc("ou", q={"kind": "matrix", "entries": 5}), "SchemaError",
     "q.entries must be a nonempty array of rows"),
    ("matrix-row", _doc("ou", q={"kind": "matrix", "entries": [5, 6]}), "SchemaError",
     "q.entries[0] must be a nonempty array of numbers"),
    ("matrix-uneven", _doc("ou", q={"kind": "matrix", "entries": [[-1.0, 1.0], [2.0]]}),
     "SchemaError", "q.entries rows have uneven lengths"),
    ("matrix-number", _doc("ou", q={"kind": "matrix", "entries": [[-1.0, "1"], [2.0, -2.0]]}),
     "SchemaError", "q.entries[0][1] must be a number"),
    ("rates-infinite", _doc("ex22", regimes="infinite"), "SchemaError",
     "q.kind 'rates' needs a finite regime count"),
    ("rates-empty", _with(_doc("ex22"), ("q", "entries"), []), "SchemaError",
     "q.entries must be a nonempty array of rate entries"),
    ("rate-not-object", _with(_doc("ex22"), ("q", "entries", 0), "x"), "SchemaError",
     "q.entries[0] must be an object"),
    ("rate-one-hint", _with(_doc("ex22"), ("q", "entries", 0), {"i": 1, "j": 2, "expr": "x",
                                                                "inf": 0.0}),
     "SchemaError", "q.entries[0]: give both inf and sup hints or neither"),
    ("rate-syntax", _with(_doc("ex22"), ("q", "entries", 0, "expr"), "1 +"), "ParseError",
     "bad rate expression '1 +'"),
    ("rate-construct", _with(_doc("ex22"), ("q", "entries", 0, "expr"), "x.real"), "ParseError",
     "disallowed construct in rate expression 'x.real'"),
    # the lists' length is the chain's K0; a K0 key would only restate it
    ("birth-death-k0", _with(_doc("ex21"), ("q", "K0"), 1), "SchemaError",
     "q: unknown keys ['K0']"),
    ("birth-death-rate", _with(_doc("ex21"), ("q", "a"), "two"), "SchemaError",
     "q.a must be a number"),
    ("drift-kind", _doc("ou", drift={"kind": "cubic"}), "SchemaError",
     "drift.kind must be power | ou | radial, got 'cubic'"),
    ("drift-b-length", _doc("ou", drift={"kind": "ou", "b": [1.0]}), "SchemaError",
     "drift.b must have one entry per regime"),
    ("drift-delta", _doc("cor31", drift={"kind": "power", "b": [1.0, 1.0], "delta": 2.0}),
     "SchemaError", "drift.delta must lie in [-1, 1]"),
    ("radial-columns", _doc("ou", drift={"kind": "radial", "delta": 0.5,
                                         "radial_component": [[1.0]]}),
     "SchemaError", "drift.radial_component columns must match the regime count"),
    ("radial-delta", _doc("ou", drift={"kind": "radial", "delta": 1.0,
                                       "radial_component": [[1.0, 1.0]]}),
     "SchemaError", "drift.delta must lie in [-1, 1) for radial profiles"),
    ("sigma-length", _doc("ou", sigma=[1.0, 1.0, 1.0]), "SchemaError",
     "sigma must be a scalar or one value per regime"),
    ("sigma-zero", _doc("ou", sigma=[1.0, 0.0]), "SchemaError", "sigma entries must be nonzero"),
    ("lyapunov-preset", _doc("ou", lyapunov={"preset": "square"}), "SchemaError",
     "unknown lyapunov preset 'square'"),
    ("lyapunov-beta-length", _doc("ou", lyapunov={"beta": [1.0], "tag": "to-zero"}),
     "SchemaError", "lyapunov.beta must have one entry per regime"),
    ("lyapunov-tag", _doc("ou", lyapunov={"beta": [1.0, 1.0], "tag": "up"}), "SchemaError",
     "lyapunov.tag must be 'to-infinity' or 'to-zero'"),
    ("lyapunov-r0", _doc("ou", lyapunov={"beta": [1.0, 1.0], "tag": "to-zero", "r0": -1.0}),
     "SchemaError", "lyapunov.r0 must be positive"),
    ("two-function-length", _doc("ou", two_function={"beta": [1.0], "h_limit": "to-zero"}),
     "SchemaError", "two_function.beta must have one entry per regime"),
    ("boundary", _doc("ou", boundary="wrap"), "SchemaError",
     "boundary must be 'none' or 'reflect'"),
    ("dimension", _doc("ou", boundary=None, dimension=0), "SchemaError",
     "dimension must be a positive integer"),
    ("reflect-dimension", _doc("ou", dimension=2), "SchemaError",
     "boundary 'reflect' needs dimension 1"),
]


@pytest.mark.parametrize("doc, error, text", [row[1:] for row in BAD_DOCUMENTS],
                         ids=[row[0] for row in BAD_DOCUMENTS])
def test_bad_document_fails_with_one_error_line(tmp_path, capsys, doc, error, text):
    path = tmp_path / "model.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(["classify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {error}: ") and text in err, err


def test_unreadable_model_fails_with_one_error_line(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ParseError: cannot read ") and "absent.json" in err


def test_jsonify_turns_numpy_scalars_into_python_values():
    doc = jsonify({"f": np.float32(0.5), "i": np.int64(3), "b": np.bool_(True),
                   "a": np.array([1.5, 2.5]), "t": (np.uint8(7), Limit.TO_ZERO)})
    assert doc == {"f": 0.5, "i": 3, "b": True, "a": [1.5, 2.5], "t": [7, "to-zero"]}
    assert [type(v) for v in (doc["f"], doc["i"], doc["b"], doc["t"][0])] == [
        float, int, bool, int]
    assert json.loads(json.dumps(doc)) == doc


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_second_call_constructs_no_parser(self, tmp_path, capsys, monkeypatch):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        assert main(["classify", path]) == 0
        first = len(built)
        assert main(["classify", path]) == 0
        assert first > 0 and len(built) == first

    @pytest.mark.parametrize("middle, code", [
        (["classify", "MODEL", "--criterion", "bogus"], 1),
        (["classify"], 1),
        (["frobnicate"], 1),
        (["classify", "MODEL", "--criterion", "prop22", "--text"], 0),
    ], ids=["bad-criterion", "missing-model", "unknown-command", "other-options"])
    def test_a_call_between_two_leaves_the_second_unchanged(self, tmp_path, capsys,
                                                           middle, code):
        path = write_model(tmp_path, benchmark_documents()["ou"])
        assert main(["classify", path]) == 0
        first = capsys.readouterr().out
        assert main([path if arg == "MODEL" else arg for arg in middle]) == code
        out, err = capsys.readouterr()
        if code == 1:
            assert out == "" and err.startswith("usage: regime")
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out == first

    def test_criterion_choices_are_the_runners(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        criterion = next(a for a in sub.choices["classify"]._actions if a.dest == "criterion")
        assert tuple(criterion.choices) == ("auto",) + tuple(RUNNERS)


class TestReproduceCommand:
    def test_ex21_table(self, tmp_path, capsys):
        assert main(["reproduce", "ex21", "--out", str(tmp_path), "--json"]) == 0
        report = json.loads((tmp_path / "ex21.json").read_text())
        cases = {row["case"]: row for row in report["thresholds"]}
        assert cases["two-class recurrence"]["agree_1e-6"]
        assert cases["three-class transience"]["agree_1e-6"]

    def test_emit_models_round_trip(self, tmp_path, capsys):
        assert main(["reproduce", "ou", "--out", str(tmp_path),
                     "--emit-models", "--json"]) == 0
        docs = benchmark_documents()
        for stem in docs:
            with open(tmp_path / "models" / f"{stem}.json", encoding="utf-8") as fh:
                assert json.load(fh) == docs[stem]

    def test_emit_models_without_out_writes_into_models(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "cor31", "--emit-models"]) == 0
        docs = benchmark_documents()
        assert sorted(p.name for p in (tmp_path / "models").iterdir()) == sorted(
            f"{stem}.json" for stem in docs)
        for stem, doc in docs.items():
            assert json.loads((tmp_path / "models" / f"{stem}.json").read_text()) == doc


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["classify", "{model}", "--out", "{missing}/r.json"],
        ["simulate", "{model}", "--x0", "3", "--r0", "1", "--T", "0.1", "--dt", "0.01",
         "--trials", "100", "--out", "{missing}/r.json"],
        ["thresholds", "2", "1", "--out", "{missing}/r.json"],
        ["reproduce", "cor31", "--emit-models", "--out", "{model}/reports"],
    ], ids=["classify", "simulate", "thresholds", "reproduce"])
    def test_one_error_line(self, command, tmp_path, capsys):
        model = write_model(tmp_path, benchmark_documents()["ou"])
        missing = tmp_path / "missing"
        argv = [a.format(model=model, missing=missing) for a in command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not missing.exists()


class TestThresholdsCommand:
    def test_benchmark_pair(self, capsys):
        assert main(["thresholds", "2", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa_rec"] == pytest.approx(2 - math.sqrt(2))
        assert report["kappa_trans"] == pytest.approx(math.sqrt(3) - 1)

    def test_invalid_rates(self, capsys):
        assert main(["thresholds", "1", "2"]) == 1

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
