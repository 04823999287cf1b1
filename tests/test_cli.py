"""End-to-end tests of the command-line interface.

Commands are driven through ``main(argv)`` in-process; the exit-code
contract (0 ok, 2 validation, 3 numerical) is asserted directly.
"""

import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from mmdreg.cli import main
from mmdreg.dataio import load_csv
from mmdreg.fitting import FitResult
from mmdreg.models import get_scenario


def reject_constant(name):
    # json.loads calls this for NaN and Infinity, which strict JSON lacks
    raise ValueError(f"not JSON: {name}")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def gauss_csv(tmp_path):
    path = tmp_path / "g.csv"
    assert run("simulate", "--scenario", "gauss_linear_laplace", "--n", 80,
               "--seed", 1, "--out", path) == 0
    return path


class TestSimulate:
    def test_writes_and_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("simulate", "--scenario", "gamma_synthetic", "--n", 50,
                   "--seed", 7, "--out", a) == 0
        assert "50 rows" in capsys.readouterr().out
        run("simulate", "--scenario", "gamma_synthetic", "--n", 50,
            "--seed", 7, "--out", b)
        assert a.read_text() == b.read_text()
        ds = load_csv(a)
        assert ds.x.shape == (50, 8)
        assert np.all(ds.y > 0)

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--scenario", "nope", "--n", 10, "--out", tmp_path / "x.csv")
        assert err.value.code == 2


class TestContaminate:
    def test_sidecar_and_count(self, gauss_csv, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("contaminate", "--in", gauss_csv, "--eps", 0.1,
                   "--recipe", "type_y", "--seed", 3, "--out", out) == 0
        assert "touched 8 of 80" in capsys.readouterr().out
        with open(tmp_path / "c.contamination.json") as fh:
            record = json.load(fh)
        assert len(record["indices"]) == 8
        assert record["recipe"] == "type_y"

    def test_validation_exit_codes(self, gauss_csv, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("contaminate", "--in", gauss_csv, "--eps", 1.5, "--out", out) == 2
        assert "epsilon" in capsys.readouterr().err
        assert run("contaminate", "--in", gauss_csv, "--eps", 0.1,
                   "--recipe", "type_q", "--out", out) == 2
        assert run("contaminate", "--in", tmp_path / "missing.csv", "--eps", 0.1,
                   "--out", out) == 2


class TestFit:
    def test_ols_and_result_file(self, gauss_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert run("fit", "--in", gauss_csv, "--model", "gaussian_linear",
                   "--estimator", "ols", "--out", out) == 0
        assert "ols:" in capsys.readouterr().out
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["estimator"] == "ols"
        assert len(payload["theta_natural"]) == 9

    def test_tilde_with_config(self, gauss_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iters": 10, "seed": 4}')
        assert run("fit", "--in", gauss_csv, "--model", "gaussian_linear",
                   "--estimator", "tilde", "--config", cfg) == 0

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # A duplicated covariate column makes the design singular.
        path = tmp_path / "s.csv"
        rows = ["x1,x2,y"] + [f"{v},{v},{2 * v}" for v in (1.0, 2.0, 3.0, 4.0)]
        path.write_text("\n".join(rows) + "\n")
        assert run("fit", "--in", path, "--model", "gaussian_linear",
                   "--estimator", "ols") == 3
        assert "singular" in capsys.readouterr().err

    def test_init_fallback_warns_and_exits_0(self, tmp_path, capsys):
        # 5 rows cannot identify 8 coefficients, so the MLE start fails and
        # the fit starts from zero, says so on stderr and still succeeds
        path = tmp_path / "w.csv"
        rng = np.random.default_rng(8)
        rows = ["x1,x2,x3,x4,x5,x6,x7,x8,y"]
        rows += [",".join(f"{v:.6f}" for v in rng.standard_normal(9)) for _ in range(5)]
        path.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iters": 5}')
        assert run("fit", "--in", path, "--model", "gaussian_linear",
                   "--estimator", "tilde", "--config", cfg) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("tilde: beta1=")
        assert captured.err.startswith("warning: init_fallback_zero")

    def test_poisson_rate_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        rows = ["x1,x2,y"] + [f"{0.1 * i},{60.0 if i < 10 else 0.5},{i % 3}" for i in range(30)]
        path.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iters": 5, "init": [0, 1]}')
        assert run("fit", "--in", path, "--model", "poisson",
                   "--estimator", "tilde", "--config", cfg) == 3
        assert "poisson rate" in capsys.readouterr().err

    def test_contaminated_heckman_loads_via_sidecar(self, tmp_path):
        base = tmp_path / "h.csv"
        run("simulate", "--scenario", "heckman_synthetic", "--n", 150,
            "--seed", 2, "--out", base)
        flipped = tmp_path / "hf.csv"
        assert run("contaminate", "--in", base, "--eps", 0.05,
                   "--recipe", "selection_flip", "--out", flipped) == 0
        # Strict loading would reject the flipped rows; the sidecar
        # written next to the file waives the check.
        assert run("fit", "--in", flipped, "--model", "heckman",
                   "--estimator", "mle") == 0

    def test_lenient_flag(self, tmp_path, capsys):
        # an unselected row with a nonzero outcome and no sidecar to waive it
        path = tmp_path / "h.csv"
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 2))
        sel = (x[:, 0] + rng.standard_normal(60) > 0).astype(int)
        y1 = np.where(sel == 1, x[:, 1] + rng.standard_normal(60), 0.0)
        y1[np.flatnonzero(sel == 0)[0]] = 1.5
        rows = ["x1,x2,y1,y2"] + [f"{a},{b},{c},{s}" for (a, b), c, s in zip(x, y1, sel)]
        path.write_text("\n".join(rows) + "\n")
        args = ("fit", "--in", path, "--model", "heckman", "--estimator", "mle")
        assert run(*args) == 2
        assert "unselected row must have y1=0" in capsys.readouterr().err
        assert run(*args, "--lenient") == 0

    def test_hat_distance_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("x1,y\n0,0.1\n1e160,0.2\n0.5,0.3\n2,0.4\n")
        cfg = tmp_path / "cfg.json"
        kernel = {"family": "product", "x_kernel": {"family": "matern", "gamma": 1.0},
                  "y_kernel": {"family": "exponential", "gamma": 1.0}}
        cfg.write_text(json.dumps({"estimator": "hat", "iters": 2, "kernel": kernel}))
        assert run("fit", "--in", path, "--model", "gaussian_linear", "--config", cfg) == 3
        assert "overflow" in capsys.readouterr().err

    def test_aborted_fit_writes_result_and_exits_3(self, tmp_path, capsys):
        # With log-shape -8 most gamma draws underflow to 0, whose score is
        # not finite: the fit aborts, fit.json records why, and the exit is 3
        data = tmp_path / "gamma.csv"
        assert run("simulate", "--scenario", "gamma_synthetic", "--n", 50,
                   "--seed", 15, "--out", data) == 0
        truth = get_scenario("gamma_synthetic").truth_raw
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 5, "init": [*truth[:8], -8.0]}))
        out = tmp_path / "fit.json"
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = run("fit", "--in", data, "--model", "gamma", "--config", cfg, "--out", out)
        assert code == 3
        assert "fit aborted: nonfinite_gradient" in capsys.readouterr().err
        payload = json.loads(out.read_text(), parse_constant=reject_constant)
        assert payload["error"] == "nonfinite_gradient"
        assert payload["iterations"] == 0 and payload["trace"] == []

    def test_result_file_is_strict_json(self, gauss_csv, tmp_path):
        # a step whose objective is not traced has null in the trace, not NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iters": 6, "seed": 4, "trace_objective_every": 3}')
        out = tmp_path / "fit.json"
        assert run("fit", "--in", gauss_csv, "--model", "gaussian_linear",
                   "--config", cfg, "--out", out) == 0
        payload = json.loads(out.read_text(), parse_constant=reject_constant)
        assert [row[0] for row in payload["trace"]] == [0, 1, 2, 3, 4, 5]
        objective = [row[2] for row in payload["trace"]]
        assert objective[:2] == [None, None] and objective[3:5] == [None, None]
        assert isinstance(objective[2], float) and isinstance(objective[5], float)
        assert list(payload) == [f.name for f in fields(FitResult)]

    def test_components_sets_the_mixture_size(self, gauss_csv, tmp_path):
        # two components unless the flag asks for more
        for extra, raw_dim in (((), 19), (("--components", 3), 29)):
            out = tmp_path / "fit.json"
            assert run("fit", "--in", gauss_csv, "--model", "mixture", "--estimator", "mle",
                       "--out", out, *extra) == 0
            with open(out) as fh:
                assert len(json.load(fh)["theta_raw"]) == raw_dim

    @pytest.mark.parametrize("model", ["gaussian_linear", "gamma"])
    def test_components_refused_by_other_models(self, model, gauss_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        capsys.readouterr()
        assert run("fit", "--in", gauss_csv, "--model", model, "--components", 5,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {model} takes no keyword")
        assert not out.exists()

    def test_bad_config_key(self, gauss_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"stepsize": 0.1}')
        assert run("fit", "--in", gauss_csv, "--model", "gaussian_linear",
                   "--config", cfg) == 2


class TestBench:
    def test_plan_runs_and_writes(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "scenario": "gauss_linear_laplace",
            "n": [40], "eps": [0.0], "estimators": ["ols"],
            "reps": 2, "seed": 9,
        }))
        out = tmp_path / "results"
        assert run("bench", "--plan", plan, "--out", out) == 0
        text = capsys.readouterr().out
        assert "rmse=" in text
        with open(out / "results.json") as fh:
            payload = json.load(fh)
        assert payload["rows"][0]["reps_ok"] == 2
        assert (out / "summary.csv").exists()

    def test_bad_plan(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"scenario": "gauss_linear_laplace"}')
        assert run("bench", "--plan", plan, "--out", tmp_path / "r") == 2

    def test_recipe_kind_mismatch(self, tmp_path, capsys, monkeypatch):
        # refused when the plan is read, before any replication runs
        monkeypatch.setattr("mmdreg.cli.run_plan", lambda *a, **k: pytest.fail("plan ran"))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "scenario": "heckman_synthetic", "n": [40], "eps": [0.0, 0.05],
            "recipes": ["type_y"], "estimators": ["mle"], "reps": 1, "seed": 9,
        }))
        out = tmp_path / "r"
        assert run("bench", "--plan", plan, "--out", out) == 2
        assert "recipe 'type_y' needs real responses, got 'censored'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_thread_count(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "scenario": "gauss_linear_laplace",
            "n": [40], "eps": [0.0], "estimators": ["ols"],
            "reps": 1, "seed": 9,
        }))
        assert run("bench", "--plan", plan, "--out", tmp_path / "r", "--threads", 0) == 2
        assert "threads must be a positive integer" in capsys.readouterr().err


PLAN = {
    "scenario": "gauss_linear_laplace",
    "n": [40], "eps": [0.0], "estimators": ["ols"],
    "reps": 1, "seed": 9,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def fit_with(cfg):
    return lambda csv, tmp: ["fit", "--in", csv, "--model", "gaussian_linear",
                             "--config", write_json(tmp / "cfg.json", cfg)]


def bench_with(**over):
    return lambda csv, tmp: ["bench", "--plan", write_json(tmp / "plan.json", dict(PLAN, **over)),
                             "--out", tmp / "r"]


BAD_SEEDS = [
    pytest.param(lambda csv, tmp: ["simulate", "--scenario", "gauss_linear_laplace", "--n", 10,
                                   "--seed", -1, "--out", tmp / "s.csv"], id="simulate"),
    pytest.param(lambda csv, tmp: ["contaminate", "--in", csv, "--eps", 0.1,
                                   "--seed", -1, "--out", tmp / "c.csv"], id="contaminate"),
    pytest.param(fit_with({"seed": -1}), id="fit"),
    pytest.param(bench_with(seed=-1), id="bench"),
]

BAD_TYPES = [
    pytest.param(fit_with({"eta": "0.1"}), id="fit-eta"),
    # a JSON integer beyond float range
    pytest.param(fit_with({"eta": 10**400}), id="fit-eta-huge"),
    pytest.param(fit_with({"kernel": {
        "family": "product",
        "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1},
        "y_kernel": {"family": "exponential", "gamma": "abc"},
    }}), id="fit-kernel-gamma"),
    pytest.param(fit_with({"kernel": {
        "family": "product",
        "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 3.9},
        "y_kernel": {"family": "exponential", "gamma": 1.0},
    }}), id="fit-kernel-m-fraction"),
    pytest.param(fit_with({"kernel": {
        "family": "product",
        "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1},
        "y_kernel": {"family": "exponential", "gamma": True},
    }}), id="fit-kernel-bool"),
    # a scale whose reach leaves the normal floats
    pytest.param(fit_with({"kernel": {
        "family": "product",
        "x_kernel": {"family": "matern", "gamma": 1e-300, "m": 1},
        "y_kernel": {"family": "exponential", "gamma": 1.0},
    }}), id="fit-kernel-gamma-range"),
    pytest.param(fit_with({"init": ["a", "b"]}), id="fit-init"),
    pytest.param(bench_with(n=50), id="bench-n"),
    pytest.param(bench_with(reps="two"), id="bench-reps"),
    pytest.param(bench_with(reps=True), id="bench-reps-bool"),
    pytest.param(bench_with(n=[True]), id="bench-n-bool"),
    pytest.param(bench_with(n=[100.7]), id="bench-n-fraction"),
    pytest.param(bench_with(eps=["0.1"], recipes=["type_y"]), id="bench-eps-string"),
    pytest.param(bench_with(eps=[False]), id="bench-eps-bool"),
    # a bad fit override refuses the whole plan before any replication runs
    pytest.param(bench_with(estimators=["tilde"], fit={"tilde": {"eta": "0.1"}}),
                 id="bench-override-eta"),
    pytest.param(bench_with(estimators=["tilde"], fit={"tilde": {"bogus": 1}}),
                 id="bench-override-key"),
    # JSON booleans are not counts
    pytest.param(fit_with({"iters": True}), id="fit-iters-bool"),
    pytest.param(fit_with({"estimator": "hat", "m1": True}), id="fit-m1-bool"),
    pytest.param(fit_with({"estimator": "hat", "m2": False}), id="fit-m2-bool"),
    pytest.param(fit_with({"trace_objective_every": True}), id="fit-trace-bool"),
]


class TestBadInputs:
    """Bad values are refused where they enter: exit 2 and one
    ``error:`` line, not a traceback."""

    @pytest.mark.parametrize("argv", BAD_SEEDS)
    def test_negative_seed(self, argv, gauss_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(*argv(gauss_csv, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")

    @pytest.mark.parametrize("argv", BAD_TYPES)
    def test_wrong_config_type(self, argv, gauss_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(*argv(gauss_csv, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_iters_beyond_the_trace_cap(self, gauss_csv, tmp_path, capsys, monkeypatch):
        # refused when the config is read, before numpy is asked for the trace
        monkeypatch.setattr("mmdreg.cli.run_plan", lambda *a, **k: pytest.fail("plan ran"))
        huge = {"iters": 10_000_000_000_000}
        for argv in (fit_with(huge), bench_with(estimators=["tilde"], fit={"tilde": huge})):
            capsys.readouterr()
            assert run(*argv(gauss_csv, tmp_path)) == 2
            assert "capped at 10000000 cells; got 10000000000000" in capsys.readouterr().err

    def test_removed_switches_are_unknown_keys(self, gauss_csv, tmp_path, capsys):
        # the fit and plan configs no longer take polyak and fixed_base
        cases = ((fit_with({"polyak": False}), "unknown fit config keys: ['polyak']"),
                 (bench_with(fixed_base=False), "unknown plan config keys: ['fixed_base']"))
        for argv, message in cases:
            capsys.readouterr()
            assert run(*argv(gauss_csv, tmp_path)) == 2
            assert message in capsys.readouterr().err

    def test_kernel_scale_is_an_unknown_key(self, gauss_csv, tmp_path, capsys):
        # kernels no longer take a scale c
        kernel = {"family": "product",
                  "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1, "c": 1.0},
                  "y_kernel": {"family": "exponential", "gamma": 1.0}}
        capsys.readouterr()
        assert run(*fit_with({"kernel": kernel})(gauss_csv, tmp_path)) == 2
        assert "unknown kernel config keys: ['c']" in capsys.readouterr().err

    def test_kernel_field_its_family_does_not_read(self, gauss_csv, tmp_path, capsys):
        # an exponential kernel has no order m; the config would be ignored
        kernel = {"family": "product",
                  "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1},
                  "y_kernel": {"family": "exponential", "gamma": 1.0, "m": 3}}
        capsys.readouterr()
        assert run(*fit_with({"kernel": kernel})(gauss_csv, tmp_path)) == 2
        assert "exponential kernel does not read ['m']" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [
        {"family": "product", "x_kernel": {"family": "psi_matern"},
         "y_kernel": {"family": "product", "x_kernel": {"family": "exponential"},
                      "y_kernel": {"family": "exponential"}}},
        {"family": "affine_shift", "beta": 0.5,
         "child": {"family": "product", "x_kernel": {"family": "exponential"},
                   "y_kernel": {"family": "exponential"}}},
    ], ids=["product-as-factor", "product-under-shift"])
    def test_nested_product_kernel(self, kernel, gauss_csv, tmp_path, capsys):
        # a product appears only at the top of a kernel
        for argv in (fit_with({"kernel": kernel})(gauss_csv, tmp_path),
                     ["mmd", "--a", gauss_csv, "--b", gauss_csv,
                      "--kernel", write_json(tmp_path / "k.json", kernel)]):
            capsys.readouterr()
            assert run(*argv) == 2
            assert "must be a radial kernel or an affine shift of one" in capsys.readouterr().err

    def test_count_beyond_int64(self, tmp_path, capsys):
        # an integer-valued count the int64 cast would wrap to -2**63
        path = tmp_path / "counts.csv"
        path.write_text("x1,y\n0.5,3\n1.0,1e300\n")
        capsys.readouterr()
        assert run("fit", "--in", path, "--model", "poisson", "--estimator", "mle") == 2
        err = f"error: {path}: line 3: count response must lie below 2**63\n"
        assert capsys.readouterr().err == err

    def test_files_that_are_not_utf8(self, gauss_csv, tmp_path, capsys):
        # a data file, a JSON config and a TOML config, each with one bad byte
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"x1,y\n1.0,\xff2.0\n")
        cases = [(["fit", "--in", csv, "--model", "gaussian_linear", "--estimator", "mle"],
                  f"error: {csv}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                  "in position 9: invalid start byte\n")]
        configs = [("bad.json", b'{"iters": \xff}')]
        if sys.version_info >= (3, 11):  # tomllib
            configs.append(("bad.toml", b'iters = "\xff"'))
        for name, text in configs:
            config = tmp_path / name
            config.write_bytes(text)
            cases.append((["fit", "--in", gauss_csv, "--model", "gaussian_linear",
                           "--config", config], f"error: {config}: 'utf-8' codec can't decode"))
        for argv, message in cases:
            capsys.readouterr()
            assert run(*argv) == 2
            assert capsys.readouterr().err.startswith(message)


class TestMmd:
    def test_identical_datasets_score_zero(self, gauss_csv, tmp_path, capsys):
        kernel = tmp_path / "k.json"
        kernel.write_text(json.dumps({
            "family": "product",
            "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1},
            "y_kernel": {"family": "exponential", "gamma": 1.0},
        }))
        assert run("mmd", "--a", gauss_csv, "--b", gauss_csv, "--kernel", kernel) == 0
        assert abs(float(capsys.readouterr().out)) < 1e-12

    def test_oversized_inputs_exit_3(self, tmp_path, capsys):
        # 4,000 points need a 4,000 x 4,000 Gram, above the cap; refused
        # before any Gram is built
        a = tmp_path / "a.csv"
        a.write_text("x1,y\n" + "".join(f"{i},{i % 7}\n" for i in range(4000)))
        kernel = tmp_path / "k.json"
        kernel.write_text('{"family": "exponential", "gamma": 1.0}')
        capsys.readouterr()
        assert run("mmd", "--a", a, "--b", a, "--kernel", kernel) == 3
        assert "numerical failure: a 4000 x 4000 Gram matrix" in capsys.readouterr().err

    def test_shifted_datasets_score_positive(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x1,y\n0.0,0.0\n1.0,0.5\n")
        b.write_text("x1,y\n5.0,4.0\n6.0,4.5\n")
        kernel = tmp_path / "k.json"
        kernel.write_text('{"family": "exponential", "gamma": 1.0}')
        assert run("mmd", "--a", a, "--b", b, "--kernel", kernel) == 0
        assert float(capsys.readouterr().out) > 0.5
