"""End-to-end tests of the command-line interface.

Commands are driven through ``main(argv)`` in-process; the exit-code
contract (0 ok, 2 validation, 3 numerical) is asserted directly.
"""

import json

import numpy as np
import pytest

from mmdreg.cli import main
from mmdreg.dataio import load_csv


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

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_thread_cap_env(self, tmp_path, monkeypatch, capsys, raw):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "scenario": "gauss_linear_laplace",
            "n": [40], "eps": [0.0], "estimators": ["ols"],
            "reps": 1, "seed": 9,
        }))
        monkeypatch.setenv("MMDR_THREADS", raw)
        assert run("bench", "--plan", plan, "--out", tmp_path / "r") == 2
        assert "MMDR_THREADS" in capsys.readouterr().err


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
    pytest.param(fit_with({"kernel": {
        "family": "product",
        "x_kernel": {"family": "psi_matern", "gamma": 0.01, "m": 1},
        "y_kernel": {"family": "exponential", "gamma": "abc"},
    }}), id="fit-kernel-gamma"),
    pytest.param(fit_with({"init": ["a", "b"]}), id="fit-init"),
    pytest.param(bench_with(n=50), id="bench-n"),
    pytest.param(bench_with(reps="two"), id="bench-reps"),
    # a bad fit override refuses the whole plan before any replication runs
    pytest.param(bench_with(estimators=["tilde"], fit={"tilde": {"eta": "0.1"}}),
                 id="bench-override-eta"),
    pytest.param(bench_with(estimators=["tilde"], fit={"tilde": {"bogus": 1}}),
                 id="bench-override-key"),
    # JSON strings and booleans are not switches or counts
    pytest.param(fit_with({"polyak": "false"}), id="fit-polyak-string"),
    pytest.param(fit_with({"polyak": 0}), id="fit-polyak-int"),
    pytest.param(fit_with({"iters": True}), id="fit-iters-bool"),
    pytest.param(fit_with({"mc_pairs": True}), id="fit-mc-pairs-bool"),
    pytest.param(fit_with({"estimator": "hat", "m1": True}), id="fit-m1-bool"),
    pytest.param(fit_with({"estimator": "hat", "m2": False}), id="fit-m2-bool"),
    pytest.param(fit_with({"trace_objective_every": True}), id="fit-trace-bool"),
    pytest.param(bench_with(fixed_base="false"), id="bench-fixed-base-string"),
    pytest.param(bench_with(fixed_base=1), id="bench-fixed-base-int"),
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
