"""Tests for the replication harness.

The RMSE oracle is an independent double-loop recomputation from the
persisted per-rep estimates; determinism is checked by running the same
plan serially and across processes.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from mmdreg.bench import (
    ExperimentPlan,
    ResultTable,
    plan_from_config,
    plan_to_config,
    rmse,
    run_plan,
    write_results,
    _cell_dataset,
)
from mmdreg.contamination import ContaminationSpec, _check_recipe_kind
from mmdreg.errors import ConfigError, DomainError
from mmdreg.kernels import spec_from_dict
from mmdreg.models import get_scenario


def reject_constant(name):
    # json.load calls this for NaN and Infinity, which strict JSON lacks
    raise ValueError(f"not JSON: {name}")


def tiny_plan(**over):
    kwargs = dict(
        scenario="gauss_linear_laplace",
        n_values=(40,),
        epsilons=(0.0, 0.1),
        recipes=("type_y",),
        estimators=("ols", "tilde"),
        replications=2,
        master_seed=11,
        fit_overrides={"tilde": {"iters": 25}},
    )
    kwargs.update(over)
    return ExperimentPlan(**kwargs)


class TestPlanValidation:
    def test_basic_fields(self):
        with pytest.raises(ConfigError, match="scenario"):
            tiny_plan(scenario="unknown")
        with pytest.raises(ConfigError, match="'map': estimator must be one of"):
            tiny_plan(estimators=("ols", "map"))
        with pytest.raises(ConfigError, match="unknown recipe 'custom'"):
            tiny_plan(recipes=("custom",))
        with pytest.raises(ConfigError, match="a nonzero rate needs recipes"):
            tiny_plan(recipes=())
        tiny_plan(recipes=(), epsilons=(0.0,))
        with pytest.raises(ConfigError, match="replications"):
            tiny_plan(replications=0)
        with pytest.raises(ConfigError, match="recipes must be a list, got 'type_y'"):
            tiny_plan(recipes="type_y")
        with pytest.raises(ConfigError, match="n_values must not be empty"):
            tiny_plan(n_values=())
        with pytest.raises(ConfigError, match="unknown scheme 'random'"):
            tiny_plan(scheme="random")

    @pytest.mark.parametrize("over", [
        {"n_values": (40, 80, 40)},
        {"epsilons": (0.0, 0.1, 0.1)},
        {"recipes": ("type_y", "type_x", "type_y")},
        {"estimators": ("ols", "tilde", "ols")},
    ], ids=["n_values", "epsilons", "recipes", "estimators"])
    def test_repeated_entries_refused(self, over):
        # a repeated entry ran its cells or fits twice: repeated estimators
        # gave identical rows counting every replication twice, and repeated
        # n or recipes gave rows that ResultTable.row cannot tell apart
        (name,) = over
        with pytest.raises(ConfigError, match=f"{name} must be distinct"):
            tiny_plan(**over)

    def test_recipe_fits_response_kind(self):
        # type_y needs real responses and selection_flip censored ones; a
        # mismatch is refused before any cell runs, clean cells included.
        with pytest.raises(ConfigError, match="'type_y'.*'censored'"):
            tiny_plan(scenario="heckman_synthetic", estimators=("mle",), fit_overrides={})
        with pytest.raises(ConfigError, match="'selection_flip'.*'real'"):
            tiny_plan(recipes=("type_x", "selection_flip"))
        tiny_plan(scenario="heckman_synthetic", recipes=("type_x", "selection_flip"),
                  estimators=("mle",), fit_overrides={})

    @pytest.mark.parametrize("scenario,epsilons,recipes,scheme", [
        ("gauss_linear_laplace", (0.0, 0.1), ("type_x", "type_y"), "adversarial"),
        ("gauss_linear_laplace", (0.0, 0.1), ("type_y",), "huber"),
        ("gauss_linear_laplace", (0.0, -0.1), ("type_y",), "adversarial"),
        ("gauss_linear_laplace", (0.0, 1.0), ("type_y",), "adversarial"),
        ("gauss_linear_laplace", (0.0, math.nan), ("type_y",), "adversarial"),
        ("gauss_linear_laplace", (0.0, 0.1), ("type_y",), "random"),
        ("gauss_linear_laplace", (0.0,), (), "random"),
        ("gauss_linear_laplace", (0.0, 0.1), ("custom",), "adversarial"),
        ("gauss_linear_laplace", (0.0, 0.1), ("type_x", "selection_flip"), "adversarial"),
        ("gamma_synthetic", (0.05,), ("type_x", "type_y"), "huber"),
        ("heckman_synthetic", (0.0, 0.1), ("type_x", "selection_flip"), "huber"),
        ("heckman_synthetic", (0.0, 0.1), ("type_y",), "adversarial"),
        ("heckman_synthetic", (0.0,), ("type_y",), "adversarial"),
    ])
    def test_contamination_rules_are_the_specs(self, scenario, epsilons, recipes, scheme,
                                               monkeypatch):
        # the plan refuses exactly what building its cells' contamination
        # specs, or contaminate's recipe/kind rule, refuses, and at once
        sc = get_scenario(scenario)
        try:
            for eps in epsilons:
                ContaminationSpec(eps, scheme)
                for recipe in recipes:
                    ContaminationSpec(eps, scheme, recipe, sc.recipe_means.get(recipe))
            for recipe in recipes:
                _check_recipe_kind(recipe, sc.make_family().kind)
        except (ConfigError, DomainError):
            refused = True
        else:
            refused = False
        for name in ("simulate_dataset", "contaminate", "fit"):
            monkeypatch.setattr(f"mmdreg.bench.{name}", lambda *a, **k: pytest.fail("plan ran"))
        kwargs = dict(scenario=scenario, epsilons=epsilons, recipes=recipes, scheme=scheme,
                      estimators=("mle",), fit_overrides={})
        if refused:
            with pytest.raises(ConfigError):
                tiny_plan(**kwargs)
        else:
            assert tiny_plan(**kwargs).epsilons == tuple(map(float, epsilons))

    def test_counts_are_integers(self):
        # booleans are not counts, and a fractional n is not truncated
        for over in ({"replications": True}, {"replications": 2.0},
                     {"n_values": (True,)}, {"n_values": (40, 100.7)}, {"n_values": ("40",)}):
            with pytest.raises(ConfigError, match="replications|n_values"):
                tiny_plan(**over)
        assert tiny_plan(n_values=(np.int64(40), 80)).n_values == (40, 80)
        # numpy counts come back as Python ints, so the plan's config is JSON
        plan = tiny_plan(replications=np.int64(2), master_seed=np.int64(3))
        assert json.loads(json.dumps(plan_to_config(plan)))["reps"] == 2

    def test_override_rules(self):
        with pytest.raises(ConfigError, match="unused"):
            tiny_plan(fit_overrides={"hat": {"iters": 5}})
        with pytest.raises(ConfigError, match=r"unknown fit override config keys: \['seed'\]"):
            tiny_plan(fit_overrides={"tilde": {"seed": 3}})
        with pytest.raises(ConfigError, match="fit override config must be a mapping"):
            tiny_plan(fit_overrides={"tilde": [("iters", 5)]})
        # values and keys are checked when the plan is built, not per replication
        with pytest.raises(ConfigError, match="'tilde'.*eta"):
            tiny_plan(fit_overrides={"tilde": {"eta": "0.1"}})
        with pytest.raises(ConfigError, match="unknown fit override config keys"):
            tiny_plan(fit_overrides={"tilde": {"bogus": 1}})
        with pytest.raises(ConfigError, match="gamma"):
            tiny_plan(fit_overrides={"tilde": {"kernel": {"family": "exponential", "gamma": "x"}}})
        with pytest.raises(ConfigError, match="'hat'.*product kernel .* is required"):
            tiny_plan(estimators=("hat",), fit_overrides={"hat": {"kernel": {"family": "gaussian"}}})

    def test_override_configs_built_once(self):
        kernel = {"family": "exponential", "gamma": 0.5}
        plan = tiny_plan(fit_overrides={"tilde": {"iters": 25, "kernel": kernel,
                                                  "init": [0.0] * 9}})
        cfg = plan.fit_configs["tilde"]
        assert cfg.estimator == "tilde" and cfg.iters == 25
        assert cfg.kernel == spec_from_dict(kernel)
        assert cfg.init == (0.0,) * 9 and all(type(v) is float for v in cfg.init)
        assert plan.fit_configs["ols"].estimator == "ols"
        assert plan_to_config(plan)["fit"] == {"tilde": {"iters": 25, "kernel": kernel,
                                                         "init": [0.0] * 9}}

    def test_cells_canonical(self):
        plan = tiny_plan(
            n_values=(40, 80), epsilons=(0.0, 0.03), recipes=("type_x", "type_y")
        )
        cells = plan.cells()
        # Per n: one clean cell plus one per recipe at the dirty rate.
        assert len(cells) == 2 * (1 + 2)
        assert [c.index for c in cells] == list(range(6))
        clean = [c for c in cells if c.epsilon == 0.0]
        assert all(c.recipe == "none" for c in clean)

    def test_config_round_trip(self):
        plan = tiny_plan()
        assert plan_from_config(plan_to_config(plan)) == plan
        with pytest.raises(ConfigError, match="missing"):
            plan_from_config({"scenario": "gauss_linear_laplace"})
        with pytest.raises(ConfigError, match="unknown"):
            plan_from_config(dict(plan_to_config(plan), extra=1))


class TestScoring:
    def test_rmse_symmetry_example(self):
        truth = np.zeros(8)
        est = np.stack([truth.copy(), truth.copy()])
        est[0, 0] += 1.0
        est[1, 0] -= 1.0
        assert rmse(est, truth) == 1.0

    def test_rmse_mask(self):
        truth = np.zeros(3)
        est = np.array([[1.0, 9.0, 0.0]])
        mask = np.array([True, False, True])
        assert rmse(est, truth, mask=mask) == 1.0
        with pytest.raises(DomainError, match="dimension"):
            rmse(np.zeros((2, 4)), truth)
        with pytest.raises(DomainError, match="mask shape must match truth shape"):
            rmse(est, truth, mask=mask[:2])

    def test_rmse_of_no_estimates(self):
        # numpy would warn on the empty mean and return NaN
        with pytest.raises(DomainError, match="at least one estimate"):
            rmse(np.zeros((0, 3)), np.zeros(3))


class TestRunPlan:
    def test_smoke_two_rows(self):
        # R=1, one clean cell, two estimators -> a 2-row table with
        # finite scores, tilde at its default iteration count.
        plan = ExperimentPlan(
            scenario="gauss_linear_laplace",
            n_values=(100,),
            epsilons=(0.0,),
            recipes=(),
            estimators=("ols", "tilde"),
            replications=1,
            master_seed=5,
        )
        table = run_plan(plan)
        assert len(table.rows) == 2
        assert all(math.isfinite(r["rmse"]) for r in table.rows)
        assert all(r["reps_failed"] == 0 for r in table.rows)
        assert table.schema_version == 1

    def test_deterministic_across_parallelism(self):
        plan = tiny_plan()
        serial = run_plan(plan, threads=1)
        parallel = run_plan(plan, threads=2)
        assert serial.canonical() == parallel.canonical()
        again = run_plan(plan, threads=1)
        assert serial.canonical() == again.canonical()
        # workers of a plan whose fits call scipy.special and the hat
        # pair search, both imported before the pool forks
        plan = tiny_plan(scenario="heckman_synthetic", n_values=(60,), recipes=("type_x",),
                         estimators=("mle", "tilde", "hat"),
                         fit_overrides={"tilde": {"iters": 10}, "hat": {"iters": 10}})
        serial = run_plan(plan, threads=1)
        assert all(r["reps_failed"] == 0 for r in serial.rows)
        assert serial.canonical() == run_plan(plan, threads=2).canonical()

    def test_canonical_pinned(self):
        # Pins the determinism contract on each scenario: the data, the
        # contamination and the fit seeds derived from the plan, the MLE
        # start and the tilde fits' streams.  Recorded with numpy 2.4 on
        # x86-64, like the fit pins in test_fitting.
        want = {
            ("gauss_linear_laplace", "type_y"):
                "9e4901367d28403e2bb28a58f9ec5dd76e43d9625e1843c5c9c790adeb88d2cc",
            ("heckman_synthetic", "type_x"):
                "ebbdfc4ff4410152cf68963dc0478768c821bfe97db480147cefa31075c67867",
            ("gamma_synthetic", "type_x"):
                "d49638a6190fb8e91666b4770405f6bb84e08a753cc3e1dd1b16dc52193bee56",
        }
        for (scenario, recipe), sha256 in want.items():
            plan = tiny_plan(scenario=scenario, n_values=(200,), recipes=(recipe,),
                             estimators=("mle", "tilde"), master_seed=41,
                             fit_overrides={"tilde": {"iters": 40}})
            blob = json.dumps(run_plan(plan).canonical(), sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == sha256, scenario

    def test_rmse_recomputation_oracle(self):
        plan = tiny_plan()
        table = run_plan(plan)
        scenario = get_scenario(plan.scenario)
        truth = scenario.truth_natural[scenario.report_mask]
        for row in table.rows:
            recs = [
                r
                for r in table.per_rep
                if r["n"] == row["n"]
                and r["epsilon"] == row["epsilon"]
                and r["recipe"] == row["recipe"]
                and r["estimator"] == row["estimator"]
                and r["theta_natural"] is not None
            ]
            sq = []
            for r in recs:
                est = np.asarray(r["theta_natural"])[scenario.report_mask]
                sq.append(math.fsum((e - t) ** 2 for e, t in zip(est, truth)))
            want = math.sqrt(math.fsum(sq) / len(sq))
            assert abs(row["rmse"] - want) < 1e-12

    def test_failures_recorded_not_fatal(self):
        # OLS is undefined for the gamma family, so every rep of that
        # estimator fails while the plan still completes.
        plan = ExperimentPlan(
            scenario="gamma_synthetic",
            n_values=(30,),
            epsilons=(0.0,),
            recipes=(),
            estimators=("ols",),
            replications=2,
            master_seed=3,
        )
        table = run_plan(plan)
        (row,) = table.rows
        assert row["reps_ok"] == 0
        assert row["reps_failed"] == 2
        assert math.isnan(row["rmse"])
        assert all("ConfigError" in r["error"] for r in table.per_rep)

    def test_aborted_fits_recorded_not_fatal(self, tmp_path):
        # With log-shape -8 most gamma draws underflow to 0, whose score is
        # not finite: every tilde fit aborts with nonfinite_gradient, its
        # replications count as failed, and the plan completes.  The cell's
        # RMSE, NaN in the table, is written to results.json as null.
        truth = get_scenario("gamma_synthetic").truth_raw
        plan = ExperimentPlan(
            scenario="gamma_synthetic", n_values=(50,), epsilons=(0.0,), recipes=(),
            estimators=("mle", "tilde"), replications=2, master_seed=15,
            fit_overrides={"tilde": {"iters": 5, "init": [*truth[:8], -8.0]}},
        )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            table = run_plan(plan, threads=1)
        mle, tilde = table.row(estimator="mle"), table.row(estimator="tilde")
        assert (mle["reps_ok"], mle["reps_failed"]) == (2, 0)
        assert (tilde["reps_ok"], tilde["reps_failed"]) == (0, 2)
        assert math.isnan(tilde["rmse"])
        failed = [r for r in table.per_rep if r["estimator"] == "tilde"]
        assert [r["error"] for r in failed] == ["nonfinite_gradient"] * 2
        assert all(r["theta_natural"] is None for r in failed)
        json_path, _ = write_results(table, tmp_path / "out")
        with open(json_path) as fh:
            payload = json.load(fh, parse_constant=reject_constant)
        rows = {r["estimator"]: r for r in payload["rows"]}
        assert rows["tilde"]["rmse"] is None
        assert rows["mle"]["rmse"] == mle["rmse"]
        assert payload["per_rep"] == table.to_dict()["per_rep"]

    def test_thread_count_checked(self):
        plan = tiny_plan(replications=1, epsilons=(0.0,), estimators=("ols",), fit_overrides={})
        for threads in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigError, match="threads must be a positive integer"):
                run_plan(plan, threads=threads)
        assert run_plan(plan).canonical() == run_plan(plan, threads=1).canonical()

    def test_write_results(self, tmp_path):
        table = run_plan(tiny_plan(replications=1, epsilons=(0.0,)))
        json_path, csv_path = write_results(table, tmp_path / "out")
        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert payload["plan"]["scenario"] == "gauss_linear_laplace"
        assert len(payload["rows"]) == len(table.rows)
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
        assert header[:4] == ["n", "epsilon", "recipe", "estimator"]

    def test_row_lookup(self):
        table = run_plan(tiny_plan(replications=1, epsilons=(0.0,)))
        row = table.row(estimator="ols")
        assert row["n"] == 40
        with pytest.raises(KeyError):
            table.row(estimator="hat")


class TestFixedBase:
    """No cell shares a base dataset: each (cell, rep) simulates its own."""

    def test_regeneration_differs_per_cell(self):
        plan = tiny_plan(n_values=(50, 100), replications=1)
        scenario = get_scenario(plan.scenario)
        cells = plan.cells()
        a = next(c for c in cells if c.n == 50)
        b = next(c for c in cells if c.n == 100)
        _, ds_a = _cell_dataset(plan, scenario, a, rep=0)
        _, ds_b = _cell_dataset(plan, scenario, b, rep=0)
        assert not np.array_equal(ds_a.x, ds_b.x[:50])


