"""Tests for the replication harness.

The RMSE oracle is an independent double-loop recomputation from the
persisted per-rep estimates; determinism is checked by running the same
plan serially and across processes.
"""

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
    _resolve_threads,
)
from mmdreg.errors import ConfigError, DomainError
from mmdreg.models import get_scenario


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
        with pytest.raises(ConfigError, match="estimators"):
            tiny_plan(estimators=("ols", "map"))
        with pytest.raises(ConfigError, match="recipes"):
            tiny_plan(recipes=("custom",))
        with pytest.raises(ConfigError, match="recipes"):
            tiny_plan(recipes=())
        tiny_plan(recipes=(), epsilons=(0.0,))
        with pytest.raises(ConfigError, match="distinct"):
            tiny_plan(epsilons=(0.1, 0.1))
        with pytest.raises(ConfigError, match="replications"):
            tiny_plan(replications=0)

    def test_override_rules(self):
        with pytest.raises(ConfigError, match="unused"):
            tiny_plan(fit_overrides={"hat": {"iters": 5}})
        with pytest.raises(ConfigError, match="cannot set"):
            tiny_plan(fit_overrides={"tilde": {"seed": 3}})

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
        assert abs(rmse(est, truth) - 0.35355) < 5e-6
        assert rmse(est, truth, normalize=False) == 1.0

    def test_rmse_mask(self):
        truth = np.zeros(3)
        est = np.array([[1.0, 9.0, 0.0]])
        mask = np.array([True, False, True])
        assert rmse(est, truth, mask=mask, normalize=False) == 1.0
        with pytest.raises(DomainError, match="dimension"):
            rmse(np.zeros((2, 4)), truth)


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
    def test_nested_subsamples(self):
        plan = tiny_plan(
            n_values=(50, 100),
            epsilons=(0.0, 0.04),
            fixed_base=True,
            replications=1,
        )
        scenario = get_scenario(plan.scenario)
        cells = plan.cells()
        small_dirty = next(c for c in cells if c.n == 50 and c.epsilon > 0)
        big_dirty = next(c for c in cells if c.n == 100 and c.epsilon > 0)
        _, ds_small = _cell_dataset(plan, scenario, small_dirty, rep=0)
        _, ds_big = _cell_dataset(plan, scenario, big_dirty, rep=0)
        assert np.array_equal(ds_small.x, ds_big.x[:50])
        assert np.array_equal(ds_small.y, ds_big.y[:50])
        # The same rep's clean cell shares the base rows outside I.
        clean_big = next(c for c in cells if c.n == 100 and c.epsilon == 0.0)
        _, ds_clean = _cell_dataset(plan, scenario, clean_big, rep=0)
        touched = ds_big.meta["contamination"]["indices"]
        keep = np.setdiff1d(np.arange(100), touched)
        assert np.array_equal(ds_big.x[keep], ds_clean.x[keep])
        assert ds_big.meta.get("base_n", 100) == 100

    def test_regeneration_differs_per_cell(self):
        plan = tiny_plan(n_values=(50, 100), fixed_base=False, replications=1)
        scenario = get_scenario(plan.scenario)
        cells = plan.cells()
        a = next(c for c in cells if c.n == 50)
        b = next(c for c in cells if c.n == 100)
        _, ds_a = _cell_dataset(plan, scenario, a, rep=0)
        _, ds_b = _cell_dataset(plan, scenario, b, rep=0)
        assert not np.array_equal(ds_a.x, ds_b.x[:50])


class TestThreadResolution:
    def test_env_cap(self, monkeypatch):
        monkeypatch.delenv("MMDR_THREADS", raising=False)
        assert _resolve_threads(None) == 1
        assert _resolve_threads(4) == 4
        monkeypatch.setenv("MMDR_THREADS", "2")
        assert _resolve_threads(None) == 2
        assert _resolve_threads(8) == 2
        monkeypatch.setenv("MMDR_THREADS", "0")
        with pytest.raises(ConfigError):
            _resolve_threads(None)

    def test_env_not_an_integer(self, monkeypatch):
        for raw in ("abc", "1.5", "2x"):
            monkeypatch.setenv("MMDR_THREADS", raw)
            with pytest.raises(ConfigError):
                _resolve_threads(None)
            with pytest.raises(ConfigError):
                _resolve_threads(2)
