"""Replicated simulation benchmarks: simulate, contaminate, fit, score.

A plan is a grid over sample sizes, contamination rates, and recipes.
Each grid cell is run for R replications; every replication simulates a
dataset, corrupts it, fits each requested estimator from an MLE start,
and records the estimate.  Seeds derive from (master seed, cell index,
rep index) alone, so the produced table is identical no matter how the
work is spread over processes.  Every (cell, rep) pair simulates and
contaminates its own data.
"""

import csv
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .contamination import ContaminationSpec, _check_recipe_kind, contaminate
from .dataio import _FIT_KEYS, _write_json, fit_config_from_dict
from .errors import ConfigError, DomainError, FormatError, NumericalError
from .fitting import fit
from .gradients import _kd_tree
from .models import _config_keys, _count, get_scenario, simulate_dataset

SCHEMA_VERSION = 1
# the plan derives each fit's seed and names its estimator
_OVERRIDE_KEYS = _FIT_KEYS - {"estimator", "seed"}


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    epsilon: float
    recipe: str


def _listed(values, name, convert=str, empty=False):
    # A plan's list field as a tuple of converted items; a bare value, a
    # string, a repeated item and, unless `empty`, no item are refused.
    wrong = ConfigError(f"{name} must be a list, got {values!r}")
    if isinstance(values, str):
        raise wrong
    try:
        out = tuple(convert(v) for v in values)
    except TypeError:  # not iterable
        raise wrong from None
    if any(out.count(v) > 1 for v in out):  # count, as items may be unhashable
        raise ConfigError(f"{name} must be distinct, got {values!r}")
    if not (out or empty):
        raise ConfigError(f"{name} must not be empty, got {values!r}")
    return out


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid definition for one scenario.

    Rates, the scheme and recipes are checked by building the
    :class:`ContaminationSpec` of each (rate, recipe), and each recipe
    against the scenario's response kind by :func:`contaminate`'s rule.
    ``fit_overrides`` maps an estimator name to FitConfig keyword
    overrides (iteration counts, pair budgets, kernel config); seeds
    and estimator names are derived and cannot be overridden.  Each
    estimator's FitConfig is built once here, so a bad override refuses
    the plan before any work; ``fit_configs`` holds them.
    """

    scenario: str
    n_values: tuple
    epsilons: tuple
    recipes: tuple
    estimators: tuple
    replications: int
    master_seed: int
    scheme: str = "adversarial"
    fit_overrides: dict = field(default_factory=dict)
    fit_configs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = get_scenario(self.scenario)
        n_values = _listed(self.n_values, "n_values", lambda n: _count(n, "each of n_values", 1))
        object.__setattr__(self, "n_values", n_values)
        # a spec per rate, so a plan of clean cells alone checks the scheme
        epsilons = _listed(self.epsilons, "epsilons",
                           lambda e: ContaminationSpec(e, self.scheme).epsilon)
        object.__setattr__(self, "epsilons", epsilons)
        object.__setattr__(self, "recipes", _listed(self.recipes, "recipes", empty=True))
        if not self.recipes and any(epsilons):
            raise ConfigError(f"a nonzero rate needs recipes, got epsilons {epsilons}")
        kind = scenario.make_family().kind
        for recipe in self.recipes:
            for eps in epsilons:
                ContaminationSpec(eps, self.scheme, recipe, scenario.recipe_means.get(recipe))
            _check_recipe_kind(recipe, kind, ConfigError)
        object.__setattr__(self, "estimators", _listed(self.estimators, "estimators"))
        object.__setattr__(self, "replications", _count(self.replications, "replications", 1))
        object.__setattr__(self, "master_seed", _count(self.master_seed, "seed"))
        overrides = self.fit_overrides
        if not isinstance(overrides, dict):
            raise ConfigError(f"fit overrides must be a mapping, got {type(overrides).__name__}")
        configs = {}
        for name in self.estimators:
            over = overrides.get(name, {})
            try:
                _config_keys(over, "fit override", _OVERRIDE_KEYS)
                configs[name] = fit_config_from_dict({**over, "estimator": name})
            except ConfigError as exc:
                raise ConfigError(f"estimator {name!r}: {exc}") from None
        _config_keys(overrides, "fit override (unused estimators refused)", self.estimators)
        object.__setattr__(self, "fit_configs", configs)

    def cells(self):
        """Grid cells in canonical order; the clean rate appears once
        per n regardless of how many recipes the plan lists."""
        out = []
        for n in self.n_values:
            for eps in self.epsilons:
                if eps == 0.0:
                    out.append(Cell(len(out), n, 0.0, "none"))
                    continue
                for recipe in self.recipes:
                    out.append(Cell(len(out), n, eps, recipe))
        return out


# Each plan config key and the ExperimentPlan field it sets, in the order
# plan_to_config writes them.  A config may leave out recipes (none),
# scheme and fit, which then take ExperimentPlan's defaults.
_PLAN_FIELDS = {
    "scenario": "scenario", "n": "n_values", "eps": "epsilons", "recipes": "recipes",
    "estimators": "estimators", "reps": "replications", "seed": "master_seed",
    "scheme": "scheme", "fit": "fit_overrides",
}
_PLAN_KEYS = set(_PLAN_FIELDS)


def plan_from_config(cfg):
    """Build a plan from a parsed config mapping.

    Keys: ``scenario``, ``n`` (list), ``eps`` (list), ``recipes``,
    ``estimators``, ``reps``, ``seed``, and optionally ``scheme`` and
    ``fit`` (per-estimator overrides).
    """
    _config_keys(cfg, "plan", _PLAN_KEYS, _PLAN_KEYS - {"recipes", "scheme", "fit"})
    given = {_PLAN_FIELDS[key]: value for key, value in cfg.items()}
    return ExperimentPlan(**{"recipes": (), **given})


def plan_to_config(plan):
    out = {}
    for key, name in _PLAN_FIELDS.items():
        value = getattr(plan, name)
        out[key] = list(value) if isinstance(value, tuple) else value
    if out.pop("fit"):
        out["fit"] = {k: dict(v) for k, v in plan.fit_overrides.items()}
    return out


def _derive_seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _cell_dataset(plan, scenario, cell, rep):
    data_seed = _derive_seed(plan.master_seed, 1, cell.index, rep)
    family, ds = simulate_dataset(scenario, cell.n, data_seed)
    if cell.epsilon > 0.0:
        spec = ContaminationSpec(
            epsilon=cell.epsilon, scheme=plan.scheme, recipe=cell.recipe,
            mean=scenario.recipe_means.get(cell.recipe),
            seed=_derive_seed(plan.master_seed, 2, cell.index, rep),
        )
        ds = contaminate(ds, spec)
    return family, ds


def _run_task(plan, cell, rep):
    """All estimator fits for one (cell, rep); returns per-rep records."""
    scenario = get_scenario(plan.scenario)
    family, ds = _cell_dataset(plan, scenario, cell, rep)
    records = []
    for i_est, estimator in enumerate(plan.estimators):
        seed = _derive_seed(plan.master_seed, 3, cell.index, rep, i_est)
        record = {
            "cell": cell.index, "n": cell.n, "epsilon": cell.epsilon,
            "recipe": cell.recipe, "estimator": estimator, "rep": rep,
            "theta_natural": None, "error": None, "warning": None,
            "wall_time": None,
        }
        t0 = time.perf_counter()
        try:
            result = fit(family, ds, replace(plan.fit_configs[estimator], seed=seed))
        except (ConfigError, DomainError, FormatError, NumericalError,
                np.linalg.LinAlgError, FloatingPointError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["wall_time"] = time.perf_counter() - t0
        else:
            record["wall_time"] = result.wall_time
            record["warning"] = result.warning
            if result.error is not None:
                record["error"] = result.error
            else:
                record["theta_natural"] = [float(v) for v in result.theta_natural]
        records.append(record)
    return records


def rmse(estimates, truth, mask=None):
    """Root mean squared Euclidean parameter error over replications.

    ``estimates`` is an (R, p) stack, ``truth`` the length-p target.
    ``mask`` restricts scoring to selected coordinates.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.asarray(truth, dtype=float)
    if est.shape[0] == 0:
        raise DomainError("rmse needs at least one estimate")
    if est.shape[1] != truth.shape[0]:
        raise DomainError(
            f"estimate dimension {est.shape[1]} != truth dimension {truth.shape[0]}"
        )
    err = est - truth[None, :]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != truth.shape:
            raise DomainError("mask shape must match truth shape")
        err = err[:, mask]
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


@dataclass
class ResultTable:
    """Aggregated benchmark output.

    ``rows`` holds one summary per (n, epsilon, recipe, estimator) with
    the table-scale RMSE (Euclidean, over the scenario's reported
    coordinates); ``per_rep`` holds every replication's estimate so the
    summary can be recomputed or re-scored later.
    """

    scenario: str
    rows: list
    per_rep: list
    plan: dict
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "plan": self.plan,
            "rows": self.rows,
            "per_rep": self.per_rep,
        }

    def canonical(self):
        """Timing-free view: wall time is the only field that may vary
        between runs of the same plan, so equality of this dict is the
        determinism contract."""
        out = self.to_dict()
        out["rows"] = [
            {k: v for k, v in row.items() if k != "mean_wall_time"}
            for row in out["rows"]
        ]
        out["per_rep"] = [
            {k: v for k, v in rec.items() if k != "wall_time"}
            for rec in out["per_rep"]
        ]
        return out

    def write_json(self, path):
        """Write :meth:`to_dict` as strict JSON, a NaN ``rmse`` as null."""
        _write_json(self.to_dict(), path)

    def write_csv(self, path):
        cols = ["n", "epsilon", "recipe", "estimator", "rmse", "reps_ok",
                "reps_failed", "mean_wall_time"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in cols})

    def row(self, **keys):
        for row in self.rows:
            if all(row[k] == v for k, v in keys.items()):
                return row
        raise KeyError(f"no summary row matching {keys}")


def run_plan(plan, threads=None):
    """Execute a plan and aggregate its results.

    The output is a pure function of the plan: tasks carry their own
    derived seeds and the aggregation orders by (cell, rep), so the
    worker process count ``threads`` (default 1) only changes wall time.
    """
    threads = 1 if threads is None else _count(threads, "threads", 1)
    scenario = get_scenario(plan.scenario)
    cells = plan.cells()
    tasks = [(plan, cell, rep) for cell in cells for rep in range(plan.replications)]
    if threads == 1 or len(tasks) == 1:
        results = [_run_task(*t) for t in tasks]
    else:
        # forked workers inherit what the parent imported: the family built
        # with the plan loaded scipy.special, and hat fits need the k-d tree
        from concurrent.futures import ProcessPoolExecutor
        if "hat" in plan.estimators:
            _kd_tree()
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_run_task, *zip(*tasks), chunksize=1))

    per_rep = [rec for task_recs in results for rec in task_recs]
    per_rep.sort(key=lambda r: (r["cell"], r["rep"], plan.estimators.index(r["estimator"])))

    truth = scenario.truth_natural
    mask = scenario.report_mask
    rows = []
    for cell in cells:
        for estimator in plan.estimators:
            recs = [r for r in per_rep
                    if r["cell"] == cell.index and r["estimator"] == estimator]
            good = [r["theta_natural"] for r in recs if r["theta_natural"] is not None]
            row = {
                "n": cell.n, "epsilon": cell.epsilon, "recipe": cell.recipe,
                "estimator": estimator,
                "rmse": rmse(np.asarray(good), truth, mask=mask)
                if good else float("nan"),
                "reps_ok": len(good),
                "reps_failed": len(recs) - len(good),
                "mean_wall_time": float(np.mean([r["wall_time"] for r in recs])),
            }
            rows.append(row)
    return ResultTable(
        scenario=plan.scenario, rows=rows, per_rep=per_rep,
        plan=plan_to_config(plan),
    )


def write_results(table, out_dir):
    """Write the JSON detail and CSV summary into a directory.

    Returns the two paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "results.json")
    csv_path = os.path.join(out_dir, "summary.csv")
    table.write_json(json_path)
    table.write_csv(csv_path)
    return json_path, csv_path
