"""Replicated simulation benchmarks: simulate, contaminate, fit, score.

A plan is a grid over sample sizes, contamination rates, and recipes.
Each grid cell is run for R replications; every replication simulates a
dataset, corrupts it, fits each requested estimator from an MLE start,
and records the estimate.  Seeds derive from (master seed, cell index,
rep index) alone, so the produced table is identical no matter how the
work is spread over processes.

Two dataset regimes are supported.  By default every (cell, rep) pair
regenerates its own data.  With ``fixed_base`` a replication draws one
clean base dataset with max(n) rows, contaminates the whole base once
per (epsilon, recipe), and hands each cell the first n rows: the
nested-subsample protocol, which makes cells comparable within a rep.
"""

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .contamination import RECIPES, SCHEMES, ContaminationSpec, contaminate
from .dataio import fit_config_from_dict
from .errors import ConfigError, DomainError, FormatError, NumericalError
from .fitting import ESTIMATORS, fit
from .models import Dataset, check_seed, get_scenario, simulate_dataset

SCHEMA_VERSION = 1

_PLAN_RECIPES = tuple(r for r in RECIPES if r != "custom")


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    epsilon: float
    recipe: str
    eps_index: int
    recipe_index: int


def _listed(values, name, convert=str):
    # A plan's list field as a tuple of converted items; a bare value or a
    # string is refused.
    wrong = ConfigError(f"{name} must be a list, got {values!r}")
    if isinstance(values, str):
        raise wrong
    try:
        return tuple(convert(v) for v in values)
    except (TypeError, ValueError):
        raise wrong from None


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid definition for one scenario.

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
    fixed_base: bool = False
    fit_overrides: dict = field(default_factory=dict)
    fit_configs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        get_scenario(self.scenario)
        object.__setattr__(self, "n_values", _listed(self.n_values, "n_values", int))
        object.__setattr__(self, "epsilons", _listed(self.epsilons, "epsilons", float))
        object.__setattr__(self, "recipes", _listed(self.recipes, "recipes"))
        object.__setattr__(self, "estimators", _listed(self.estimators, "estimators"))
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("n_values must be positive integers")
        if not self.epsilons or any(not (0.0 <= e < 1.0) for e in self.epsilons):
            raise ConfigError("epsilons must lie in [0, 1)")
        if len(set(self.epsilons)) != len(self.epsilons):
            raise ConfigError("epsilons must be distinct")
        bad = set(self.recipes) - set(_PLAN_RECIPES)
        if bad or (not self.recipes and any(e > 0 for e in self.epsilons)):
            raise ConfigError(
                f"plan recipes must be drawn from {_PLAN_RECIPES}, got {self.recipes}"
            )
        bad = set(self.estimators) - set(ESTIMATORS)
        if bad or not self.estimators:
            raise ConfigError(
                f"estimators must be drawn from {ESTIMATORS}, got {self.estimators}"
            )
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ConfigError("replications must be a positive integer")
        check_seed(self.master_seed)
        if not isinstance(self.fixed_base, (bool, np.bool_)):
            raise ConfigError(f"fixed_base must be true or false, got {self.fixed_base!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.fit_overrides, dict):
            raise ConfigError("fit_overrides must be a mapping")
        for name, over in self.fit_overrides.items():
            if name not in self.estimators:
                raise ConfigError(f"fit override for unused estimator {name!r}")
            if not isinstance(over, dict):
                raise ConfigError("each fit override must be a mapping")
            banned = {"estimator", "seed"} & set(over)
            if banned:
                raise ConfigError(f"fit overrides cannot set {sorted(banned)}")
        configs = {}
        for name in self.estimators:
            try:
                configs[name] = fit_config_from_dict({**self.fit_overrides.get(name, {}),
                                                      "estimator": name})
            except ConfigError as exc:
                raise ConfigError(f"fit override for {name!r}: {exc}") from None
        object.__setattr__(self, "fit_configs", configs)

    def cells(self):
        """Grid cells in canonical order; the clean rate appears once
        per n regardless of how many recipes the plan lists."""
        out = []
        for i_n, n in enumerate(self.n_values):
            for i_eps, eps in enumerate(self.epsilons):
                if eps == 0.0:
                    out.append(Cell(len(out), n, 0.0, "none", i_eps, -1))
                    continue
                for i_rec, recipe in enumerate(self.recipes):
                    out.append(Cell(len(out), n, eps, recipe, i_eps, i_rec))
        return out


_PLAN_KEYS = {
    "scenario", "n", "eps", "recipes", "estimators", "reps", "seed",
    "scheme", "fixed_base", "fit",
}


def plan_from_config(cfg):
    """Build a plan from a parsed config mapping.

    Keys: ``scenario``, ``n`` (list), ``eps`` (list), ``recipes``,
    ``estimators``, ``reps``, ``seed``, and optionally ``scheme``,
    ``fixed_base``, ``fit`` (per-estimator overrides).
    """
    if not isinstance(cfg, dict):
        raise ConfigError("plan config must be a mapping")
    extra = set(cfg) - _PLAN_KEYS
    if extra:
        raise ConfigError(f"unknown plan config keys: {sorted(extra)}")
    missing = {"scenario", "n", "eps", "estimators", "reps", "seed"} - set(cfg)
    if missing:
        raise ConfigError(f"plan config missing keys: {sorted(missing)}")
    return ExperimentPlan(
        scenario=cfg["scenario"],
        n_values=cfg["n"],
        epsilons=cfg["eps"],
        recipes=cfg.get("recipes", ()),
        estimators=cfg["estimators"],
        replications=cfg["reps"],
        master_seed=cfg["seed"],
        scheme=cfg.get("scheme", "adversarial"),
        fixed_base=cfg.get("fixed_base", False),
        fit_overrides=cfg.get("fit", {}),
    )


def plan_to_config(plan):
    out = {
        "scenario": plan.scenario,
        "n": list(plan.n_values),
        "eps": list(plan.epsilons),
        "recipes": list(plan.recipes),
        "estimators": list(plan.estimators),
        "reps": plan.replications,
        "seed": plan.master_seed,
        "scheme": plan.scheme,
        "fixed_base": plan.fixed_base,
    }
    if plan.fit_overrides:
        out["fit"] = {k: dict(v) for k, v in plan.fit_overrides.items()}
    return out


def _derive_seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _truncate(dataset, n):
    if dataset.x.shape[0] == n:
        return dataset
    meta = dict(dataset.meta)
    meta["base_n"] = int(dataset.x.shape[0])
    return Dataset(x=dataset.x[:n].copy(), y=dataset.y[:n].copy(),
                   kind=dataset.kind, meta=meta)


def _cell_dataset(plan, scenario, cell, rep):
    if plan.fixed_base:
        base_n = max(plan.n_values)
        data_seed = _derive_seed(plan.master_seed, 1, rep)
    else:
        base_n = cell.n
        data_seed = _derive_seed(plan.master_seed, 1, cell.index, rep)
    family, ds = simulate_dataset(scenario, base_n, data_seed)
    if cell.epsilon > 0.0:
        if plan.fixed_base:
            # Keyed by (eps, recipe), not by cell, so every n shares the
            # same corrupted base within a replication.
            contam_seed = _derive_seed(plan.master_seed, 2, rep, cell.eps_index,
                                       cell.recipe_index)
        else:
            contam_seed = _derive_seed(plan.master_seed, 2, cell.index, rep)
        mean = scenario.recipe_means.get(f"{cell.recipe}_mean")
        spec = ContaminationSpec(
            epsilon=cell.epsilon, scheme=plan.scheme, recipe=cell.recipe,
            mean=mean, seed=contam_seed,
        )
        ds = contaminate(ds, spec)
    return family, _truncate(ds, cell.n)


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


def _star_task(args):
    return _run_task(*args)


def _resolve_threads(threads):
    raw = os.environ.get("MMDR_THREADS")
    try:
        cap = int(raw) if raw else None
    except ValueError:
        raise ConfigError(f"MMDR_THREADS must be a positive integer, got {raw!r}") from None
    if cap is not None and cap < 1:
        raise ConfigError("MMDR_THREADS must be a positive integer")
    if threads is None:
        threads = cap if cap is not None else 1
    elif cap is not None:
        threads = min(int(threads), cap)
    else:
        threads = int(threads)
    if threads < 1:
        raise ConfigError("threads must be a positive integer")
    return threads


def rmse(estimates, truth, mask=None, normalize=True):
    """Root mean squared parameter error over replications.

    ``estimates`` is an (R, p) stack, ``truth`` the length-p target.
    ``mask`` restricts scoring to selected coordinates.  With
    ``normalize`` the squared error is divided by the scored dimension,
    so a unit-norm error in any dimension scores 1/sqrt(dim); the
    benchmark tables use the plain Euclidean norm instead.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.asarray(truth, dtype=float)
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
    sq = np.sum(err**2, axis=1)
    if normalize:
        sq = sq / err.shape[1]
    return float(np.sqrt(np.mean(sq)))


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

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
    derived seeds and the aggregation orders by (cell, rep), so thread
    count only changes wall time.
    """
    threads = _resolve_threads(threads)
    scenario = get_scenario(plan.scenario)
    cells = plan.cells()
    tasks = [(plan, cell, rep) for cell in cells for rep in range(plan.replications)]
    if threads == 1 or len(tasks) == 1:
        results = [_run_task(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_star_task, tasks, chunksize=1))

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
                "rmse": rmse(np.asarray(good), truth, mask=mask, normalize=False)
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
