"""The three seeded workloads and their correctness checks.

Each workload turns the benchmark seed into inputs in ``setup`` and runs
one pass in ``run_pass``.  ``cli_csv`` calls ``mark()`` between its
steps, so the runner times the machine's speed around each step; its
steps run for seconds each and the machine's speed drifts within a
pass.  A pass returns a :class:`PassResult` with its operation counts,
failures by exception type, the number of error-free discrepancy fits,
the parameter errors and a determinism digest; the checks collected in
``problems`` fail the run.

Why these three: each puts most of its work in some layers and none in
others, so a change to one layer should move one workload and leave the
others alone.

- ``plan_tilde``: the paper's robustness-study loop.  Three seeded
  ``run_plan`` plans (gauss type_y 3%, gamma type_x 3%, heckman type_x
  1%; n=1000, mle+tilde, 4 replications, 2 worker processes).  Small n
  makes per-call overhead a large share.  Bypasses the pair cache, the
  pair sampler, CSV I/O and ``objective``.
- ``hat_fit``: one quadratic-cost fit at n=2000 with m1=m2=n and 1000
  iterations.  The only workload that builds the n x n pair cache and
  runs the pair sampler.  Bypasses the process pool, CSV I/O and
  ``objective``; data generation is set-up.
- ``cli_csv``: an in-process ``simulate`` -> ``contaminate`` -> ``fit``
  round trip at n=100,000 through ``cli.main``.  CSV writes and loads
  dominate, and the tilde fit runs on arrays larger than L2.  Bypasses
  the pair cache, the pair sampler, the process pool and ``objective``.

``objective`` gets no metric: it runs only with ``trace_objective_every``,
which no default fit, bench or CLI path sets.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from measures import param_error
from mmdreg import bench, cli, contamination, fitting, models

# Ceilings on the Euclidean parameter error over the scenario's reported
# coordinates, RMS over replications, checked on every run.  Gauss and
# gamma use the bands of acceptance gates 2 and 4; over 30 seeds their
# 4-replication figures peaked at 0.128 and 0.197.  A correct heckman fit
# can miss by up to 1.5 in one replication, so its 4-replication figure
# crosses gate 5's band of 1.0 on some seeds (1.062 at seed 206, where
# the MLE scored 1.147); its ceiling is 1.5 times that band.  A loose
# ceiling alone would pass a tilde fit that lost its robustness, so on
# heckman the tilde error must also be no larger than the MLE's on the
# same replications.
ERR_CEILINGS = {"gauss_linear_laplace": 0.20, "gamma_synthetic": 0.28,
                "heckman_synthetic": 1.5}
BEATS_MLE = {"heckman_synthetic"}
ERR_NAMES = {"gauss_linear_laplace": "err_gauss", "gamma_synthetic": "err_gamma",
             "heckman_synthetic": "err_heckman"}


def derive_seed(*entropy):
    """A 32-bit seed drawn from the benchmark seed and fixed keys."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    fail_types: dict = field(default_factory=dict)
    mmd_fits_ok: int = 0
    errors: dict = field(default_factory=dict)
    digest: str = ""
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, kind, count=1):
        self.failed += count
        self.fail_types[kind] = self.fail_types.get(kind, 0) + count


def _finite(values):
    return values is not None and all(math.isfinite(v) for v in values)


class PlanTilde:
    name = "plan_tilde"
    why = ("robustness-study loop: tilde and baseline fits on three families at "
           "n=1000 in a 2-process pool; bypasses pair cache, pair sampler, CSV I/O "
           "and objective")
    n = 1000
    reps = 4
    threads = 2
    scenarios = (("gauss_linear_laplace", "type_y", 0.03),
                 ("gamma_synthetic", "type_x", 0.03),
                 ("heckman_synthetic", "type_x", 0.01))

    def setup(self, seed):
        return [
            bench.ExperimentPlan(
                scenario=scenario, n_values=(self.n,), epsilons=(eps,),
                recipes=(recipe,), estimators=("mle", "tilde"),
                replications=self.reps, master_seed=derive_seed(seed, 1, i),
            )
            for i, (scenario, recipe, eps) in enumerate(self.scenarios)
        ]

    def run_pass(self, plans, tracer, mark, threads=None):
        threads = self.threads if threads is None else threads
        out = PassResult()
        tables = []
        plan_wall = 0.0
        task_s = 0.0
        for plan in plans:
            ops = len(plan.cells()) * plan.replications * len(plan.estimators)
            out.attempted += ops
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.run_plan"):
                    table = bench.run_plan(plan, threads=threads)
            except Exception as exc:  # one bad plan must not end the run
                out.fail(type(exc).__name__, ops)
                out.problems.append(f"{plan.scenario}: run_plan raised {exc!r}")
                continue
            plan_wall += time.perf_counter() - t0
            tables.append(json.dumps(table.canonical(), sort_keys=True))
            scenario = models.get_scenario(plan.scenario)
            good, mle = [], []
            for rec in table.per_rep:
                task_s += rec["wall_time"] or 0.0
                if rec["error"] is not None or not _finite(rec["theta_natural"]):
                    out.fail(rec["error"].split(":")[0] if rec["error"] else "nonfinite")
                    out.problems.append(f"{plan.scenario} {rec['estimator']} rep {rec['rep']} "
                                        f"failed: error={rec['error']!r}")
                    continue
                (good if rec["estimator"] == "tilde" else mle).append(rec["theta_natural"])
            out.mmd_fits_ok += len(good)
            name = ERR_NAMES[plan.scenario]
            if good:
                out.errors[name] = param_error(good, scenario.truth_natural,
                                               scenario.report_mask)
                if out.errors[name] > ERR_CEILINGS[plan.scenario]:
                    out.problems.append(
                        f"{name} {out.errors[name]:.4f} above ceiling "
                        f"{ERR_CEILINGS[plan.scenario]}")
                if plan.scenario in BEATS_MLE and mle:
                    err_mle = param_error(mle, scenario.truth_natural, scenario.report_mask)
                    if out.errors[name] > err_mle:
                        out.problems.append(f"{name} {out.errors[name]:.4f} above the MLE's "
                                            f"{err_mle:.4f} on the same replications")
            out.extra.setdefault("reps_failed", 0)
            out.extra["reps_failed"] += sum(r["reps_failed"] for r in table.rows)
        out.digest = "\n".join(tables)
        out.extra.update(tasks=sum(len(p.cells()) * p.replications for p in plans),
                         task_s_sum=task_s, run_plan_s=plan_wall, threads=threads)
        return out


class HatFit:
    name = "hat_fit"
    why = ("the only workload that builds the n x n pair cache and runs the pair "
           "sampler: one hat fit at n=2000, m1=m2=n; bypasses the pool, CSV I/O "
           "and objective")
    n = 2000
    iters = 1000
    scenario = "gauss_linear_laplace"

    def setup(self, seed):
        family, clean = models.simulate_dataset(self.scenario, self.n,
                                                derive_seed(seed, 2, 0))
        spec = contamination.ContaminationSpec(epsilon=0.03, recipe="type_y",
                                               seed=derive_seed(seed, 2, 1))
        config = fitting.FitConfig(estimator="hat", m1=self.n, m2=self.n,
                                   iters=self.iters, seed=derive_seed(seed, 2, 2))
        return family, contamination.contaminate(clean, spec), config

    def run_pass(self, state, tracer, mark):
        family, data, config = state
        out = PassResult(attempted=1)
        try:
            result = fitting.fit(family, data, config)
        except Exception as exc:
            out.fail(type(exc).__name__)
            out.problems.append(f"hat fit raised {exc!r}")
            return out
        theta = [float(v) for v in result.theta_natural]
        if result.error is not None or not _finite(theta):
            out.fail(result.error or "nonfinite")
            out.problems.append(f"hat fit failed: error={result.error!r}")
            return out
        out.mmd_fits_ok = 1
        scenario = models.get_scenario(self.scenario)
        err = param_error(theta, scenario.truth_natural, scenario.report_mask)
        out.errors["err_gauss"] = err
        if err > ERR_CEILINGS[self.scenario]:
            out.problems.append(f"err_gauss {err:.4f} above ceiling "
                                f"{ERR_CEILINGS[self.scenario]}")
        out.digest = json.dumps([float(v).hex() for v in result.theta_raw])
        return out


class CliCsv:
    name = "cli_csv"
    why = ("CSV write and load dominate: simulate, contaminate, fit via cli.main "
           "at n=100,000, arrays larger than L2; bypasses pair cache, pair sampler, "
           "pool and objective")
    n = 100_000
    iters = 100

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        config = os.path.join(self.workdir, "fit_config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"iters": self.iters, "seed": derive_seed(seed, 3, 2)}, fh)
        clean = os.path.join(self.workdir, "clean.csv")
        dirty = os.path.join(self.workdir, "dirty.csv")
        fit_json = os.path.join(self.workdir, "fit.json")
        steps = [
            ("simulate", ["simulate", "--scenario", "gauss_linear_laplace",
                          "--n", str(self.n), "--seed", str(derive_seed(seed, 3, 0)),
                          "--out", clean]),
            ("contaminate", ["contaminate", "--in", clean, "--eps", "0.03",
                             "--recipe", "type_y", "--seed", str(derive_seed(seed, 3, 1)),
                             "--out", dirty]),
            ("fit", ["fit", "--in", dirty, "--model", "gaussian_linear",
                     "--estimator", "tilde", "--config", config, "--out", fit_json]),
        ]
        return steps, [clean, dirty, fit_json, dirty[:-4] + ".contamination.json"], fit_json

    def clear(self, state):
        """Remove the previous pass's files so every pass starts alike."""
        for path in state[1]:
            if os.path.exists(path):
                os.remove(path)

    def run_pass(self, state, tracer, mark):
        steps, _, fit_json = state
        out = PassResult()
        for i, (sub, argv) in enumerate(steps):
            if i:
                mark()
            out.attempted += 1
            sink = io.StringIO()
            try:
                with tracer.span(f"cli.main.{sub}"), contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            except Exception as exc:
                out.fail(type(exc).__name__)
                out.problems.append(f"cli {sub} raised {exc!r}")
                return out
            if code != 0:
                out.fail(f"exit{code}")
                out.extra["nonzero_exits"] = out.extra.get("nonzero_exits", 0) + 1
                out.problems.append(f"cli {sub} exited {code}: {sink.getvalue().strip()}")
                return out
        with open(fit_json, encoding="utf-8") as fh:
            result = json.load(fh)
        theta = result.get("theta_natural")
        if result.get("error") is not None or not _finite(theta) \
                or result.get("iterations") != self.iters:
            out.problems.append(
                f"fit.json: error={result.get('error')!r}, "
                f"iterations={result.get('iterations')}, finite={_finite(theta)}")
        else:
            out.mmd_fits_ok = 1
        out.digest = json.dumps(theta)
        return out

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name, workdir):
    if name == "plan_tilde":
        return PlanTilde()
    if name == "hat_fit":
        return HatFit()
    if name == "cli_csv":
        return CliCsv(workdir)
    raise KeyError(name)


WORKLOADS = ("plan_tilde", "hat_fit", "cli_csv")
