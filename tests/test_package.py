"""The package's public names, what importing it loads, and the fit
defaults and config keys the README states."""

import ast
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mmdreg
from mmdreg.bench import _PLAN_KEYS
from mmdreg.fitting import DEFAULT_ITERS, FitConfig

SRC = Path(__file__).resolve().parent.parent / "src"
README = (SRC.parent / "README.md").read_text(encoding="utf-8")


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here
    missing = [name for name in mmdreg.__all__ if not hasattr(mmdreg, name)]
    assert missing == []
    assert len(set(mmdreg.__all__)) == len(mmdreg.__all__)


def _fresh(script, cwd):
    # the printed words of a script run in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_only_what_runs(tmp_path):
    # scipy.stats is not used at all; scipy.special only by the families
    # other than gaussian_linear, scipy.spatial only by the hat pair cache,
    # and the process pool only by a parallel bench
    script = """
import sys
import mmdreg, mmdreg.cli
flags = []
def loaded(*names):
    flags.extend(name in sys.modules for name in names)
loaded("scipy", "concurrent.futures.process")
for argv in (["simulate", "--scenario", "gauss_linear_laplace", "--n", "80", "--out", "a.csv"],
             ["contaminate", "--in", "a.csv", "--eps", "0.1", "--out", "b.csv"],
             ["fit", "--in", "b.csv", "--model", "gaussian_linear", "--out", "fit_out.json"]):
    assert mmdreg.cli.main(argv) == 0
loaded("scipy", "scipy.special")
_, ds = mmdreg.simulate_dataset("gauss_linear_laplace", 50, 1)
mmdreg.build_pair_cache(mmdreg.default_covariate_kernel(), ds.x, 50)
loaded("scipy.spatial", "scipy.stats")
print(*flags)
"""
    words = _fresh(script, tmp_path)
    assert words[-6:] == ["False", "False", "False", "False", "True", "False"], words
    assert (tmp_path / "fit_out.json").exists()


@pytest.mark.parametrize("build, loads", [
    ("ExperimentPlan(scenario='gauss_linear_laplace', **PLAN)", False),
    ("ExperimentPlan(scenario='gamma_synthetic', **PLAN)", True),
    ("ExperimentPlan(scenario='heckman_synthetic', **PLAN)", True),
    ("get_family('logistic', 2)", True),
    ("get_family('poisson', 2)", True),
    ("get_family('mixture', 2)", True),
], ids=["gauss-plan", "gamma-plan", "heckman-plan", "logistic", "poisson", "mixture"])
def test_families_load_special_when_built(build, loads, tmp_path):
    # every family that calls scipy.special imports it when built, so a
    # bench plan's parent holds it before run_plan forks its workers
    script = f"""
import sys
from mmdreg import ExperimentPlan, get_family
PLAN = dict(n_values=(50,), epsilons=(0.0,), recipes=(), estimators=("tilde",),
            replications=1, master_seed=0)
{build}
print("scipy.special" in sys.modules, "scipy.stats" in sys.modules)
"""
    assert _fresh(script, tmp_path) == [str(loads), "False"]


def test_special_helpers_work_in_a_fresh_interpreter(tmp_path):
    # the module-level helpers import scipy.special themselves, with no
    # family built
    script = """
import sys
from mmdreg import models
print("scipy.special" in sys.modules)
print(*[repr(float(models._inverse_mills(a))) for a in (-3.0, 0.0, 2.0)])
print(*[repr(float(models._poisson_ppf(q, 3.5))) for q in (0.1, 0.5, 0.99)])
"""
    words = _fresh(script, tmp_path)
    assert words[0] == "False"
    root2 = math.sqrt(2.0)
    mills = [math.exp(-0.5 * a * a) / (root2 * math.sqrt(math.pi) * 0.5 * math.erfc(-a / root2))
             for a in (-3.0, 0.0, 2.0)]
    assert [float(w) for w in words[1:4]] == pytest.approx(mills, rel=1e-12)
    # the smallest k whose Poisson(3.5) cdf reaches q, summed directly
    cdf = list(itertools.accumulate(math.exp(-3.5) * 3.5**k / math.factorial(k) for k in range(30)))
    want = [float(next(k for k, c in enumerate(cdf) if c >= q)) for q in (0.1, 0.5, 0.99)]
    assert [float(w) for w in words[4:]] == want


# bound but unused on purpose: perfbench/probes.py wraps gradients.gram
_UNUSED_IMPORT_ALLOWED = {("gradients", "gram")}


def test_no_unused_imports():
    # __init__ binds its imports to re-export them
    unused = []
    paths = sorted((SRC / "mmdreg").glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in bound.items()
            if name not in used and (path.stem, name) not in _UNUSED_IMPORT_ALLOWED
        ]
    assert unused == []


def test_only_kernels_reads_a_spec():
    # kernels.py is the one interpreter of a KernelSpec: every other
    # module asks it, and reads no spec's family, child or beta
    read = []
    for path in sorted((SRC / "mmdreg").glob("*.py")):
        if path.stem == "kernels":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("family", "child", "beta")]
    assert read == []


def test_readme_states_the_fit_defaults():
    # the README's stated step counts track the code
    stated = re.search(r"default step counts are `iters` = (\d+) for `tilde` and (\d+) "
                       r"for `hat`\s+\(`fitting.DEFAULT_ITERS`\)", README)
    assert stated is not None
    assert {"tilde": int(stated[1]), "hat": int(stated[2])} == DEFAULT_ITERS


def test_readme_states_the_config_keys():
    # the README's key lists track the fit config's fields and the plan's keys
    fit_keys = re.search(r"takes exactly `FitConfig`'s field names:(.*?)\(a plan", README, re.S)
    plan_keys = re.search(r"A plan takes exactly the keys(.*?)\(", README, re.S)
    assert fit_keys is not None and plan_keys is not None
    assert re.findall(r"`(\w+)`", fit_keys[1]) == [f.name for f in fields(FitConfig)]
    assert sorted(re.findall(r"`(\w+)`", plan_keys[1])) == sorted(_PLAN_KEYS)


def _perfbench_probes():
    # perfbench/probes.py as the benchmark loads it, unedited
    path = SRC.parent / "perfbench" / "probes.py"
    spec = importlib.util.spec_from_file_location("perfbench_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_probes_resolve():
    # the traced benchmark wraps these names: a rename or deletion here
    # fails this test rather than every traced benchmark run
    probes = _perfbench_probes()
    missing = [f"{owner.__name__}.{attr}" for owners, attr, _, _ in probes.PROBES
               for owner in owners if not hasattr(owner, attr)]
    assert missing == []
    families = mmdreg.models._FAMILY_REGISTRY.values()
    for attr, _, _ in probes.METHOD_PROBES:
        assert any(attr in cls.__dict__ for cls in families), attr
    _, ds = mmdreg.simulate_dataset("gauss_linear_laplace", 50, 1)
    cache = mmdreg.build_pair_cache(mmdreg.default_covariate_kernel(), ds.x, 50)
    assert probes._cache_mb(cache) > 0.0
