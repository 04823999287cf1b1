"""The package's public names, what importing it loads, and the fit
defaults and config keys the README states."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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


def test_import_loads_only_what_runs():
    # scipy.stats is not used at all; scipy.spatial only by the hat pair cache
    script = """
import sys
import mmdreg, mmdreg.cli
print("scipy.stats" in sys.modules, "scipy.spatial" in sys.modules)
_, ds = mmdreg.simulate_dataset("gauss_linear_laplace", 50, 1)
mmdreg.build_pair_cache(mmdreg.default_covariate_kernel(), ds.x, 50)
print("scipy.spatial" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


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
