"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import mmdreg

SRC = Path(__file__).resolve().parent.parent / "src"


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
