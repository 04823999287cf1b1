"""The reference implementations stay independent of the code they check.

``tests/oracles.py`` is parsed, not imported: it may take public
building blocks from the package (``gram``, ``Dataset``, a family's
``support`` and score), but nothing from ``mmdreg.objective``,
``mmdreg.gradients`` or ``mmdreg.dataio``, which the tests check against
it, and no private package name.  The scalar kernel evaluator uses no
package kernel code.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
CHECKED = {"objective", "gradients", "dataio"}


def _imports(tree):
    """(module, name) for every imported name; ``name`` is None for ``import m``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles must not use relative imports"
            out += [(node.module, alias.name) for alias in node.names]
    return out


def _package_parts(module, name):
    parts = module.split(".") + ([name] if name else [])
    return parts[1:] if parts[0] == "mmdreg" else None


def test_oracles_import_nothing_checked_or_private():
    tree = ast.parse(ORACLES.read_text())
    seen = []
    for module, name in _imports(tree):
        parts = _package_parts(module, name)
        if parts is None:
            continue
        seen.append(".".join(parts))
        assert not CHECKED & set(parts), f"oracles import {module}.{name}"
        assert not any(p.startswith("_") for p in parts), f"oracles import {module}.{name}"
    assert seen, "expected the oracles to use some public package names"


def test_scalar_kernel_uses_no_package_kernel_code():
    tree = ast.parse(ORACLES.read_text())
    package_names = {name for module, name in _imports(tree) if _package_parts(module, name)}
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for fname in ("kernel_value", "_psi"):
        used = {n.id for n in ast.walk(funcs[fname]) if isinstance(n, ast.Name)}
        assert not used & package_names, f"{fname} uses {sorted(used & package_names)}"
