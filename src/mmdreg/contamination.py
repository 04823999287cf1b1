"""Outlier injection for benchmark datasets.

Two row-selection schemes are provided.  The adversarial scheme
replaces exactly ``floor(epsilon * n)`` rows, drawn uniformly among
subsets of that size; the Huber scheme replaces each row independently
with probability ``epsilon``, so the touched count is Binomial.  On the
selected rows a recipe perturbs a single coordinate (the first
covariate, the response, or the selection indicator) and every other
entry of the dataset is left bit-identical.

Row selection and replacement values are drawn from two independent
streams spawned from the same seed, so two specs that differ only in
their recipe touch the same index set.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .models import Dataset, _count, _real

SCHEMES = ("adversarial", "huber")
RECIPES = ("type_x", "type_y", "selection_flip")
# The response kind a recipe needs; type_x takes any.
RECIPE_KINDS = {"type_y": "real", "selection_flip": "censored"}

# Replacement-draw centres used when the spec does not set one.
_DEFAULT_MEANS = {"type_x": 5.0, "type_y": 10.0}


@dataclass(frozen=True)
class ContaminationSpec:
    """How to corrupt a dataset: rate, row-selection scheme, and recipe."""

    epsilon: float
    scheme: str = "adversarial"
    recipe: str = "type_y"
    mean: float = None
    seed: int = 0

    def __post_init__(self):
        if not (_real(self.epsilon) and 0.0 <= self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be a real number in [0, 1), got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {SCHEMES}")
        if self.recipe not in RECIPES:
            raise ConfigError(f"unknown recipe {self.recipe!r}; known: {RECIPES}")
        if self.mean is not None:
            if self.recipe not in _DEFAULT_MEANS:
                raise ConfigError(f"recipe {self.recipe!r} takes no mean")
            if not _real(self.mean):
                raise ConfigError(f"recipe mean must be a finite real number, got {self.mean!r}")
            object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))

    def resolved_mean(self):
        if self.recipe not in _DEFAULT_MEANS:
            return None
        return self.mean if self.mean is not None else _DEFAULT_MEANS[self.recipe]


def _check_recipe_kind(recipe, kind, error=DomainError):
    """Raise ``error`` unless ``recipe`` applies to responses of ``kind``."""
    need = RECIPE_KINDS.get(recipe, kind)
    if kind != need:
        raise error(f"recipe {recipe!r} needs {need} responses, got {kind!r}")


def _select_rows(scheme, epsilon, n, rng):
    if scheme == "adversarial":
        # The tiny shift absorbs downward rounding in eps * n (e.g.
        # 0.29 * 100 = 28.999...); it cannot promote a genuinely
        # fractional product to the next integer.
        m = int(math.floor(epsilon * n + 1e-9))
        if m == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(n, size=m, replace=False).astype(np.int64))
    return np.flatnonzero(rng.random(n) < epsilon).astype(np.int64)


def contaminate(dataset, spec):
    """Corrupt a dataset according to a :class:`ContaminationSpec`.

    Returns a new dataset whose rows outside the touched index set are
    bit-identical to the input.  The touched set, sorted, is recorded in
    ``meta["contamination"]["indices"]`` together with the spec fields.

    Recipes:

    - ``type_x``: the first covariate column is redrawn from a unit
      normal centred at the recipe mean (default 5.0); valid for every
      response kind.
    - ``type_y``: the response is redrawn from a unit normal centred at
      the recipe mean (default 10.0); real responses only.
    - ``selection_flip``: the selection indicator is flipped and the
      outcome kept, so previously selected rows violate the model's
      "unselected implies zero" structure on purpose; censored
      responses only.
    """
    if not isinstance(dataset, Dataset):
        raise ConfigError("contaminate expects a Dataset")
    if not isinstance(spec, ContaminationSpec):
        raise ConfigError("contaminate expects a ContaminationSpec")
    _check_recipe_kind(spec.recipe, dataset.kind)
    n = dataset.x.shape[0]
    idx_ss, val_ss = np.random.SeedSequence(spec.seed).spawn(2)
    idx = _select_rows(spec.scheme, spec.epsilon, n, np.random.default_rng(idx_ss))

    x = dataset.x.copy()
    y = dataset.y.copy()
    rng = np.random.default_rng(val_ss)
    if idx.size:
        if spec.recipe == "type_x":
            x[idx, 0] = rng.normal(spec.resolved_mean(), 1.0, size=idx.size)
        elif spec.recipe == "type_y":
            y[idx] = rng.normal(spec.resolved_mean(), 1.0, size=idx.size)
        else:
            y[idx, 1] = 1.0 - y[idx, 1]

    record = {
        "epsilon": spec.epsilon,
        "scheme": spec.scheme,
        "recipe": spec.recipe,
        "mean": spec.resolved_mean(),
        "seed": spec.seed,
        "indices": [int(i) for i in idx],
    }
    meta = dict(dataset.meta)
    meta["contamination"] = record
    return Dataset(x=x, y=y, kind=dataset.kind, meta=meta)
