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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .models import Dataset, check_seed

SCHEMES = ("adversarial", "huber")
RECIPES = ("type_x", "type_y", "selection_flip", "custom")

# Replacement-draw centres used when the spec does not set one.
_DEFAULT_MEANS = {"type_x": 5.0, "type_y": 10.0}

_CUSTOM_SAMPLERS = {}


def register_custom_sampler(sampler_id, fn):
    """Register ``fn(x_rows, y_rows, rng) -> (x_rows, y_rows)`` under an id.

    The callable receives copies of the selected rows and must return
    replacement arrays of the same shapes.  Registering an existing id
    overwrites it.
    """
    if not isinstance(sampler_id, str) or not sampler_id:
        raise ConfigError("sampler id must be a non-empty string")
    if not callable(fn):
        raise ConfigError("custom sampler must be callable")
    _CUSTOM_SAMPLERS[sampler_id] = fn


@dataclass(frozen=True)
class ContaminationSpec:
    """How to corrupt a dataset: rate, row-selection scheme, and recipe."""

    epsilon: float
    scheme: str = "adversarial"
    recipe: str = "type_y"
    mean: float = None
    seed: int = 0
    sampler_id: str = None

    def __post_init__(self):
        eps = self.epsilon
        if not isinstance(eps, (int, float, np.floating)) or isinstance(eps, bool):
            raise ConfigError(f"epsilon must be a real number, got {eps!r}")
        if not (0.0 <= float(eps) < 1.0) or not math.isfinite(float(eps)):
            raise ConfigError(f"epsilon must lie in [0, 1), got {eps!r}")
        object.__setattr__(self, "epsilon", float(eps))
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {SCHEMES}")
        if self.recipe not in RECIPES:
            raise ConfigError(f"unknown recipe {self.recipe!r}; known: {RECIPES}")
        if self.mean is not None:
            if self.recipe not in _DEFAULT_MEANS:
                raise ConfigError(f"recipe {self.recipe!r} takes no mean")
            if not math.isfinite(float(self.mean)):
                raise ConfigError("recipe mean must be finite")
            object.__setattr__(self, "mean", float(self.mean))
        if self.recipe == "custom":
            if not isinstance(self.sampler_id, str) or not self.sampler_id:
                raise ConfigError("custom recipe requires a sampler_id")
        elif self.sampler_id is not None:
            raise ConfigError("sampler_id is only valid with the custom recipe")
        check_seed(self.seed)

    def resolved_mean(self):
        if self.recipe not in _DEFAULT_MEANS:
            return None
        return self.mean if self.mean is not None else _DEFAULT_MEANS[self.recipe]

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


def spec_from_config(cfg):
    """Build a spec from a config mapping with keys ``eps``, ``scheme``,
    ``recipe``, ``recipe_mean``, ``seed``, ``sampler_id``."""
    if not isinstance(cfg, dict):
        raise ConfigError("contamination config must be a mapping")
    known = {"eps", "scheme", "recipe", "recipe_mean", "seed", "sampler_id"}
    extra = set(cfg) - known
    if extra:
        raise ConfigError(f"unknown contamination config keys: {sorted(extra)}")
    if "eps" not in cfg:
        raise ConfigError("contamination config requires 'eps'")
    kwargs = {"epsilon": cfg["eps"]}
    for key, field_name in (
        ("scheme", "scheme"),
        ("recipe", "recipe"),
        ("recipe_mean", "mean"),
        ("seed", "seed"),
        ("sampler_id", "sampler_id"),
    ):
        if key in cfg and cfg[key] is not None:
            kwargs[field_name] = cfg[key]
    return ContaminationSpec(**kwargs)


def spec_to_config(spec):
    out = {"eps": spec.epsilon, "scheme": spec.scheme, "recipe": spec.recipe,
           "seed": spec.seed}
    if spec.mean is not None:
        out["recipe_mean"] = spec.mean
    if spec.sampler_id is not None:
        out["sampler_id"] = spec.sampler_id
    return out


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
    - ``custom``: delegates the touched rows to a registered sampler.
    """
    if not isinstance(dataset, Dataset):
        raise ConfigError("contaminate expects a Dataset")
    if not isinstance(spec, ContaminationSpec):
        raise ConfigError("contaminate expects a ContaminationSpec")
    if spec.recipe == "type_y" and dataset.kind != "real":
        raise DomainError(
            f"type_y replaces real responses; dataset kind is {dataset.kind!r}"
        )
    if spec.recipe == "selection_flip" and dataset.kind != "censored":
        raise DomainError(
            "selection_flip needs censored responses; dataset kind is "
            f"{dataset.kind!r}"
        )
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
        elif spec.recipe == "selection_flip":
            y[idx, 1] = 1.0 - y[idx, 1]
        else:
            try:
                fn = _CUSTOM_SAMPLERS[spec.sampler_id]
            except KeyError:
                raise ConfigError(
                    f"no custom sampler registered under {spec.sampler_id!r}"
                ) from None
            new_x, new_y = fn(x[idx].copy(), y[idx].copy(), rng)
            new_x = np.asarray(new_x, dtype=float)
            new_y = np.asarray(new_y)
            if new_x.shape != x[idx].shape or new_y.shape != y[idx].shape:
                raise DomainError("custom sampler changed the replacement shapes")
            x[idx] = new_x
            y[idx] = new_y

    record = {
        "epsilon": spec.epsilon,
        "scheme": spec.scheme,
        "recipe": spec.recipe,
        "mean": spec.resolved_mean(),
        "seed": int(spec.seed),
        "indices": [int(i) for i in idx],
    }
    if spec.sampler_id is not None:
        record["sampler_id"] = spec.sampler_id
    meta = dict(dataset.meta)
    meta["contamination"] = record
    return Dataset(x=x, y=y, kind=dataset.kind, meta=meta)
