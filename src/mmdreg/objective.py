"""Kernel discrepancy objectives for model fitting.

The quadratic-cost objective sums, over all ordered covariate pairs, the
expected kernel between model draws at one covariate and the observed
response at the other; the linear-cost objective keeps only the diagonal
terms.  Their difference is a sum over unordered pairs weighted by the
covariate kernel.

Families with finite (or truncatable) response support evaluate every
expectation by summation over the support ("exact" mode); the others use
Monte Carlo draws and report a standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .kernels import elementwise, gram
from .models import Dataset

_NEGATIVE_TOL = 1e-12
# Largest Gram matrix, in cells, that the quadratic objective and
# mmd_sq_vstat build: 80 MB in float64, n up to 3,162 for a square one.
_GRAM_MAX_CELLS = 10_000_000


def _check_gram_side(n):
    # n x n is the largest Gram the caller builds
    if n * n > _GRAM_MAX_CELLS:
        raise NumericalError(
            f"a {n} x {n} Gram matrix needs {n * n:.3g} cells, above the cap of {_GRAM_MAX_CELLS}"
        )


def _as_weights(w, count, side):
    if w is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(w, dtype=float)
    if w.shape != (count,):
        raise DomainError(f"weights_{side} must have shape ({count},), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise DomainError(f"weights_{side} must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DomainError(f"weights_{side} must sum to 1")
    return w


def _point_count(points):
    # Point sets arrive here from the caller, so they are checked here.
    parts = points if isinstance(points, tuple) else (points,)
    if not all(np.all(np.isfinite(np.asarray(p, dtype=float))) for p in parts):
        raise DomainError("kernel evaluation requires finite points")
    arr = np.asarray(parts[0])
    return arr.shape[0] if arr.ndim > 0 else 1


def mmd_sq_vstat(kernel, points_a, points_b, weights_a=None, weights_b=None):
    """Squared kernel discrepancy between two weighted point sets.

    Computes ``w'K_aa w - 2 w'K_ab v + v'K_bb v`` for probability
    weights ``w, v`` (uniform when omitted).  Tiny negative results from
    rounding, down to ``-1e-12``, are clamped to zero; anything more
    negative raises, since it indicates a non-PSD kernel.

    Args:
        kernel: a KernelSpec; for product kernels the point sets are
            pairs ``(x_points, y_points)``.
        points_a: first point set.
        points_b: second point set.
        weights_a: optional probability weights for ``points_a``.
        weights_b: optional probability weights for ``points_b``.

    Returns:
        Nonnegative float.

    Raises:
        NumericalError: when a Gram matrix would exceed
            ``_GRAM_MAX_CELLS`` cells; checked before anything is built.
    """
    na = _point_count(points_a)
    nb = _point_count(points_b)
    wa = _as_weights(weights_a, na, "a")
    wb = _as_weights(weights_b, nb, "b")
    _check_gram_side(max(na, nb))
    k_aa = gram(kernel, points_a, points_a)
    k_bb = gram(kernel, points_b, points_b)
    k_ab = gram(kernel, points_a, points_b)
    value = float(wa @ k_aa @ wa - 2.0 * (wa @ k_ab @ wb) + wb @ k_bb @ wb)
    if value < -_NEGATIVE_TOL:
        raise NumericalError(f"squared discrepancy {value:.3e} is negative beyond tolerance")
    return max(value, 0.0)


def _resolve_mode(family, mode):
    if mode is None:
        return "exact" if family.exact else "mc"
    if mode not in ("exact", "mc"):
        raise ConfigError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if mode == "exact" and not family.exact:
        raise ConfigError(f"family {family.name!r} has no exact mode")
    return mode


def _resolve_rng(rng, seed):
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng()


def _check_budget(budget):
    if not (isinstance(budget, (int, np.integer)) and budget >= 1):
        raise ConfigError(f"budget must be a positive integer, got {budget!r}")
    return int(budget)


def _y_kernel(kernel):
    return kernel.y_kernel if kernel.family == "product" else kernel


def _require_product(kernel):
    if kernel.family != "product":
        raise ConfigError("a product kernel (x_kernel, y_kernel) is required here")
    return kernel


def _summarize(totals):
    totals = np.asarray(totals)
    value = float(totals.mean())
    if totals.size >= 2:
        se = float(totals.std(ddof=1) / np.sqrt(totals.size))
    else:
        se = float("nan")
    return value, se


@dataclass(frozen=True)
class ObjectiveValue:
    """An empirical objective evaluation."""

    value: float
    std_error: float
    mode: str
    estimator: str


def _exact_tables(family, theta, dataset, ky):
    values, probs = family.support(theta, dataset.x)
    kyy = gram(ky, values, values)
    kdata = gram(ky, values, np.asarray(dataset.y, dtype=float))
    return probs, kyy, kdata


def _dataset_for(family, dataset):
    if not isinstance(dataset, Dataset):
        raise DomainError("an estimator objective needs a Dataset")
    if dataset.kind != family.kind:
        raise DomainError(
            f"family {family.name!r} expects {family.kind!r} responses, dataset has {dataset.kind!r}"
        )
    return dataset


def objective(family, theta, dataset, kernel, estimator="tilde", *, mode=None, budget=100, rng=None, seed=None):
    """Empirical objective over a dataset.

    ``estimator="tilde"`` sums the diagonal losses, at linear cost;
    ``estimator="hat"`` sums the cross losses over all ordered covariate
    pairs, at quadratic cost, and requires a product kernel.

    In Monte Carlo mode the standard error refers to the whole sum and
    is estimated across the ``budget`` independent replicates; it is nan
    when ``budget == 1``.  The quadratic objective builds ``n x n``
    matrices and raises ``NumericalError`` before building one past
    ``_GRAM_MAX_CELLS`` cells.
    """
    dataset = _dataset_for(family, dataset)
    theta = family.check_theta(theta)
    mode = _resolve_mode(family, mode)
    if estimator == "tilde":
        ky = _y_kernel(kernel)
        if mode == "exact":
            probs, kyy, kdata = _exact_tables(family, theta, dataset, ky)
            first = np.einsum("nk,nk->n", probs @ kyy, probs)
            second = np.einsum("nk,kn->n", probs, kdata)
            return ObjectiveValue(float(np.sum(first - 2.0 * second)), 0.0, "exact", "tilde")
        rng = _resolve_rng(rng, seed)
        budget = _check_budget(budget)
        totals = np.empty(budget)
        for p in range(budget):
            ya = family.sample(theta, dataset.x, rng)
            yb = family.sample(theta, dataset.x, rng)
            terms = elementwise(ky, ya, yb) - 2.0 * elementwise(ky, ya, dataset.y)
            totals[p] = terms.sum()
        value, se = _summarize(totals)
        return ObjectiveValue(value, se, "mc", "tilde")
    if estimator != "hat":
        raise ConfigError(f"estimator must be 'tilde' or 'hat', got {estimator!r}")
    kernel = _require_product(kernel)
    _check_gram_side(dataset.n)
    kx = gram(kernel.x_kernel, dataset.x, dataset.x)
    ky = kernel.y_kernel
    if mode == "exact":
        probs, kyy, kdata = _exact_tables(family, theta, dataset, ky)
        cross = probs @ kyy @ probs.T
        data = probs @ kdata
        return ObjectiveValue(float(np.sum(kx * (cross - 2.0 * data))), 0.0, "exact", "hat")
    rng = _resolve_rng(rng, seed)
    budget = _check_budget(budget)
    totals = np.empty(budget)
    for p in range(budget):
        ya = family.sample(theta, dataset.x, rng)
        yb = family.sample(theta, dataset.x, rng)
        cross = gram(ky, ya, yb)
        data = gram(ky, ya, dataset.y)
        totals[p] = np.sum(kx * (cross - 2.0 * data))
    value, se = _summarize(totals)
    return ObjectiveValue(value, se, "mc", "hat")
