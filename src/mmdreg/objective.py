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
from .kernels import _point_parts, _x_kernel, _y_kernel, elementwise, gram
from .models import _MAX_TABLE_CELLS, Dataset, _count

_NEGATIVE_TOL = 1e-12


def _check_gram_side(n):
    # n x n is the largest Gram the caller builds; n up to 3,162 passes
    if n * n > _MAX_TABLE_CELLS:
        raise NumericalError(
            f"a {n} x {n} Gram matrix needs {n * n:.3g} cells, above the cap of {_MAX_TABLE_CELLS}"
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


def _point_count(kernel, points):
    # Point sets arrive here from the caller, so they are checked here.
    parts = [np.asarray(p, dtype=float) for p in _point_parts(kernel, points)]
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise DomainError("kernel evaluation requires finite points")
    count = parts[0].shape[0] if parts[0].ndim > 0 else 1
    if count == 0:
        raise DomainError("a kernel discrepancy needs at least one point per set")
    return count


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
            ``models._MAX_TABLE_CELLS`` cells; checked before anything is built.
    """
    na = _point_count(kernel, points_a)
    nb = _point_count(kernel, points_b)
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


@dataclass(frozen=True)
class ObjectiveValue:
    """An empirical objective evaluation."""

    value: float
    std_error: float
    mode: str


def _check_estimator(estimator):
    if estimator not in ("tilde", "hat"):
        raise ConfigError(f"estimator must be 'tilde' or 'hat', got {estimator!r}")


def _dataset_for(family, dataset):
    if not isinstance(dataset, Dataset):
        raise DomainError("an estimator objective needs a Dataset")
    if dataset.kind != family.kind:
        raise DomainError(
            f"family {family.name!r} expects {family.kind!r} responses, dataset has {dataset.kind!r}"
        )
    return dataset


def objective(family, theta, dataset, kernel, estimator="tilde", *, mode=None, budget=100, rng=None):
    """Empirical objective over a dataset.

    ``estimator="tilde"`` sums the diagonal losses, at linear cost;
    ``estimator="hat"`` sums the cross losses over all ordered covariate
    pairs, at quadratic cost, and requires a product kernel.

    In Monte Carlo mode the standard error refers to the whole sum and
    is estimated across the ``budget`` independent replicates; it is nan
    when ``budget == 1``.  Monte Carlo draws come from ``rng``, a fresh
    unseeded generator when it is omitted.  The quadratic objective
    builds ``n x n`` matrices, and exact mode a ``k x k`` one over the
    response support; either raises ``NumericalError`` before building
    one past ``models._MAX_TABLE_CELLS`` cells.  A ``budget`` above that
    cap is refused with ``ConfigError`` before anything is built.
    """
    dataset = _dataset_for(family, dataset)
    theta = family.check_theta(theta)
    mode = _resolve_mode(family, mode)
    _check_estimator(estimator)
    budget = _count(budget, "budget", 1)
    if budget > _MAX_TABLE_CELLS:
        raise ConfigError(f"budget must be at most the cap of {_MAX_TABLE_CELLS} cells, got {budget}")
    ky = _y_kernel(kernel)
    if estimator == "hat":
        x_kernel = _x_kernel(kernel)
        _check_gram_side(dataset.n)
        kx = gram(x_kernel, dataset.x, dataset.x)
    if mode == "exact":
        values, probs = family.support(theta, dataset.x)
        _check_gram_side(values.size)
        kyy = gram(ky, values, values)
        kdata = gram(ky, values, np.asarray(dataset.y, dtype=float))
        if estimator == "tilde":
            first = np.einsum("nk,nk->n", probs @ kyy, probs)
            second = np.einsum("nk,kn->n", probs, kdata)
            return ObjectiveValue(float(np.sum(first - 2.0 * second)), 0.0, "exact")
        cross = probs @ kyy @ probs.T
        return ObjectiveValue(float(np.sum(kx * (cross - 2.0 * (probs @ kdata)))), 0.0, "exact")
    rng = np.random.default_rng(rng)
    state = family._at(*family._args(theta, dataset.x))  # read by every draw
    totals = np.empty(budget)
    for p in range(totals.size):
        ya = family._draw(state, rng)
        yb = family._draw(state, rng)
        if estimator == "tilde":
            totals[p] = (elementwise(ky, ya, yb) - 2.0 * elementwise(ky, ya, dataset.y)).sum()
        else:
            totals[p] = np.sum(kx * (gram(ky, ya, yb) - 2.0 * gram(ky, ya, dataset.y)))
    se = float(totals.std(ddof=1) / np.sqrt(totals.size)) if totals.size >= 2 else float("nan")
    return ObjectiveValue(float(totals.mean()), se, "mc")
