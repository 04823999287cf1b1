"""Model fitting: AdaGrad on the discrepancy objectives, plus the
classical baselines used for initialization and comparison.

The stochastic fits are deterministic for a fixed seed.  Draw and
pair-sampling randomness run on separate child streams, so the
linear-cost and quadratic-cost estimators consume identical model draws
under the same seed; with a very local covariate kernel their iterates
then agree to the pair terms' (vanishing) weight.

Baselines: ordinary least squares, per-family maximum likelihood via
IRLS-style Newton iterations, the classical two-step estimator for the
selection family, and a short deterministic EM for the mixture family.
No convergence test is applied to the stochastic fits; the iteration
count (``DEFAULT_ITERS`` unless ``iters`` is set) is the stopping rule,
and the result, the last iterate, is an approximate minimizer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .gradients import build_pair_cache, grad_objective_estimate
from .kernels import (
    KernelSpec,
    _x_kernel,
    default_covariate_kernel,
    default_response_kernel,
    product_kernel,
)
from .models import _MAX_TABLE_CELLS, _count, _inverse_mills, _real, _special
from .objective import _check_estimator, _check_gram_side, _dataset_for, objective

ESTIMATORS = ("tilde", "hat", "mle", "ols")

DEFAULT_ETA = 0.1
# added to AdaGrad's root sum of squares so a zero gradient takes no step
ADAGRAD_EPS = 1e-8
# Chosen by a fresh-seed study (CHANGES.md): fewer steps cost more than
# 5% of the error on some cell.
DEFAULT_ITERS = {"tilde": 1000, "hat": 2000}

_NEWTON_CAP = 100
_DIVERGENCE_NORM = 30.0


def default_kernel():
    """Product of the default covariate and response kernels."""
    return product_kernel(default_covariate_kernel(), default_response_kernel())


@dataclass(frozen=True)
class FitConfig:
    """Settings for one fit.

    ``estimator`` selects the linear-cost ("tilde") or quadratic-cost
    ("hat") discrepancy fit, or a baseline ("mle", "ols").  ``iters``
    defaults per estimator to ``DEFAULT_ITERS``.  ``m1`` and
    ``m2`` are the deterministic and sampled pair budgets of the
    quadratic gradient, both defaulting to ``n``.  ``init`` is
    ``"mle"`` (baseline start with fallback to zero) or an explicit raw
    vector, kept as a tuple of floats so that configs compare and hash.
    The field names are the keys a fit config takes; AdaGrad's offset is
    not one of them but ``ADAGRAD_EPS``.
    """

    estimator: str = "tilde"
    kernel: Optional[KernelSpec] = None
    eta: float = DEFAULT_ETA
    iters: Optional[int] = None
    m1: Optional[int] = None
    m2: Optional[int] = None
    seed: int = 0
    init: Union[str, Sequence[float]] = "mle"
    trace_objective_every: int = 0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if not (self.kernel is None or isinstance(self.kernel, KernelSpec)):
            raise ConfigError(f"kernel must be a KernelSpec, got {self.kernel!r}")
        if self.estimator == "hat" and self.kernel is not None:
            _x_kernel(self.kernel)  # refused here, before a plan runs any fit
        if not (_real(self.eta) and self.eta > 0.0):
            raise ConfigError(f"eta must be positive and finite, got {self.eta!r}")
        for name, least in (("iters", 1), ("m1", 0), ("m2", 0)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _count(getattr(self, name), name, least))
        if self.iters is not None and 3 * self.iters > _MAX_TABLE_CELLS:
            raise ConfigError(
                f"iters must be at most {_MAX_TABLE_CELLS // 3}: a fit's trace holds 3 cells "
                f"a step, capped at {_MAX_TABLE_CELLS} cells; got {self.iters}"
            )
        if isinstance(self.init, str):
            if self.init != "mle":
                raise ConfigError(f"init must be 'mle' or a vector, got {self.init!r}")
        else:
            try:
                arr = np.asarray(self.init, dtype=float)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ConfigError(f"custom init must be a finite 1-D vector, got {self.init!r}")
            object.__setattr__(self, "init", tuple(arr.tolist()))
        for name in ("seed", "trace_objective_every"):
            object.__setattr__(self, name, _count(getattr(self, name), name))

    def resolved_iters(self):
        if self.iters is not None:
            return self.iters
        return DEFAULT_ITERS.get(self.estimator, DEFAULT_ITERS["tilde"])


@dataclass
class FitResult:
    """Outcome of a fit.

    ``trace`` has one row per recorded iteration: (iteration index,
    gradient norm, objective value or nan).  ``init_used`` is the raw
    vector the optimizer actually started from.  ``error`` marks an
    abort (the parameters are the last finite iterate); ``warning``
    marks a soft condition such as baseline non-convergence.
    """

    theta_raw: np.ndarray
    theta_natural: np.ndarray
    natural_names: tuple
    estimator: str
    init_used: np.ndarray
    iterations: int
    trace: np.ndarray
    wall_time: float
    error: Optional[str] = None
    warning: Optional[str] = None


def _result(family, theta, estimator, init_used, iterations, trace, t0, error=None, warning=None):
    theta = np.asarray(theta, dtype=float)
    return FitResult(
        theta_raw=theta,
        theta_natural=family.natural(theta),
        natural_names=tuple(family.natural_names()),
        estimator=estimator,
        init_used=np.asarray(init_used, dtype=float),
        iterations=int(iterations),
        trace=np.asarray(trace, dtype=float).reshape(-1, 3),
        wall_time=time.perf_counter() - t0,
        error=error,
        warning=warning,
    )


def _design_check(x):
    if x.shape[0] < x.shape[1]:
        raise NumericalError(
            f"design matrix has {x.shape[0]} rows, fewer than its {x.shape[1]} columns"
        )
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-12 or not np.all(np.isfinite(sv)):
        cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        raise NumericalError(f"singular design matrix, condition number {cond:.3e}")


def _solve(h, g):
    try:
        return np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, g, rcond=None)[0]


def _ols_raw(family, x, y):
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    sigma_sq = max(float(resid @ resid) / x.shape[0], 1e-300)
    return np.concatenate([beta, [0.5 * np.log(sigma_sq)]]), None


def _newton(x, weights, beta=None):
    # Capped Newton iterations, from zero unless a start is given, for a
    # likelihood whose score is x' r and whose negative Hessian is
    # x' diag(w) x, where (r, w) = weights(x @ beta).
    beta = np.zeros(x.shape[1]) if beta is None else beta
    for _ in range(_NEWTON_CAP):
        r, w = weights(x @ beta)
        step = _solve((x * w[:, None]).T @ x, x.T @ r)
        beta = beta + step
        if np.linalg.norm(beta) > _DIVERGENCE_NORM:
            return beta, "not_converged"
        if np.linalg.norm(step) < 1e-10:
            return beta, None
    return beta, "not_converged"


def _logistic_mle(family, x, y):
    def weights(z):
        p = _special().expit(z)
        return y - p, p * (1.0 - p)

    return _newton(x, weights)


def _poisson_mle(family, x, y):
    def weights(z):
        rate = np.exp(np.clip(z, -30.0, 30.0))
        return y - rate, rate

    return _newton(x, weights)


def _gamma_mle(family, x, y):
    # The mean-score equations for beta do not involve the shape, so beta
    # is fit first, from least squares on log y, and the shape afterwards.
    n = x.shape[0]

    def weights(z):
        r = y * np.exp(-np.clip(z, -30.0, 30.0))
        return r - 1.0, r

    beta, warning = _newton(x, weights, np.linalg.lstsq(x, np.log(y), rcond=None)[0])
    xb = x @ beta
    s = float(np.sum(np.log(y) - xb - y * np.exp(-xb)))
    resid = y * np.exp(-xb) - 1.0
    nu = 1.0 / max(float(np.mean(resid**2)), 1e-8)
    for _ in range(_NEWTON_CAP):
        f = n * (np.log(nu) + 1.0 - _special().digamma(nu)) + s
        fp = n * (1.0 / nu - _special().polygamma(1, nu))
        if fp == 0.0:
            break
        step = f / fp
        nu_new = nu - step
        if nu_new <= 0.0:
            nu_new = nu / 2.0
        nu = nu_new
        if abs(step) < 1e-12 * max(nu, 1.0):
            break
    else:
        warning = warning or "not_converged"
    return np.concatenate([beta, [np.log(nu)]]), warning


def _probit_mle(x, y2):
    sign = np.where(y2 > 0, 1.0, -1.0)

    def weights(z):
        a = sign * z
        mills = _inverse_mills(a)
        return sign * mills, mills * (mills + a)

    return _newton(x, weights)


def _heckman_two_step(family, x, y):
    d = family.d
    y1 = y[:, 0]
    sel = y[:, 1] > 0.5
    n_sel = int(sel.sum())
    xg = x[:, family.selection_support]
    xb = x[:, family.outcome_support]
    if n_sel < xb.shape[1] + 2 or n_sel == x.shape[0]:
        raise NumericalError(
            f"two-step estimation needs interior selection, got {n_sel}/{x.shape[0]} selected"
        )
    gamma_free, warning = _probit_mle(xg, y[:, 1])
    a_sel = xg[sel] @ gamma_free
    imr = _inverse_mills(a_sel)
    design = np.column_stack([xb[sel], imr])
    _design_check(design)
    coef, *_ = np.linalg.lstsq(design, y1[sel], rcond=None)
    beta_free, b_imr = coef[:-1], float(coef[-1])
    resid = y1[sel] - design @ coef
    delta = imr * (imr + a_sel)
    sigma_sq = float(resid @ resid) / n_sel + b_imr**2 * float(np.mean(delta))
    sigma = np.sqrt(max(sigma_sq, 1e-12))
    rho = float(np.clip(b_imr / sigma, -0.99, 0.99))
    raw = np.zeros(family.raw_dim)
    raw[: d][family.outcome_support] = beta_free
    raw[d : 2 * d][family.selection_support] = gamma_free
    raw[2 * d] = np.log(sigma)
    raw[2 * d + 1] = np.arctanh(rho)
    return raw, warning


def _mixture_em(family, x, y):
    # Deterministic start: a shared least-squares slope, with each
    # component nudged toward one residual-quantile group.  A short
    # fixed-length EM then separates the components.
    m = family.n_components
    n, _ = x.shape
    beta0 = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta0
    ranks = np.argsort(np.argsort(resid, kind="stable"), kind="stable")
    groups = (ranks * m) // n
    betas = np.tile(beta0, (m, 1))
    sigmas = np.full(m, max(float(resid.std()), 1e-3))
    weights = np.full(m, 1.0 / m)
    for c in range(m):
        in_group = groups == c
        if not np.any(in_group):
            continue
        center = np.full(n, float(resid[in_group].mean()))
        betas[c] = beta0 + np.linalg.lstsq(x, center, rcond=None)[0]
        if in_group.sum() > 1:
            sigmas[c] = max(float(resid[in_group].std()), 1e-3)
    for _ in range(100):
        log_r = np.empty((n, m))
        for c in range(m):
            z = (y - x @ betas[c]) / sigmas[c]
            log_r[:, c] = np.log(weights[c] + 1e-300) - 0.5 * z * z - np.log(sigmas[c])
        log_r -= _special().logsumexp(log_r, axis=1, keepdims=True)
        r = np.exp(log_r)
        weights = r.mean(axis=0)
        for c in range(m):
            w = r[:, c] + 1e-12
            wx = x * w[:, None]
            betas[c] = _solve(wx.T @ x, wx.T @ y)
            z = y - x @ betas[c]
            sigmas[c] = np.sqrt(max(float((w * z * z).sum() / w.sum()), 1e-12))
    logits = np.log(weights + 1e-300)
    logits = logits[:-1] - logits[-1]
    return np.concatenate([betas.ravel(), np.log(sigmas), logits]), None


# One entry per family; "ols" is the gaussian_linear entry.
_BASELINES = {
    "gaussian_linear": _ols_raw,
    "logistic": _logistic_mle,
    "poisson": _poisson_mle,
    "gamma": _gamma_mle,
    "heckman": _heckman_two_step,
    "mixture": _mixture_em,
}


def fit_baseline(family, dataset, which="mle"):
    """Classical estimate for a family: least squares or maximum likelihood.

    ``which="ols"`` is only defined for the Gaussian linear family.  The
    likelihood fits run capped Newton iterations; on hitting the cap or
    the divergence norm bound the result carries ``warning="not_converged"``.
    """
    t0 = time.perf_counter()
    dataset = _dataset_for(family, dataset)
    if which not in ("ols", "mle"):
        raise ConfigError(f"baseline must be 'ols' or 'mle', got {which!r}")
    if which == "ols" and family.name != "gaussian_linear":
        raise ConfigError("ols baseline is only defined for the gaussian_linear family")
    baseline = _BASELINES.get(family.name)
    if baseline is None:
        raise ConfigError(f"no baseline defined for family {family.name!r}")
    if family.name != "heckman":  # the two-step checks its own second stage
        _design_check(dataset.x)
    raw, warning = baseline(family, dataset.x, np.asarray(dataset.y, dtype=float))
    if not np.all(np.isfinite(raw)):
        raise NumericalError("baseline produced non-finite parameters")
    return _result(family, raw, which, raw, 1, np.empty((0, 3)), t0, warning=warning)


def _resolve_init(family, dataset, config):
    if isinstance(config.init, str):
        try:
            return fit_baseline(family, dataset, "mle").theta_raw.copy(), None
        except (NumericalError, DomainError, np.linalg.LinAlgError) as exc:
            return np.zeros(family.raw_dim), f"init_fallback_zero: {exc}"
    raw = np.array(config.init, dtype=float)
    if raw.shape != (family.raw_dim,):
        raise ConfigError(
            f"custom init has shape {raw.shape}, family needs ({family.raw_dim},)"
        )
    free = getattr(family, "free_mask", None)
    if free is not None:
        raw[~free] = 0.0
    return raw, None


def fit_mmd(family, dataset, config=None):
    """Minimize a discrepancy objective with AdaGrad.

    Runs exactly ``iters`` steps of
    ``theta <- theta - eta * g / (sqrt(sum g^2) + ADAGRAD_EPS)``
    with unbiased stochastic gradients, starting from the baseline
    estimate (falling back to zero when the baseline fails).  Returns
    the final iterate.  A non-finite gradient aborts with an error flag
    and the last finite iterate.  A traced hat fit whose objective's
    ``n x n`` Gram would pass the table cap raises ``NumericalError``
    before it starts.
    """
    t0 = time.perf_counter()
    if config is None:
        config = FitConfig()
    _check_estimator(config.estimator)
    dataset = _dataset_for(family, dataset)
    kernel = config.kernel if config.kernel is not None else default_kernel()
    iters = config.resolved_iters()
    every = config.trace_objective_every
    if config.estimator == "hat" and 0 < every <= iters:
        _check_gram_side(dataset.n)
    theta, warning = _resolve_init(family, dataset, config)
    init_used = theta.copy()
    rng_draws = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(11,)))
    rng_pairs = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(13,)))
    rng_trace = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(17,)))
    cache = None
    if config.estimator == "hat":
        m1 = dataset.n if config.m1 is None else config.m1
        cache = build_pair_cache(_x_kernel(kernel), dataset.x, m1)
    trace = np.full((iters, 3), np.nan)
    sumsq = np.zeros(family.raw_dim)
    error = None
    done = 0
    for t in range(iters):
        g = grad_objective_estimate(
            family,
            theta,
            dataset,
            kernel,
            cache=cache,
            m_samp=config.m2,
            rng_draws=rng_draws,
            rng_pairs=rng_pairs,
        )
        if not np.all(np.isfinite(g)):
            error = "nonfinite_gradient"
            break
        sumsq += g * g
        theta = theta - config.eta * g / (np.sqrt(sumsq) + ADAGRAD_EPS)
        done = t + 1
        trace[t, 0] = t
        trace[t, 1] = math.sqrt(g @ g)  # what norm computes for a real vector
        if every and (t + 1) % every == 0:
            val = objective(
                family, theta, dataset, kernel, config.estimator,
                budget=1, rng=rng_trace,
            )
            trace[t, 2] = val.value
    return _result(
        family, theta, config.estimator, init_used, done, trace[:done], t0,
        error=error, warning=warning,
    )


def fit(family, dataset, config=None):
    """Dispatch on ``config.estimator``: discrepancy fit or baseline."""
    if config is None:
        config = FitConfig()
    if config.estimator in ("mle", "ols"):
        return fit_baseline(family, dataset, config.estimator)
    return fit_mmd(family, dataset, config)
