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
count is the stopping rule and the result is an approximate minimizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import special

from .errors import ConfigError, DomainError, NumericalError
from .gradients import build_pair_cache, grad_objective_estimate
from .kernels import (
    KernelSpec,
    default_covariate_kernel,
    default_response_kernel,
    product_kernel,
)
from .models import _inverse_mills, check_seed
from .objective import _dataset_for, objective

ESTIMATORS = ("tilde", "hat", "mle", "ols")

DEFAULT_ETA = 0.1
DEFAULT_ADAGRAD_EPS = 1e-8
DEFAULT_ITERS = {"tilde": 2000, "hat": 5000}

_NEWTON_CAP = 100
_DIVERGENCE_NORM = 30.0


def default_kernel():
    """Product of the default covariate and response kernels."""
    return product_kernel(default_covariate_kernel(), default_response_kernel())


def _whole(v):
    # an integer, and not a bool, which Python counts as one
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class FitConfig:
    """Settings for one fit.

    ``estimator`` selects the linear-cost ("tilde") or quadratic-cost
    ("hat") discrepancy fit, or a baseline ("mle", "ols").  ``iters``
    defaults per estimator (2000 linear, 5000 quadratic).  ``m1`` and
    ``m2`` are the deterministic and sampled pair budgets of the
    quadratic gradient, both defaulting to ``n``.  ``init`` is
    ``"mle"`` (baseline start with fallback to zero), ``"zero"``, or an
    explicit raw vector.
    """

    estimator: str = "tilde"
    kernel: Optional[KernelSpec] = None
    eta: float = DEFAULT_ETA
    adagrad_eps: float = DEFAULT_ADAGRAD_EPS
    iters: Optional[int] = None
    mc_pairs: int = 1
    m1: Optional[int] = None
    m2: Optional[int] = None
    seed: int = 0
    init: Union[str, Sequence[float]] = "mle"
    polyak: bool = False
    trace_objective_every: int = 0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        for name in ("eta", "adagrad_eps"):
            v = getattr(self, name)
            real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            if not (real and v > 0.0 and np.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if self.iters is not None and not (_whole(self.iters) and self.iters >= 1):
            raise ConfigError("iters must be a positive integer")
        if not (_whole(self.mc_pairs) and self.mc_pairs >= 1):
            raise ConfigError("mc_pairs must be a positive integer")
        for name in ("m1", "m2"):
            v = getattr(self, name)
            if v is not None and not (_whole(v) and v >= 0):
                raise ConfigError(f"{name} must be a nonnegative integer")
        if not isinstance(self.polyak, (bool, np.bool_)):
            raise ConfigError(f"polyak must be true or false, got {self.polyak!r}")
        if isinstance(self.init, str):
            if self.init not in ("mle", "zero"):
                raise ConfigError(f"init must be 'mle', 'zero', or a vector, got {self.init!r}")
        else:
            try:
                arr = np.asarray(self.init, dtype=float)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ConfigError(f"custom init must be a finite 1-D vector, got {self.init!r}")
            object.__setattr__(self, "init", arr)
        check_seed(self.seed)
        if not (_whole(self.trace_objective_every) and self.trace_objective_every >= 0):
            raise ConfigError("trace_objective_every must be a nonnegative integer")

    def resolved_iters(self):
        if self.iters is not None:
            return int(self.iters)
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
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-12 or not np.all(np.isfinite(sv)):
        cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        raise NumericalError(f"singular design matrix, condition number {cond:.3e}")


def _solve(h, g):
    try:
        return np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, g, rcond=None)[0]


def _ols_raw(x, y):
    _design_check(x)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    sigma_sq = float(resid @ resid) / x.shape[0]
    sigma_sq = max(sigma_sq, 1e-300)
    return np.concatenate([beta, [0.5 * np.log(sigma_sq)]])


def _newton(x, weights):
    # Capped Newton iterations from zero for a likelihood whose score is
    # x' r and whose negative Hessian is x' diag(w) x, where
    # (r, w) = weights(x @ beta).
    beta = np.zeros(x.shape[1])
    for _ in range(_NEWTON_CAP):
        r, w = weights(x @ beta)
        step = _solve((x * w[:, None]).T @ x, x.T @ r)
        beta = beta + step
        if np.linalg.norm(beta) > _DIVERGENCE_NORM:
            return beta, "not_converged"
        if np.linalg.norm(step) < 1e-10:
            return beta, None
    return beta, "not_converged"


def _logistic_mle(x, y):
    def weights(z):
        p = special.expit(z)
        return y - p, p * (1.0 - p)

    return _newton(x, weights)


def _poisson_mle(x, y):
    def weights(z):
        rate = np.exp(np.clip(z, -30.0, 30.0))
        return y - rate, rate

    return _newton(x, weights)


def _gamma_mle(x, y):
    # The mean-score equations for beta do not involve the shape, so
    # beta is fit first and the shape by profile Newton afterwards.
    n = x.shape[0]
    beta = np.linalg.lstsq(x, np.log(y), rcond=None)[0]
    warning = None
    for _ in range(_NEWTON_CAP):
        mu_inv = np.exp(-np.clip(x @ beta, -30.0, 30.0))
        r = y * mu_inv
        grad = x.T @ (r - 1.0)
        hess = (x * r[:, None]).T @ x
        step = _solve(hess, grad)
        beta = beta + step
        if np.linalg.norm(step) < 1e-10:
            break
    else:
        warning = "not_converged"
    xb = x @ beta
    s = float(np.sum(np.log(y) - xb - y * np.exp(-xb)))
    resid = y * np.exp(-xb) - 1.0
    nu = 1.0 / max(float(np.mean(resid**2)), 1e-8)
    for _ in range(_NEWTON_CAP):
        f = n * (np.log(nu) + 1.0 - special.digamma(nu)) + s
        fp = n * (1.0 / nu - special.polygamma(1, nu))
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
        log_r -= special.logsumexp(log_r, axis=1, keepdims=True)
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


def fit_baseline(family, dataset, which="mle"):
    """Classical estimate for a family: least squares or maximum likelihood.

    ``which="ols"`` is only defined for the Gaussian linear family.  The
    likelihood fits run capped Newton iterations; on hitting the cap or
    the divergence norm bound the result carries ``warning="not_converged"``.
    """
    t0 = time.perf_counter()
    dataset = _dataset_for(family, dataset)
    x = dataset.x
    if which not in ("ols", "mle"):
        raise ConfigError(f"baseline must be 'ols' or 'mle', got {which!r}")
    if which == "ols":
        if family.name != "gaussian_linear":
            raise ConfigError("ols baseline is only defined for the gaussian_linear family")
        raw = _ols_raw(x, np.asarray(dataset.y, dtype=float))
        return _result(family, raw, "ols", raw, 1, np.empty((0, 3)), t0)
    warning = None
    if family.name == "gaussian_linear":
        raw = _ols_raw(x, np.asarray(dataset.y, dtype=float))
    elif family.name == "logistic":
        _design_check(x)
        beta, warning = _logistic_mle(x, np.asarray(dataset.y, dtype=float))
        raw = beta
    elif family.name == "poisson":
        _design_check(x)
        beta, warning = _poisson_mle(x, np.asarray(dataset.y, dtype=float))
        raw = beta
    elif family.name == "gamma":
        _design_check(x)
        raw, warning = _gamma_mle(x, np.asarray(dataset.y, dtype=float))
    elif family.name == "heckman":
        raw, warning = _heckman_two_step(family, x, np.asarray(dataset.y, dtype=float))
    elif family.name == "mixture":
        _design_check(x)
        raw, warning = _mixture_em(family, x, np.asarray(dataset.y, dtype=float))
    else:
        raise ConfigError(f"no baseline defined for family {family.name!r}")
    if not np.all(np.isfinite(raw)):
        raise NumericalError("baseline produced non-finite parameters")
    return _result(family, raw, "mle", raw, 1, np.empty((0, 3)), t0, warning=warning)


def _resolve_init(family, dataset, config):
    free = getattr(family, "free_mask", None)
    if isinstance(config.init, str):
        if config.init == "zero":
            return np.zeros(family.raw_dim), None
        try:
            raw = fit_baseline(family, dataset, "mle").theta_raw.copy()
        except (NumericalError, DomainError, np.linalg.LinAlgError) as exc:
            return np.zeros(family.raw_dim), f"init_fallback_zero: {exc}"
        if free is not None:
            raw[~free] = 0.0
        return raw, None
    raw = config.init.copy()
    if raw.shape != (family.raw_dim,):
        raise ConfigError(
            f"custom init has shape {raw.shape}, family needs ({family.raw_dim},)"
        )
    if free is not None:
        raw[~free] = 0.0
    return raw, None


def fit_mmd(family, dataset, config=None):
    """Minimize a discrepancy objective with AdaGrad.

    Runs exactly ``iters`` steps of
    ``theta <- theta - eta * g / (sqrt(sum g^2) + adagrad_eps)``
    with unbiased stochastic gradients, starting from the baseline
    estimate (falling back to zero when the baseline fails).  Returns
    the final iterate, or the running average when ``polyak`` is set.
    A non-finite gradient aborts with the last finite iterate and an
    error flag.
    """
    t0 = time.perf_counter()
    if config is None:
        config = FitConfig()
    if config.estimator not in ("tilde", "hat"):
        raise ConfigError(f"fit_mmd requires a discrepancy estimator, got {config.estimator!r}")
    dataset = _dataset_for(family, dataset)
    kernel = config.kernel if config.kernel is not None else default_kernel()
    theta, warning = _resolve_init(family, dataset, config)
    init_used = theta.copy()
    iters = config.resolved_iters()
    n = dataset.n
    rng_draws = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(11,)))
    rng_pairs = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(13,)))
    rng_trace = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(17,)))
    cache = None
    m2 = None
    if config.estimator == "hat":
        if kernel.family != "product":
            raise ConfigError("the quadratic-cost estimator needs a product kernel")
        m1 = n if config.m1 is None else config.m1
        cache = build_pair_cache(kernel.x_kernel, dataset.x, m1)
        m2 = n if config.m2 is None else config.m2
    trace = np.full((iters, 3), np.nan)
    sumsq = np.zeros(family.raw_dim)
    polyak_sum = np.zeros(family.raw_dim)
    error = None
    done = 0
    for t in range(iters):
        g = grad_objective_estimate(
            family,
            theta,
            dataset,
            kernel,
            config.estimator,
            cache=cache,
            m_samp=m2,
            pairs=config.mc_pairs,
            rng_draws=rng_draws,
            rng_pairs=rng_pairs,
        )
        if not np.all(np.isfinite(g)):
            error = "nonfinite_gradient"
            break
        sumsq += g * g
        theta = theta - config.eta * g / (np.sqrt(sumsq) + config.adagrad_eps)
        polyak_sum += theta
        done = t + 1
        trace[t, 0] = t
        trace[t, 1] = np.linalg.norm(g)
        every = config.trace_objective_every
        if every and (t + 1) % every == 0:
            val = objective(
                family, theta, dataset, kernel, config.estimator,
                budget=max(config.mc_pairs, 1), rng=rng_trace,
            )
            trace[t, 2] = val.value
    final = polyak_sum / done if (config.polyak and done) else theta
    return _result(
        family, final, config.estimator, init_used, done, trace[:done], t0,
        error=error, warning=warning,
    )


def fit(family, dataset, config=None):
    """Dispatch on ``config.estimator``: discrepancy fit or baseline."""
    if config is None:
        config = FitConfig()
    if config.estimator in ("mle", "ols"):
        return fit_baseline(family, dataset, config.estimator)
    return fit_mmd(family, dataset, config)
