"""Parametric regression families and synthetic data scenarios.

Each family maps an unconstrained raw parameter vector and a covariate
row to a response distribution.  Raw coordinates live on the real line
(scales enter through ``log``, correlations through ``atanh``) so the
optimizer never sees a constraint; ``natural`` converts back to the
interpretable parameterization.

All array-facing operations are vectorized over rows: ``x`` may be a
single covariate ``(d,)`` or a batch ``(n, d)``, and responses align
with rows.  Binary and count responses are stored as ``int64``, real
responses as ``float64``, and censored pairs as ``(n, 2)`` float arrays
whose second column is the 0/1 selection indicator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .errors import ConfigError, DomainError, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))
_COUNT_TAIL_MASS = 1e-12
# Largest (rows x support values) probability table Poisson.support builds,
# 80 MB in float64.
_SUPPORT_MAX_CELLS = 10_000_000


def _check_responses(kind, y, n):
    """Responses of a declared kind, checked and in their stored dtype.

    Shape ``(n,)``, or ``(n, 2)`` for censored pairs; every value finite;
    selection indicators 0 or 1; count and binary values nonnegative
    integers (binary at most 1), returned as ``int64``.
    """
    if kind not in ("real", "count", "binary", "censored"):
        raise ConfigError(f"unknown response kind {kind!r}")
    arr = np.asarray(y)
    shape = (n, 2) if kind == "censored" else (n,)
    if arr.shape != shape or not np.all(np.isfinite(np.asarray(arr, dtype=float))):
        raise DomainError(f"{kind} responses must be finite with shape {shape}")
    if kind == "censored" and np.any((arr[:, 1] != 0.0) & (arr[:, 1] != 1.0)):
        raise DomainError("selection indicators must lie in {0, 1}")
    if kind in ("real", "censored"):
        return np.asarray(arr, dtype=float)
    if np.any(arr != np.floor(arr)) or np.any(arr < 0):
        raise DomainError(f"{kind} responses must be nonnegative integers")
    if kind == "binary" and np.any(arr > 1):
        raise DomainError("binary responses must lie in {0, 1}")
    return np.asarray(arr, dtype=np.int64)


def check_seed(seed):
    """Raise ConfigError unless ``seed`` is a nonnegative integer, the
    entropy ``np.random.SeedSequence`` accepts."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass
class Dataset:
    """Covariate matrix plus aligned responses of a declared kind.

    ``kind`` is one of ``"real"``, ``"count"``, ``"binary"``,
    ``"censored"``.  ``meta`` carries provenance (scenario, seeds,
    contamination record) and is never interpreted by the estimators.
    """

    x: np.ndarray
    y: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise DomainError(f"covariates must be 2-D, got shape {self.x.shape}")
        if not np.all(np.isfinite(self.x)):
            raise DomainError("covariates must be finite")
        self.y = _check_responses(self.kind, self.y, self.x.shape[0])

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def copy(self):
        return Dataset(self.x.copy(), self.y.copy(), self.kind, dict(self.meta))


class Family:
    """Common interface of the regression families.

    Subclasses define ``raw_dim``, ``kind``, ``exact`` (whether the
    response support is finite or truncatable, enabling exact loss
    evaluation), and the three core operations ``sample``,
    ``log_density`` and ``grad_log_density``.
    """

    name = "family"
    kind = "real"
    exact = False

    def __init__(self, d):
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise ConfigError(f"covariate dimension must be a positive integer, got {d!r}")
        self.d = int(d)

    # raw <-> natural -------------------------------------------------

    def natural(self, theta):
        """Constrained view of a raw vector, as a flat float array."""
        raise NotImplementedError

    def natural_names(self):
        raise NotImplementedError

    # core operations -------------------------------------------------

    def sample(self, theta, x, rng, n=None):
        """Draw responses, one per row of ``x``.

        With a single covariate row and ``n`` given, draws ``n``
        i.i.d. responses at that covariate.

        Precondition: ``theta`` and ``x`` are finite.  Only their shapes
        are checked here; the fit loop passes arrays checked at its entry.
        """
        raise NotImplementedError

    def log_density(self, theta, x, y):
        """Log density/mass of aligned responses, shape ``(n,)``."""
        raise NotImplementedError

    def grad_log_density(self, theta, x, y):
        """Score in raw coordinates, shape ``(n, raw_dim)``.

        Precondition: ``theta`` and ``x`` are finite and ``y`` holds
        responses of the family's kind, as a ``Dataset`` or
        :meth:`sample` provides.  Only shapes are checked here; values
        outside the domain (a gamma response of 0) give non-finite
        scores rather than an error.
        """
        raise NotImplementedError

    def support(self, theta, x):
        """Exact families only: response values ``(k,)`` and row-wise
        probabilities ``(n, k)``."""
        raise DomainError(f"{self.name} has no finite response support")

    # validation helpers ---------------------------------------------
    # ``_theta``, ``_rows`` and ``_shape_y`` check shapes only, for the
    # fit loop's trusted arrays; the ``check`` forms also scan values.

    def _theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.raw_dim,):
            raise DomainError(
                f"{self.name} expects raw parameters of shape ({self.raw_dim},), got {theta.shape}"
            )
        return theta

    def check_theta(self, theta):
        theta = self._theta(theta)
        if not np.all(np.isfinite(theta)):
            raise DomainError("raw parameters must be finite")
        return theta

    def _rows(self, x, n=None):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DomainError(f"{self.name} expects covariates with d={self.d}, got shape {x.shape}")
        if n is not None:
            if x.shape[0] != 1:
                raise DomainError("pass n only with a single covariate row")
            if not (isinstance(n, (int, np.integer)) and n >= 1):
                raise DomainError("sample count must be a positive integer")
            x = np.repeat(x, int(n), axis=0)
        return x

    def _check_x(self, x):
        x = self._rows(x)
        if not np.all(np.isfinite(x)):
            raise DomainError("covariates must be finite")
        return x

    def _shape_y(self, y, n):
        y = np.asarray(y)
        if y.shape != ((n, 2) if self.kind == "censored" else (n,)):
            raise DomainError(f"{self.name} expects {n} responses, got shape {y.shape}")
        return y

    def _check_y(self, y, n):
        y = np.asarray(y)
        if y.ndim == 0:
            y = y.reshape(1)
        elif self.kind == "censored" and y.shape == (2,):
            y = y.reshape(1, 2)
        return _check_responses(self.kind, y, n)


class GaussianLinear(Family):
    """Linear model with Gaussian noise: ``y ~ N(beta' x, sigma^2)``.

    Raw parameters: ``(beta_1..beta_d, log sigma)``.
    """

    name = "gaussian_linear"
    kind = "real"

    def __init__(self, d):
        super().__init__(d)
        self.raw_dim = self.d + 1

    def natural(self, theta):
        theta = self.check_theta(theta)
        return np.concatenate([theta[: self.d], [np.exp(theta[self.d])]])

    def natural_names(self):
        return [f"beta{i + 1}" for i in range(self.d)] + ["sigma"]

    def sample(self, theta, x, rng, n=None):
        theta = self._theta(theta)
        x = self._rows(x, n)
        mean = x @ theta[: self.d]
        sigma = np.exp(theta[self.d])
        return mean + sigma * rng.standard_normal(x.shape[0])

    def log_density(self, theta, x, y):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        log_sigma = theta[self.d]
        z = (y - x @ theta[: self.d]) * np.exp(-log_sigma)
        return -0.5 * _LOG_2PI - log_sigma - 0.5 * z * z

    def grad_log_density(self, theta, x, y):
        theta = self._theta(theta)
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        inv_sigma = np.exp(-theta[self.d])
        z = (y - x @ theta[: self.d]) * inv_sigma
        g = np.empty((x.shape[0], self.raw_dim))
        g[:, : self.d] = (z * inv_sigma)[:, None] * x
        g[:, self.d] = z * z - 1.0
        return g


class Logistic(Family):
    """Binary response with ``P(y = 1 | x) = 1 / (1 + exp(-theta' x))``."""

    name = "logistic"
    kind = "binary"
    exact = True

    def __init__(self, d):
        super().__init__(d)
        self.raw_dim = self.d

    def natural(self, theta):
        return self.check_theta(theta).copy()

    def natural_names(self):
        return [f"theta{i + 1}" for i in range(self.d)]

    def _prob(self, theta, x):
        return special.expit(x @ theta)

    def sample(self, theta, x, rng, n=None):
        theta = self._theta(theta)
        x = self._rows(x, n)
        p = self._prob(theta, x)
        return (rng.random(x.shape[0]) < p).astype(np.int64)

    def log_density(self, theta, x, y):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        eta = x @ theta
        # y * eta - log(1 + exp(eta)), stable for both signs of eta.
        return y * eta - np.logaddexp(0.0, eta)

    def grad_log_density(self, theta, x, y):
        theta = self._theta(theta)
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        return (y - self._prob(theta, x))[:, None] * x

    def support(self, theta, x):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        p = self._prob(theta, x)
        return np.array([0.0, 1.0]), np.column_stack([1.0 - p, p])


class Poisson(Family):
    """Count response with log link: ``y ~ Poisson(exp(theta' x))``."""

    name = "poisson"
    kind = "count"
    exact = True

    def __init__(self, d):
        super().__init__(d)
        self.raw_dim = self.d

    def natural(self, theta):
        return self.check_theta(theta).copy()

    def natural_names(self):
        return [f"theta{i + 1}" for i in range(self.d)]

    def sample(self, theta, x, rng, n=None):
        theta = self._theta(theta)
        x = self._rows(x, n)
        try:
            return rng.poisson(np.exp(x @ theta)).astype(np.int64)
        except ValueError as exc:  # numpy rejects rates beyond about 1e19
            raise NumericalError(f"poisson rate out of range: {exc}") from None

    def log_density(self, theta, x, y):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        eta = x @ theta
        return y * eta - np.exp(eta) - special.gammaln(y + 1.0)

    def grad_log_density(self, theta, x, y):
        theta = self._theta(theta)
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        return (y - np.exp(x @ theta))[:, None] * x

    def support(self, theta, x):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        rate = np.exp(x @ theta)
        # Truncate where the remaining tail mass drops below 1e-12.
        top = stats.poisson.ppf(1.0 - _COUNT_TAIL_MASS, rate.max())
        cells = x.shape[0] * (top + 1.0)
        if not cells <= _SUPPORT_MAX_CELLS:  # also false for a nan ppf
            raise NumericalError(
                f"poisson support at rate {rate.max():.3g} needs {cells:.3g} table cells, "
                f"above the cap of {_SUPPORT_MAX_CELLS}"
            )
        values = np.arange(int(top) + 1, dtype=float)
        logp = values[None, :] * np.log(np.maximum(rate, 1e-300))[:, None]
        logp -= rate[:, None] + special.gammaln(values + 1.0)[None, :]
        return values, np.exp(logp)


class GammaRegression(Family):
    """Gamma regression with log mean link and a free shape.

    ``y ~ Gamma(shape nu, rate nu * exp(-beta' x))``, so the conditional
    mean is ``exp(beta' x)``.  Raw parameters: ``(beta_1..beta_d, log nu)``.
    """

    name = "gamma"
    kind = "real"

    def __init__(self, d):
        super().__init__(d)
        self.raw_dim = self.d + 1

    def natural(self, theta):
        theta = self.check_theta(theta)
        return np.concatenate([theta[: self.d], [np.exp(theta[self.d])]])

    def natural_names(self):
        return [f"beta{i + 1}" for i in range(self.d)] + ["shape"]

    def sample(self, theta, x, rng, n=None):
        theta = self._theta(theta)
        x = self._rows(x, n)
        nu = np.exp(theta[self.d])
        return rng.gamma(shape=nu, scale=np.exp(x @ theta[: self.d]) / nu)

    def log_density(self, theta, x, y):
        theta = self.check_theta(theta)
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        if np.any(y <= 0.0):
            raise DomainError("gamma responses must be strictly positive")
        log_nu = theta[self.d]
        nu = np.exp(log_nu)
        xb = x @ theta[: self.d]
        return (
            nu * (log_nu - xb)
            - special.gammaln(nu)
            + (nu - 1.0) * np.log(y)
            - nu * y * np.exp(-xb)
        )

    def grad_log_density(self, theta, x, y):
        theta = self._theta(theta)
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        log_nu = theta[self.d]
        nu = np.exp(log_nu)
        xb = x @ theta[: self.d]
        scaled = y * np.exp(-xb)
        g = np.empty((x.shape[0], self.raw_dim))
        g[:, : self.d] = (nu * (scaled - 1.0))[:, None] * x
        g[:, self.d] = nu * (log_nu + 1.0 - xb - special.digamma(nu) + np.log(y) - scaled)
        return g


def _inverse_mills(a):
    # phi(a) / Phi(a), computed in log space; stable far into the left tail.
    return np.exp(-0.5 * _LOG_2PI - 0.5 * a * a - special.log_ndtr(a))


class Heckman(Family):
    """Sample-selection model with a censored Gaussian outcome.

    Latent ``(z1, z2)`` are bivariate normal with means ``(beta' x,
    gamma' x)``, variances ``(sigma^2, 1)`` and correlation ``rho``; the
    observation is ``(y1, y2) = (z1 * 1{z2 > 0}, 1{z2 > 0})``.  The
    ``y2 = 0`` branch carries the mass ``Phi(-gamma' x)`` and ignores
    ``y1``.  Raw parameters: ``(beta_1..beta_d, gamma_1..gamma_d,
    log sigma, atanh rho)``.  Optional support masks freeze excluded
    coefficients at zero (their raw coordinates are ignored and their
    scores vanish).
    """

    name = "heckman"
    kind = "censored"

    def __init__(self, d, outcome_support=None, selection_support=None):
        super().__init__(d)
        self.raw_dim = 2 * self.d + 2
        self.outcome_support = self._as_support(outcome_support)
        self.selection_support = self._as_support(selection_support)
        free = np.ones(self.raw_dim, dtype=bool)
        free[: self.d] = self.outcome_support
        free[self.d : 2 * self.d] = self.selection_support
        self.free_mask = free

    def _as_support(self, support):
        if support is None:
            return np.ones(self.d, dtype=bool)
        support = np.asarray(support, dtype=bool)
        if support.shape != (self.d,):
            raise ConfigError(f"support mask must have shape ({self.d},)")
        if not support.any():
            raise ConfigError("support mask must keep at least one covariate")
        return support

    def _effective(self, theta):
        out = theta.copy()
        out[~self.free_mask] = 0.0
        return out

    def natural(self, theta):
        theta = self._effective(self.check_theta(theta))
        return np.concatenate(
            [
                theta[: self.d],
                theta[self.d : 2 * self.d],
                [np.exp(theta[2 * self.d]), np.tanh(theta[2 * self.d + 1])],
            ]
        )

    def natural_names(self):
        return (
            [f"beta{i + 1}" for i in range(self.d)]
            + [f"gamma{i + 1}" for i in range(self.d)]
            + ["sigma", "rho"]
        )

    def _params(self, theta, x):
        theta = self._effective(theta)
        mu1 = x @ theta[: self.d]
        mu2 = x @ theta[self.d : 2 * self.d]
        sigma = np.exp(theta[2 * self.d])
        rho = np.tanh(theta[2 * self.d + 1])
        return mu1, mu2, sigma, rho

    def sample(self, theta, x, rng, n=None):
        x = self._rows(x, n)
        mu1, mu2, sigma, rho = self._params(self._theta(theta), x)
        e1 = rng.standard_normal(x.shape[0])
        e2 = rng.standard_normal(x.shape[0])
        z1 = mu1 + sigma * e1
        z2 = mu2 + rho * e1 + np.sqrt(1.0 - rho * rho) * e2
        selected = z2 > 0.0
        return np.column_stack([np.where(selected, z1, 0.0), selected.astype(float)])

    def log_density(self, theta, x, y):
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        mu1, mu2, sigma, rho = self._params(self.check_theta(theta), x)
        selected = y[:, 1] == 1.0
        z1 = (y[:, 0] - mu1) / sigma
        arg = (mu2 + rho * z1) / np.sqrt(1.0 - rho * rho)
        out = np.where(
            selected,
            -0.5 * _LOG_2PI - np.log(sigma) - 0.5 * z1 * z1 + special.log_ndtr(arg),
            special.log_ndtr(-mu2),
        )
        return out

    def grad_log_density(self, theta, x, y):
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        mu1, mu2, sigma, rho = self._params(self._theta(theta), x)
        selected = y[:, 1] == 1.0
        root = np.sqrt(1.0 - rho * rho)
        z1 = (y[:, 0] - mu1) / sigma
        arg = (mu2 + rho * z1) / root
        mills = _inverse_mills(arg)
        d_mu1 = np.where(selected, z1 / sigma - mills * rho / (sigma * root), 0.0)
        d_mu2 = np.where(selected, mills / root, -_inverse_mills(-mu2))
        d_log_sigma = np.where(selected, z1 * z1 - 1.0 - mills * rho * z1 / root, 0.0)
        d_arg_d_rho = z1 / root + (mu2 + rho * z1) * rho / root ** 3
        d_atanh_rho = np.where(selected, mills * d_arg_d_rho * (1.0 - rho * rho), 0.0)
        g = np.zeros((x.shape[0], self.raw_dim))
        g[:, : self.d] = d_mu1[:, None] * x
        g[:, self.d : 2 * self.d] = d_mu2[:, None] * x
        g[:, 2 * self.d] = d_log_sigma
        g[:, 2 * self.d + 1] = d_atanh_rho
        g[:, ~self.free_mask] = 0.0
        return g


class GaussianMixture(Family):
    """Mixture of Gaussian linear regressions with shared global weights.

    Component ``m`` contributes ``N(beta_m' x, sigma_m^2)`` with weight
    ``alpha_m``.  Raw parameters: component coefficient blocks, the log
    scales, then ``n_components - 1`` free weight logits (the last logit
    is pinned to zero).
    """

    name = "mixture"
    kind = "real"

    def __init__(self, d, n_components=2):
        super().__init__(d)
        if not (isinstance(n_components, (int, np.integer)) and n_components >= 2):
            raise ConfigError("mixture needs at least two components")
        self.n_components = int(n_components)
        self.raw_dim = self.n_components * (self.d + 1) + self.n_components - 1

    def _split(self, theta):
        m, d = self.n_components, self.d
        betas = theta[: m * d].reshape(m, d)
        sigmas = np.exp(theta[m * d : m * d + m])
        logits = np.concatenate([theta[m * d + m :], [0.0]])
        weights = special.softmax(logits)
        return betas, sigmas, weights

    def natural(self, theta):
        betas, sigmas, weights = self._split(self.check_theta(theta))
        return np.concatenate([betas.ravel(), sigmas, weights])

    def natural_names(self):
        m, d = self.n_components, self.d
        names = [f"beta{j + 1}_{i + 1}" for j in range(m) for i in range(d)]
        names += [f"sigma_{j + 1}" for j in range(m)]
        names += [f"weight_{j + 1}" for j in range(m)]
        return names

    def sample(self, theta, x, rng, n=None):
        betas, sigmas, weights = self._split(self._theta(theta))
        x = self._rows(x, n)
        rows = x.shape[0]
        comp = rng.choice(self.n_components, size=rows, p=weights)
        means = np.take_along_axis(x @ betas.T, comp[:, None], axis=1)[:, 0]
        return means + sigmas[comp] * rng.standard_normal(rows)

    def _log_components(self, theta, x, y):
        betas, sigmas, weights = self._split(theta)
        z = (y[:, None] - x @ betas.T) / sigmas[None, :]
        logphi = -0.5 * _LOG_2PI - np.log(sigmas)[None, :] - 0.5 * z * z
        return logphi + np.log(weights)[None, :], z, sigmas, weights

    def log_density(self, theta, x, y):
        x = self._check_x(x)
        y = self._check_y(y, x.shape[0])
        logc, _, _, _ = self._log_components(self.check_theta(theta), x, y)
        return special.logsumexp(logc, axis=1)

    def grad_log_density(self, theta, x, y):
        x = self._rows(x)
        y = self._shape_y(y, x.shape[0])
        logc, z, sigmas, weights = self._log_components(self._theta(theta), x, y)
        resp = np.exp(logc - special.logsumexp(logc, axis=1, keepdims=True))
        m, d = self.n_components, self.d
        g = np.empty((x.shape[0], self.raw_dim))
        for j in range(m):
            g[:, j * d : (j + 1) * d] = (resp[:, j] * z[:, j] / sigmas[j])[:, None] * x
        g[:, m * d : m * d + m] = resp * (z * z - 1.0)
        g[:, m * d + m :] = resp[:, : m - 1] - weights[None, : m - 1]
        return g


_FAMILY_REGISTRY = {
    "gaussian_linear": GaussianLinear,
    "logistic": Logistic,
    "poisson": Poisson,
    "gamma": GammaRegression,
    "heckman": Heckman,
    "mixture": GaussianMixture,
}


def get_family(name, d, **kwargs):
    """Instantiate a registered family by name."""
    try:
        cls = _FAMILY_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown family {name!r}; known: {sorted(_FAMILY_REGISTRY)}"
        ) from None
    return cls(d, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """A named synthetic data-generating process with its evaluation target."""

    name: str
    d: int
    family_name: str
    family_kwargs: dict
    truth_raw: np.ndarray
    truth_natural: np.ndarray
    report_mask: np.ndarray
    recipe_means: dict

    def make_family(self):
        return get_family(self.family_name, self.d, **self.family_kwargs)


def _gauss_linear_laplace_scenario():
    beta0 = np.array([4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0])
    sigma0 = 1.0
    raw = np.concatenate([beta0, [np.log(sigma0)]])
    natural = np.concatenate([beta0, [sigma0]])
    mask = np.zeros(9, dtype=bool)
    mask[:8] = True  # the noise is misspecified, so only the coefficients are scored
    return Scenario(
        name="gauss_linear_laplace",
        d=8,
        family_name="gaussian_linear",
        family_kwargs={},
        truth_raw=raw,
        truth_natural=natural,
        report_mask=mask,
        recipe_means={"type_x_mean": 5.0, "type_y_mean": 10.0},
    )


def _heckman_synthetic_scenario():
    beta0 = np.array([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    gamma0 = np.array([0.0, 0.0, 0.0, 0.0, 4.0, 3.0, 2.0, 1.0])
    sigma0, rho0 = 1.5, 0.5
    raw = np.concatenate([beta0, gamma0, [np.log(sigma0), np.arctanh(rho0)]])
    natural = np.concatenate([beta0, gamma0, [sigma0, rho0]])
    outcome = np.array([True] * 4 + [False] * 4)
    selection = ~outcome
    return Scenario(
        name="heckman_synthetic",
        d=8,
        family_name="heckman",
        family_kwargs={"outcome_support": outcome, "selection_support": selection},
        truth_raw=raw,
        truth_natural=natural,
        report_mask=np.ones(18, dtype=bool),
        recipe_means={"type_x_mean": 5.0},
    )


def _gamma_synthetic_scenario():
    beta0 = np.ones(8)
    raw = np.concatenate([beta0, [0.0]])
    natural = np.concatenate([beta0, [1.0]])
    return Scenario(
        name="gamma_synthetic",
        d=8,
        family_name="gamma",
        family_kwargs={},
        truth_raw=raw,
        truth_natural=natural,
        report_mask=np.ones(9, dtype=bool),
        recipe_means={"type_x_mean": -0.5},
    )


_SCENARIOS = {
    s.name: s
    for s in (
        _gauss_linear_laplace_scenario(),
        _heckman_synthetic_scenario(),
        _gamma_synthetic_scenario(),
    )
}


def get_scenario(name):
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}") from None


def list_scenarios():
    return sorted(_SCENARIOS)


def simulate_dataset(scenario, n, seed):
    """Draw a clean dataset from a named scenario.

    Covariates are standard normal.  For the Gaussian linear scenario
    the noise is Laplace with unit scale, so the fitted Gaussian family
    is deliberately misspecified; the other scenarios sample from their
    own family at the true parameters.

    Returns:
        ``(family, dataset)`` where ``dataset.meta`` records the
        scenario name, seed, and truth.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((int(n), scenario.d))
    family = scenario.make_family()
    if scenario.name == "gauss_linear_laplace":
        beta0 = scenario.truth_natural[:8]
        y = x @ beta0 + rng.laplace(0.0, scenario.truth_natural[8], size=int(n))
    else:
        y = family.sample(scenario.truth_raw, x, rng)
    meta = {
        "scenario": scenario.name,
        "seed": int(seed),
        "truth_raw": scenario.truth_raw.tolist(),
        "truth_natural": scenario.truth_natural.tolist(),
        "report_mask": scenario.report_mask.tolist(),
    }
    return family, Dataset(x, y, family.kind, meta)
