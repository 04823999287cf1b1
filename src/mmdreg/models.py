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

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))
_COUNT_TAIL_MASS = 1e-12
# Largest table, in cells, that the package builds: Poisson.support's
# (rows x support values) probabilities or an objective's Gram matrix,
# 80 MB in float64.
_MAX_TABLE_CELLS = 10_000_000


def _special():
    # scipy.special on first use: a Gaussian fit never calls it.  A family
    # whose ``uses_special`` is true imports it when built, so run_plan's
    # parent holds it before it forks and no worker imports it again.
    from scipy import special
    return special


def _numeric(values, what):
    # an array numpy reads as real numbers; the dtype alone decides, so
    # numeric input keeps its bits and no pass is made over the values
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise DomainError(f"{what} must be an array of real numbers, not a ragged one") from None
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr


def _check_responses(kind, y, n):
    """Responses of a declared kind, checked and in their stored dtype.

    Shape ``(n,)``, or ``(n, 2)`` for censored pairs; every value finite;
    selection indicators 0 or 1; count and binary values nonnegative
    integers below 2**63 (binary at most 1), returned as ``int64``.
    """
    if kind not in ("real", "count", "binary", "censored"):
        raise ConfigError(f"unknown response kind {kind!r}")
    arr = _numeric(y, f"{kind} responses")
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
    if arr.dtype.kind != "i" and np.any(arr >= 2.0**63):  # would wrap in the cast
        raise DomainError(f"{kind} responses must lie below 2**63")
    return np.asarray(arr, dtype=np.int64)


def _whole(v):
    # an integer, and not a bool, which Python counts as one
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _real(v):
    # a real number, not a bool, whose float value is finite
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return bool(np.isfinite(float(v)))
    except OverflowError:  # an int beyond float range
        return False


def _count(value, name, least=0):
    # an integer count of at least `least`, as a Python int; a seed is one
    # with least=0, the entropy np.random.SeedSequence accepts
    if not (_whole(value) and value >= least):
        bound = {0: "a nonnegative integer", 1: "a positive integer"}.get(least)
        raise ConfigError(f"{name} must be {bound or f'an integer >= {least}'}, got {value!r}")
    return int(value)


def _config_keys(cfg, what, known, required=()):
    # a parsed config mapping with only known keys and every required one
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} config must be a mapping, got {type(cfg).__name__}")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"{what} config missing keys: {sorted(missing)}")


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
        self.x = np.asarray(_numeric(self.x, "covariates"), dtype=float)
        if self.x.ndim != 2:
            raise DomainError(f"covariates must be 2-D, got shape {self.x.shape}")
        if self.x.shape[0] == 0:
            raise DomainError("a dataset needs at least one row")
        if self.x.shape[1] == 0:
            raise DomainError("a dataset needs at least one covariate column")
        if not np.all(np.isfinite(self.x)):
            raise DomainError("covariates must be finite")
        self.y = _check_responses(self.kind, self.y, self.x.shape[0])

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]


class Family:
    """Common interface of the regression families.

    Subclasses declare ``name``, ``kind``, ``exact`` (a finite or
    truncatable response support, enabling exact loss evaluation),
    ``log_param`` (a positive parameter stored as its log after the ``d``
    coefficients, making ``raw_dim`` ``d + 1`` rather than ``d``) and
    ``uses_special`` (calls to ``scipy.special``, imported when built).
    The estimators only draw from a family and use its score, so no family
    needs a density.  A family defines ``_at(theta, x)``, the per-theta
    state (``x`` and its predictors, scales and weights), and its two
    consumers ``_draw(state, rng)`` and ``_score(state, y)``.  ``sample``
    and ``grad_log_density`` are their checked wrappers; a gradient step
    evaluates ``_at`` once for both its draws and its score.
    """

    name = "family"
    kind = "real"
    exact = False
    log_param = None
    uses_special = True

    def __init__(self, d):
        self.d = _count(d, "covariate dimension", 1)
        self.raw_dim = self.d if self.log_param is None else self.d + 1
        if self.uses_special:
            _special()

    # raw <-> natural -------------------------------------------------

    def natural(self, theta):
        """Constrained view of a raw vector, as a flat float array."""
        theta = self.check_theta(theta)
        if self.log_param is None:
            return theta.copy()
        return np.concatenate([theta[: self.d], [np.exp(theta[self.d])]])

    def natural_names(self):
        if self.log_param is None:
            return [f"theta{i + 1}" for i in range(self.d)]
        return [f"beta{i + 1}" for i in range(self.d)] + [self.log_param]

    # core operations -------------------------------------------------

    def sample(self, theta, x, rng):
        """Draw responses, one per row of ``x``.

        Precondition: ``theta`` and ``x`` are finite.  Only their shapes
        are checked here; callers pass arrays checked at their entry.
        """
        return self._draw(self._at(*self._args(theta, x)), rng)

    def grad_log_density(self, theta, x, y):
        """Score in raw coordinates, shape ``(n, raw_dim)``.

        Precondition: ``theta`` and ``x`` are finite and ``y`` holds
        responses of the family's kind, as a ``Dataset`` or
        :meth:`sample` provides.  Only shapes are checked here; values
        outside the domain (a gamma response of 0) give non-finite
        scores rather than an error.
        """
        theta, x, y = self._args(theta, x, y)
        return self._score(self._at(theta, x), y)

    def support(self, theta, x):
        """Exact families only: response values ``(k,)`` and row-wise
        probabilities ``(n, k)``."""
        raise DomainError(f"{self.name} has no finite response support")

    # validation helpers ---------------------------------------------
    # ``_theta`` and ``_args`` check shapes only, for the fit loop's
    # trusted arrays; ``check_theta`` also scans values.

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

    def _args(self, theta, x, *response):
        # one family call's arguments: theta, x (a (d,) row becomes (1, d)), y if given
        theta = self._theta(theta)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DomainError(f"{self.name} expects covariates with d={self.d}, got shape {x.shape}")
        if not response:
            return theta, x
        n = x.shape[0]
        y = np.asarray(response[0])
        if y.shape != ((n, 2) if self.kind == "censored" else (n,)):
            raise DomainError(f"{self.name} expects {n} responses, got shape {y.shape}")
        return theta, x, y


class GaussianLinear(Family):
    """Linear model with Gaussian noise: ``y ~ N(beta' x, sigma^2)``.

    Raw parameters: ``(beta_1..beta_d, log sigma)``.
    """

    name = "gaussian_linear"
    kind = "real"
    log_param = "sigma"
    uses_special = False

    def _at(self, theta, x):
        # the score scales by exp(-log sigma), which 1 / sigma need not equal
        return x, x @ theta[: self.d], np.exp(theta[self.d]), np.exp(-theta[self.d])

    def _draw(self, state, rng):
        _, mean, sigma, _ = state
        # in place, the same two roundings as mean + sigma * draws
        draws = rng.standard_normal(mean.shape[0])
        draws *= sigma
        draws += mean
        return draws

    def _score(self, state, y):
        x, mean, _, inv_sigma = state
        z = (y - mean) * inv_sigma
        g = np.empty((x.shape[0], self.raw_dim))
        np.multiply((z * inv_sigma)[:, None], x, out=g[:, : self.d])
        g[:, self.d] = z * z - 1.0
        return g


class Logistic(Family):
    """Binary response with ``P(y = 1 | x) = 1 / (1 + exp(-theta' x))``."""

    name = "logistic"
    kind = "binary"
    exact = True

    def _at(self, theta, x):
        return x, _special().expit(x @ theta)

    def _draw(self, state, rng):
        _, p = state
        return (rng.random(p.shape[0]) < p).astype(np.int64)

    def _score(self, state, y):
        x, p = state
        return (y - p)[:, None] * x

    def support(self, theta, x):
        _, p = self._at(*self._args(self.check_theta(theta), x))
        return np.array([0.0, 1.0]), np.column_stack([1.0 - p, p])


def _poisson_ppf(q, mu):
    # The Poisson quantile poisson.ppf(q, mu) for 0 < q < 1 and rates
    # mu >= 0 (or nan, giving nan), by the formula of scipy's
    # poisson_gen._ppf, so the package loads only the special-function
    # module.  A scalar rate gives a float64 scalar, as poisson.ppf does.
    k = np.ceil(_special().pdtrik(q, mu))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(_special().pdtr(below, mu) >= q, below, k)[()]


class Poisson(Family):
    """Count response with log link: ``y ~ Poisson(exp(theta' x))``."""

    name = "poisson"
    kind = "count"
    exact = True

    def _at(self, theta, x):
        return x, np.exp(x @ theta)

    def _draw(self, state, rng):
        try:
            return rng.poisson(state[1]).astype(np.int64)
        except ValueError as exc:  # numpy rejects rates beyond about 1e19
            raise NumericalError(f"poisson rate out of range: {exc}") from None

    def _score(self, state, y):
        x, rate = state
        return (y - rate)[:, None] * x

    def support(self, theta, x):
        x, rate = self._at(*self._args(self.check_theta(theta), x))
        # Truncate where the remaining tail mass at the largest rate drops
        # below 1e-12; with no rows the cut-off is that of rate 0, i.e. 0.
        top_rate = rate.max(initial=0.0)
        top = _poisson_ppf(1.0 - _COUNT_TAIL_MASS, top_rate)
        cells = x.shape[0] * (top + 1.0)
        if not cells <= _MAX_TABLE_CELLS:  # also false for a nan cut-off
            raise NumericalError(
                f"poisson support at rate {top_rate:.3g} needs {cells:.3g} table cells, "
                f"above the cap of {_MAX_TABLE_CELLS}"
            )
        values = np.arange(int(top) + 1, dtype=float)
        logp = values[None, :] * np.log(np.maximum(rate, 1e-300))[:, None]
        logp -= rate[:, None] + _special().gammaln(values + 1.0)[None, :]
        return values, np.exp(logp)


class GammaRegression(Family):
    """Gamma regression with log mean link and a free shape.

    ``y ~ Gamma(shape nu, rate nu * exp(-beta' x))``, so the conditional
    mean is ``exp(beta' x)``.  Raw parameters: ``(beta_1..beta_d, log nu)``.
    """

    name = "gamma"
    kind = "real"
    log_param = "shape"

    def _at(self, theta, x):
        xb = x @ theta[: self.d]
        nu = np.exp(theta[self.d])
        return x, xb, theta[self.d], nu, np.exp(xb) / nu

    def _draw(self, state, rng):
        *_, nu, scale = state
        # Generator.gamma(nu, scale) draws scale * standard_gamma(nu) per
        # element in row order, so this is the same stream and the same
        # values; an array scale sends gamma down its slower broadcasting
        # path, a scalar shape fills all rows in one call.
        return scale * rng.standard_gamma(nu, size=scale.shape[0])

    def _score(self, state, y):
        x, xb, log_nu, nu, _ = state
        scaled = y * np.exp(-xb)
        g = np.empty((x.shape[0], self.raw_dim))
        np.multiply((nu * (scaled - 1.0))[:, None], x, out=g[:, : self.d])
        g[:, self.d] = nu * (log_nu + 1.0 - xb - _special().digamma(nu) + np.log(y) - scaled)
        return g


def _inverse_mills(a):
    # phi(a) / Phi(a), computed in log space; stable far into the left tail.
    return np.exp(-0.5 * _LOG_2PI - 0.5 * a * a - _special().log_ndtr(a))


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
        # each block's free columns; a full block's as a slice, which copies nothing
        self._free_cols = [slice(None) if s.all() else np.flatnonzero(s)
                           for s in (self.outcome_support, self.selection_support)]

    def _as_support(self, support):
        if support is None:
            return np.ones(self.d, dtype=bool)
        support = np.asarray(support, dtype=bool)
        if support.shape != (self.d,):
            raise ConfigError(f"support mask must have shape ({self.d},)")
        if not support.any():
            raise ConfigError("support mask must keep at least one covariate")
        return support

    def natural(self, theta):
        theta = np.where(self.free_mask, self.check_theta(theta), 0.0)
        return np.concatenate(
            [theta[: 2 * self.d], [np.exp(theta[2 * self.d]), np.tanh(theta[2 * self.d + 1])]]
        )

    def natural_names(self):
        return (
            [f"beta{i + 1}" for i in range(self.d)]
            + [f"gamma{i + 1}" for i in range(self.d)]
            + ["sigma", "rho"]
        )

    def _at(self, theta, x):
        theta = np.where(self.free_mask, theta, 0.0)  # excluded coefficients are 0
        rho = np.tanh(theta[2 * self.d + 1])
        return (x, x @ theta[: self.d], x @ theta[self.d : 2 * self.d],
                np.exp(theta[2 * self.d]), rho, np.sqrt(1.0 - rho * rho))

    def _draw(self, state, rng):
        x, mu1, mu2, sigma, rho, root = state
        e1 = rng.standard_normal(x.shape[0])
        e2 = rng.standard_normal(x.shape[0])
        z1 = mu1 + sigma * e1
        z2 = mu2 + rho * e1 + root * e2
        selected = z2 > 0.0
        return np.column_stack([np.where(selected, z1, 0.0), selected.astype(float)])

    def _score(self, state, y):
        x, mu1, mu2, sigma, rho, root = state
        sel = np.flatnonzero(y[:, 1] == 1.0)
        unsel = np.flatnonzero(y[:, 1] != 1.0)
        # Each branch's Mills ratio on that branch's rows only.
        z1 = (y[sel, 0] - mu1[sel]) / sigma
        lin = mu2[sel] + rho * z1
        mills = _inverse_mills(lin / root)
        d_mu1, d_mu2, d_log_sigma, d_atanh_rho = np.zeros((4, x.shape[0]))
        d_mu1[sel] = z1 / sigma - mills * rho / (sigma * root)
        d_mu2[sel] = mills / root
        d_mu2[unsel] = -_inverse_mills(-mu2[unsel])
        d_log_sigma[sel] = z1 * z1 - 1.0 - mills * rho * z1 / root
        d_atanh_rho[sel] = mills * (z1 / root + lin * rho / root ** 3) * (1.0 - rho * rho)
        # a frozen coefficient's score is 0: only free columns are filled
        g = np.zeros((x.shape[0], self.raw_dim))
        for block, (d_mu, cols) in enumerate(zip((d_mu1, d_mu2), self._free_cols)):
            g[:, block * self.d : (block + 1) * self.d][:, cols] = d_mu[:, None] * x[:, cols]
        g[:, 2 * self.d] = d_log_sigma
        g[:, 2 * self.d + 1] = d_atanh_rho
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
        self.n_components = _count(n_components, "n_components (two components or more)", 2)
        self.raw_dim = self.n_components * (self.d + 1) + self.n_components - 1

    def _split(self, theta):
        m, d = self.n_components, self.d
        betas = theta[: m * d].reshape(m, d)
        sigmas = np.exp(theta[m * d : m * d + m])
        logits = np.concatenate([theta[m * d + m :], [0.0]])
        weights = _special().softmax(logits)
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

    def _at(self, theta, x):
        betas, sigmas, weights = self._split(theta)
        return x, x @ betas.T, sigmas, weights

    def _draw(self, state, rng):
        _, means, sigmas, weights = state
        comp = rng.choice(self.n_components, size=means.shape[0], p=weights)
        picked = np.take_along_axis(means, comp[:, None], axis=1)[:, 0]
        return picked + sigmas[comp] * rng.standard_normal(means.shape[0])

    def _score(self, state, y):
        x, means, sigmas, weights = state
        z = (y[:, None] - means) / sigmas[None, :]
        logc = -0.5 * _LOG_2PI - np.log(sigmas)[None, :] - 0.5 * z * z + np.log(weights)[None, :]
        resp = np.exp(logc - _special().logsumexp(logc, axis=1, keepdims=True))
        m, d = self.n_components, self.d
        g = np.empty((x.shape[0], self.raw_dim))
        for j in range(m):
            g[:, j * d : (j + 1) * d] = (resp[:, j] * z[:, j] / sigmas[j])[:, None] * x
        g[:, m * d : m * d + m] = resp * (z * z - 1.0)
        g[:, m * d + m :] = resp[:, : m - 1] - weights[None, : m - 1]
        return g


_FAMILY_REGISTRY = {
    cls.name: cls
    for cls in (GaussianLinear, Logistic, Poisson, GammaRegression, Heckman, GaussianMixture)
}
# each family holds the checked wrappers as its own methods, which the
# benchmark's per-family probes (perfbench/probes.py) wrap
for _family in _FAMILY_REGISTRY.values():
    _family.sample, _family.grad_log_density = Family.sample, Family.grad_log_density


def get_family(name, d, **kwargs):
    """Instantiate a registered family by name."""
    try:
        cls = _FAMILY_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown family {name!r}; known: {sorted(_FAMILY_REGISTRY)}"
        ) from None
    known = set(inspect.signature(cls).parameters) - {"d"}
    unknown = set(kwargs) - known
    if unknown:
        raise ConfigError(f"{name} takes no keyword {sorted(unknown)}; known: {sorted(known)}")
    return cls(d, **kwargs)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A named synthetic data-generating process with its evaluation target.

    ``recipe_means`` holds the contamination means, keyed by recipe, that
    differ from the recipe's own default.
    """

    name: str
    d: int
    family_name: str
    family_kwargs: dict = field(default_factory=dict)
    truth_raw: np.ndarray
    report_mask: np.ndarray
    recipe_means: dict = field(default_factory=dict)

    def make_family(self):
        return get_family(self.family_name, self.d, **self.family_kwargs)

    @property
    def truth_natural(self):
        # derived when read: building a family at import would load scipy.special
        return self.make_family().natural(self.truth_raw)


_SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            name="gauss_linear_laplace",
            d=8,
            family_name="gaussian_linear",
            truth_raw=np.array([4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, np.log(1.0)]),
            # the noise is misspecified, so only the coefficients are scored
            report_mask=np.arange(9) < 8,
        ),
        Scenario(
            name="heckman_synthetic",
            d=8,
            family_name="heckman",
            family_kwargs={
                "outcome_support": np.arange(8) < 4,
                "selection_support": np.arange(8) >= 4,
            },
            truth_raw=np.array(
                [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]
                + [0.0, 0.0, 0.0, 0.0, 4.0, 3.0, 2.0, 1.0]
                + [np.log(1.5), np.arctanh(0.5)]
            ),
            report_mask=np.ones(18, dtype=bool),
        ),
        Scenario(
            name="gamma_synthetic",
            d=8,
            family_name="gamma",
            truth_raw=np.append(np.ones(8), np.log(1.0)),
            report_mask=np.ones(9, dtype=bool),
            recipe_means={"type_x": -0.5},
        ),
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
    n = _count(n, "sample size", 1)
    seed = _count(seed, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((n, scenario.d))
    family = scenario.make_family()
    truth = family.natural(scenario.truth_raw)
    if scenario.name == "gauss_linear_laplace":
        y = x @ truth[: scenario.d] + rng.laplace(0.0, truth[scenario.d], size=n)
    else:
        y = family.sample(scenario.truth_raw, x, rng)
    meta = {
        "scenario": scenario.name,
        "seed": seed,
        "truth_raw": scenario.truth_raw.tolist(),
        "truth_natural": truth.tolist(),
        "report_mask": scenario.report_mask.tolist(),
    }
    return family, Dataset(x, y, family.kind, meta)
