"""Reference implementations the tests check the package against.

None of them is built on the code it checks: nothing here imports
``mmdreg.objective`` or ``mmdreg.gradients``, nor any private package
name, and ``tests/test_oracles.py`` checks that.  Inputs are not checked.

Per-observation losses and gradients.  Each enumerates a discrete
family's response support at one covariate row (the diagonal loss) or
at two (the cross loss, and its gradient through the law at the first
row only), from ``Family.support``, ``Family.grad_log_density`` and
``gram`` alone.  Diagonal loss at ``(x, y)``: ``E[k_y(Y, Y')] -
2 E[k_y(Y, y)]`` with ``Y, Y'`` independent model draws at ``x``; its
gradient is ``2 E[(k_y(Y, Y') - k_y(Y, y)) s(Y)]`` with ``s`` the
raw-parameter score.  Cross loss from ``x`` to the observation ``(x',
y')``: ``k_x(x, x') (E[k_y(Y, Y')] - 2 E[k_y(Y, y')])`` with ``Y`` drawn
at ``x`` and ``Y'`` at ``x'``.  Summing the one-sided gradient over both
orientations of an unordered pair gives the derivative of the pair's
total contribution to the quadratic objective.  :func:`link_term` sums
those pair contributions over a whole dataset, so the quadratic
objective equals the diagonal objective plus it.

:func:`repeated` carries a per-observation quantity over to the
dataset-level code: on ``B`` copies of one observation the objective is
``B`` times its diagonal loss, and the Monte Carlo objective or gradient
with one replicate, divided by ``B``, has the law of a per-observation
estimate from ``B`` draw pairs.

:func:`log_density` is each family's log density or mass, rebuilt from
``scipy.stats`` and decoding the raw parameters itself; the package has
no densities, only samplers and scores.  :func:`kernel_value` evaluates
a ``KernelSpec`` at two single points with ``math``, from the formulas in
the ``KernelSpec`` docstring.
"""

import math

import numpy as np
from scipy import special, stats

from mmdreg.kernels import gram
from mmdreg.models import Dataset


def _row(x):
    return np.asarray(x, dtype=float).reshape(1, -1)


def repeated(family, x, y, rows=1):
    """The observation ``(x, y)`` as a dataset of ``rows`` identical rows."""
    return Dataset(np.repeat(_row(x), rows, axis=0), np.full(rows, y), family.kind)


def _tables(family, theta, rows, y, ky):
    values, probs = family.support(theta, rows)
    kyy = gram(ky, values, values)
    kdata = gram(ky, values, np.array([y], dtype=float))[:, 0]
    return values, probs, kyy, kdata


def diag_loss(family, theta, x, y, ky):
    """Diagonal loss at one observation, under the response kernel ``ky``."""
    _, probs, kyy, kdata = _tables(family, theta, _row(x), y, ky)
    p = probs[0]
    return float(p @ kyy @ p - 2.0 * (p @ kdata))


def diag_grad(family, theta, x, y, ky):
    """Gradient of :func:`diag_loss` in raw coordinates."""
    xrow = _row(x)
    values, probs, kyy, kdata = _tables(family, theta, xrow, y, ky)
    p = probs[0]
    scores = family.grad_log_density(theta, np.repeat(xrow, values.shape[0], axis=0), values)
    w = kyy @ p - kdata
    return 2.0 * ((p * w) @ scores)


def _kx(kernel, x, x_other):
    return float(gram(kernel.x_kernel, _row(x), _row(x_other))[0, 0])


def cross_loss(family, theta, x, x_other, y_other, kernel):
    """Cross loss from ``x`` to the observation ``(x_other, y_other)``,
    under the product kernel ``kernel``."""
    rows = np.vstack([_row(x), _row(x_other)])
    _, probs, kyy, kdata = _tables(family, theta, rows, y_other, kernel.y_kernel)
    p, q = probs[0], probs[1]
    return _kx(kernel, x, x_other) * float(p @ kyy @ q - 2.0 * (p @ kdata))


def cross_grad(family, theta, x, x_other, y_other, kernel):
    """Gradient of :func:`cross_loss` through the law at ``x`` only."""
    rows = np.vstack([_row(x), _row(x_other)])
    values, probs, kyy, kdata = _tables(family, theta, rows, y_other, kernel.y_kernel)
    p, q = probs[0], probs[1]
    scores = family.grad_log_density(theta, np.repeat(_row(x), values.shape[0], axis=0), values)
    w = kyy @ q - kdata
    return 2.0 * _kx(kernel, x, x_other) * ((p * w) @ scores)


def link_term(family, theta, dataset, kernel, *, mode=None, budget=100, rng=None, seed=None):
    """Off-diagonal part of the quadratic objective, as a float.

    Sums, over unordered covariate pairs ``i < j``, the covariate kernel
    times both orientations of the cross loss (model draws at one
    covariate against the observation at the other).  ``mode`` is
    ``"exact"`` (support enumeration, the default for families with a
    finite support) or ``"mc"``: the mean over ``budget`` replicates,
    drawing as the quadratic objective does, so under a shared seed the
    identity ``hat = tilde + link`` holds to rounding.
    """
    if mode is None:
        mode = "exact" if family.exact else "mc"
    n = dataset.n
    kx = gram(kernel.x_kernel, dataset.x, dataset.x)
    iu, ju = np.triu_indices(n, k=1)
    kx_pairs = kx[iu, ju]
    ky = kernel.y_kernel
    if mode == "exact":
        values, probs = family.support(theta, dataset.x)
        kyy = gram(ky, values, values)
        kdata = gram(ky, values, np.asarray(dataset.y, dtype=float))
        cross = probs @ kyy @ probs.T
        data = probs @ kdata
        pair_vals = 2.0 * cross[iu, ju] - 2.0 * data[iu, ju] - 2.0 * data[ju, iu]
        return float(np.sum(kx_pairs * pair_vals))
    if rng is None:
        rng = np.random.default_rng(None if seed is None else np.random.SeedSequence(seed))
    totals = np.empty(budget)
    for p in range(budget):
        ya = family.sample(theta, dataset.x, rng)
        yb = family.sample(theta, dataset.x, rng)
        cross = gram(ky, ya, yb)
        data = gram(ky, ya, dataset.y)
        pair_vals = cross[iu, ju] + cross[ju, iu] - 2.0 * data[iu, ju] - 2.0 * data[ju, iu]
        totals[p] = np.sum(kx_pairs * pair_vals)
    return float(totals.mean())


def log_density(family, theta, x, y):
    """Log density or mass of aligned responses ``y`` at covariate rows
    ``x``, shape ``(n,)``, for any registered family."""
    theta = np.asarray(theta, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    d = family.d
    if family.name == "gaussian_linear":
        return stats.norm.logpdf(y, x @ theta[:d], math.exp(theta[d]))
    if family.name == "logistic":
        return stats.bernoulli.logpmf(y, special.expit(x @ theta))
    if family.name == "poisson":
        return stats.poisson.logpmf(y, np.exp(x @ theta))
    if family.name == "gamma":
        nu = math.exp(theta[d])
        return stats.gamma.logpdf(y, nu, scale=np.exp(x @ theta[:d]) / nu)
    if family.name == "heckman":
        # excluded coefficients are frozen at zero
        keep = np.concatenate([family.outcome_support, family.selection_support, [True, True]])
        theta = np.where(keep, theta, 0.0)
        mu1, mu2 = x @ theta[:d], x @ theta[d : 2 * d]
        sigma, rho = math.exp(theta[2 * d]), math.tanh(theta[2 * d + 1])
        z1 = (y[:, 0] - mu1) / sigma
        selected = stats.norm.logpdf(y[:, 0], mu1, sigma) + stats.norm.logcdf(
            (mu2 + rho * z1) / math.sqrt(1.0 - rho * rho)
        )
        return np.where(y[:, 1] == 1.0, selected, stats.norm.logcdf(-mu2))
    if family.name == "mixture":
        m = family.n_components
        betas = theta[: m * d].reshape(m, d)
        sigmas = np.exp(theta[m * d : m * d + m])
        logits = np.append(theta[m * d + m :], 0.0)
        log_weights = logits - special.logsumexp(logits)
        comps = stats.norm.logpdf(y[:, None], x @ betas.T, sigmas) + log_weights
        return special.logsumexp(comps, axis=1)
    raise ValueError(f"no reference density for {family.name!r}")


def _psi(v):
    # the bounded map of the KernelSpec docstring, in its original form
    return 0.5 if v == 0.0 else 0.5 + (math.sqrt(v * v + 4.0) - 2.0) / (2.0 * v)


def kernel_value(spec, z, zp):
    """Scalar kernel value between two single points.

    Points are scalars or 1-D sequences; a product kernel takes pairs
    ``(x, y)``.
    """
    if spec.family == "product":
        return kernel_value(spec.x_kernel, z[0], zp[0]) * kernel_value(spec.y_kernel, z[1], zp[1])
    if spec.family == "affine_shift":
        return spec.beta * kernel_value(spec.child, z, zp) + (1.0 - spec.beta)
    a = [float(v) for v in np.ravel(z)]
    b = [float(v) for v in np.ravel(zp)]
    if spec.family == "psi_matern":
        a, b = [_psi(v) for v in a], [_psi(v) for v in b]
    r = math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b, strict=True)))
    if spec.family == "exponential":
        k = math.exp(-r / spec.gamma)
    elif spec.family == "gaussian":
        k = math.exp(-r * r / (2.0 * spec.gamma**2))
    else:
        s = math.sqrt(spec.m) * r / spec.gamma
        k = {1: 1.0, 3: 1.0 + s, 5: 1.0 + s + s * s / 3.0}[spec.m] * math.exp(-s)
    return spec.c * k
