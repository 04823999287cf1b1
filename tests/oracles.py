"""Exact per-observation losses and gradients, the references for the
dataset-level objective and gradient estimator.

Each function enumerates a discrete family's response support at one
covariate row (the diagonal loss) or at two (the cross loss, and its
gradient through the law at the first row only).  They are built from
``Family.support``, ``Family.grad_log_density`` and ``gram`` alone and
never call ``objective``, ``link_term`` or ``grad_objective_estimate``,
which the tests check against them.  Inputs are not checked.

Diagonal loss at ``(x, y)``: ``E[k_y(Y, Y')] - 2 E[k_y(Y, y)]`` with
``Y, Y'`` independent model draws at ``x``; its gradient is
``2 E[(k_y(Y, Y') - k_y(Y, y)) s(Y)]`` with ``s`` the raw-parameter
score.  Cross loss from ``x`` to the observation ``(x', y')``:
``k_x(x, x') (E[k_y(Y, Y')] - 2 E[k_y(Y, y')])`` with ``Y`` drawn at
``x`` and ``Y'`` at ``x'``.  Summing the one-sided gradient over both
orientations of an unordered pair gives the derivative of the pair's
total contribution to the quadratic objective.

:func:`repeated` carries a per-observation quantity over to the
dataset-level code: on ``B`` copies of one observation the objective is
``B`` times its diagonal loss, and the Monte Carlo objective or gradient
with one replicate, divided by ``B``, has the law of a per-observation
estimate from ``B`` draw pairs.
"""

import numpy as np

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
