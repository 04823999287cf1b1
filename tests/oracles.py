"""Reference implementations the tests check the package against.

None of them is built on the code it checks: nothing here imports
``mmdreg.objective``, ``mmdreg.gradients`` or ``mmdreg.dataio``, nor any
private package name, and ``tests/test_oracles.py`` checks that.  Inputs
are not checked.

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
the ``KernelSpec`` docstring.  :func:`gaussian_draws`,
:func:`gaussian_score`, :func:`gamma_draws`, :func:`gamma_score` and
:func:`heckman_score` are the straightforward forms of the Gaussian
sampler and score (a fresh array for every term), of the gamma sampler
(``Generator.gamma`` with an array scale) and score, and of the Heckman
score (every branch on every row, then ``np.where``) that the package's
faster forms must match bit for bit.  :func:`top_pairs_oracle` ranks every pair
of a dense covariate Gram.  :func:`csv_text` and :func:`csv_read` are the
dataset CSV format value by value and line by line; they import nothing
from ``mmdreg.dataio``.
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


def link_term(family, theta, dataset, kernel, *, mode=None, budget=100, rng=None):
    """Off-diagonal part of the quadratic objective, as a float.

    Sums, over unordered covariate pairs ``i < j``, the covariate kernel
    times both orientations of the cross loss (model draws at one
    covariate against the observation at the other).  ``mode`` is
    ``"exact"`` (support enumeration, the default for families with a
    finite support) or ``"mc"``: the mean over ``budget`` replicates,
    drawing as the quadratic objective does, so when all three draw from
    generators in the same state the identity ``hat = tilde + link``
    holds to rounding.
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
    rng = np.random.default_rng(rng)
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


def gaussian_draws(family, theta, x, rng):
    """Gaussian linear draws at rows ``x``: ``mean + sigma *
    rng.standard_normal(n)``, each term a fresh array."""
    d = family.d
    mean = x @ theta[:d]
    sigma = np.exp(theta[d])
    return mean + sigma * rng.standard_normal(x.shape[0])


def gaussian_score(family, theta, x, y):
    """Gaussian linear raw score ``(n, d + 1)``: ``z / sigma * x`` and
    ``z**2 - 1`` with ``z`` the standardised residual."""
    d = family.d
    inv_sigma = np.exp(-theta[d])
    z = (y - x @ theta[:d]) * inv_sigma
    return np.column_stack([(z * inv_sigma)[:, None] * x, z * z - 1.0])


def gamma_score(family, theta, x, y):
    """Gamma regression raw score ``(n, d + 1)`` in the coefficients and
    ``log nu``, with ``scaled = y exp(-beta' x)``."""
    d = family.d
    nu = np.exp(theta[d])
    xb = x @ theta[:d]
    scaled = y * np.exp(-xb)
    return np.column_stack([(nu * (scaled - 1.0))[:, None] * x,
                            nu * (theta[d] + 1.0 - xb - special.digamma(nu) + np.log(y) - scaled)])


def gamma_draws(family, theta, x, rng):
    """Gamma regression draws at rows ``x``: ``rng.gamma`` with shape
    ``nu`` and the array scale ``exp(beta' x) / nu``."""
    d = family.d
    nu = np.exp(theta[d])
    return rng.gamma(shape=nu, scale=np.exp(x @ theta[:d]) / nu)


_LOG_2PI = float(np.log(2.0 * np.pi))


def _mills(a):
    # phi(a) / Phi(a) in log space
    return np.exp(-0.5 * _LOG_2PI - 0.5 * a * a - special.log_ndtr(a))


def heckman_score(family, theta, x, y):
    """Heckman raw score ``(n, 2 d + 2)``: both branches' terms on every
    row, the observed branch picked by ``np.where``, excluded
    coefficients frozen at zero with zero score."""
    d = family.d
    theta = np.where(family.free_mask, theta, 0.0)
    mu1, mu2 = x @ theta[:d], x @ theta[d : 2 * d]
    sigma, rho = np.exp(theta[2 * d]), np.tanh(theta[2 * d + 1])
    selected = y[:, 1] == 1.0
    root = np.sqrt(1.0 - rho * rho)
    z1 = (y[:, 0] - mu1) / sigma
    arg = (mu2 + rho * z1) / root
    mills = _mills(arg)
    d_mu1 = np.where(selected, z1 / sigma - mills * rho / (sigma * root), 0.0)
    d_mu2 = np.where(selected, mills / root, -_mills(-mu2))
    d_log_sigma = np.where(selected, z1 * z1 - 1.0 - mills * rho * z1 / root, 0.0)
    d_arg_d_rho = z1 / root + (mu2 + rho * z1) * rho / root**3
    d_atanh_rho = np.where(selected, mills * d_arg_d_rho * (1.0 - rho * rho), 0.0)
    g = np.zeros((x.shape[0], 2 * d + 2))
    g[:, :d] = d_mu1[:, None] * x
    g[:, d : 2 * d] = d_mu2[:, None] * x
    g[:, 2 * d] = d_log_sigma
    g[:, 2 * d + 1] = d_atanh_rho
    g[:, ~family.free_mask] = 0.0
    return g


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
        return math.exp(-r / spec.gamma)
    if spec.family == "gaussian":
        return math.exp(-r * r / (2.0 * spec.gamma**2))
    s = math.sqrt(spec.m) * r / spec.gamma
    return {1: 1.0, 3: 1.0 + s, 5: 1.0 + s + s * s / 3.0}[spec.m] * math.exp(-s)


def top_pairs_oracle(kx, m):
    """The ``m`` heaviest upper-triangle pairs of a dense covariate Gram
    ``kx``: a full lexsort of every pair by ``(-k, i, j)``."""
    iu, ju = np.triu_indices(kx.shape[0], k=1)
    order = np.lexsort((ju, iu, -kx[iu, ju]))
    keep = order[: max(0, int(m))]
    return iu[keep], ju[keep]


def csv_text(dataset):
    """The bytes a dataset CSV holds: the header, then every value as
    ``format(v, ".17g")``, or ``str(int(v))`` for count and binary
    responses, comma-separated, one ``\\n``-terminated line per row."""
    d = dataset.x.shape[1]
    names = [f"x{j}" for j in range(1, d + 1)]
    names += ["y1", "y2"] if dataset.kind == "censored" else ["y"]
    out = [",".join(names) + "\n"]
    for i in range(dataset.x.shape[0]):
        cells = [format(float(v), ".17g") for v in dataset.x[i]]
        if dataset.kind == "censored":
            cells += [format(float(v), ".17g") for v in dataset.y[i]]
        elif dataset.kind in ("count", "binary"):
            cells.append(str(int(dataset.y[i])))
        else:
            cells.append(format(float(dataset.y[i]), ".17g"))
        out.append(",".join(cells) + "\n")
    return "".join(out).encode("utf-8")


def csv_read(path, kind=None, strict=True):
    """What loading the dataset CSV at ``path`` gives, by a per-line,
    per-token ``float()`` scan.

    Returns ``(x, y, kind)`` with float arrays (``y`` of shape ``(n,)``,
    or ``(n, 2)`` for a ``y1,y2`` header), or the text of the error the
    loader raises: the first fault in file order, with its 1-based line
    number.  Lines are those of ``str.splitlines`` on the file's bytes
    decoded as UTF-8, or the decode error is the fault; blank and
    whitespace-only lines are skipped but keep their numbers.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text: {exc}"
    if not lines:
        return f"{path}: empty file"
    names = [name.strip() for name in lines[0].split(",")]
    if len(names) >= 3 and names[-2:] == ["y1", "y2"]:
        n_y = 2
    elif len(names) >= 2 and names[-1] == "y":
        n_y = 1
    else:
        return f"{path}: header must be x1,...,xd,y or x1,...,xd,y1,y2, got {lines[0]!r}"
    d = len(names) - n_y
    if names[:d] != [f"x{j}" for j in range(1, d + 1)]:
        return f"{path}: covariate columns must be named x1..x{d}"
    if n_y == 2:
        if kind not in (None, "censored"):
            return f"{path}: pair header implies censored responses, not {kind!r}"
        kind = "censored"
    elif kind is None:
        kind = "real"
    elif kind not in ("real", "count", "binary"):
        return f"{path}: scalar header cannot hold {kind!r} responses"
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        at = f"{path}: line {lineno}:"
        toks = line.split(",")
        if len(toks) != d + n_y:
            return f"{at} expected {d + n_y} fields, found {len(toks)}"
        vals = []
        for tok in toks:
            try:
                v = float(tok)
            except ValueError:
                return f"{at} not a number: {tok!r}"
            if not math.isfinite(v):
                return f"{at} non-finite value {tok!r}"
            vals.append(v)
        y = vals[d:]
        if kind == "censored":
            if y[1] != 0.0 and y[1] != 1.0:
                return f"{at} selection indicator must be 0 or 1"
            if strict and y[1] == 0.0 and y[0] != 0.0:
                return (f"{at} unselected row must have y1=0 (got y1={y[0]!r}); "
                        "pass strict=False to keep it")
        elif kind != "real":
            if y[0] < 0.0 or y[0] != math.floor(y[0]):
                return f"{at} {kind} response must be a nonnegative integer, got {toks[d]!r}"
            if kind == "binary" and y[0] > 1.0:
                return f"{at} binary response must be 0 or 1"
            if y[0] >= 2.0**63:
                return f"{at} count response must lie below 2**63"
        rows.append(vals)
    if not rows:
        return f"{path}: no data rows"
    arr = np.array(rows, dtype=float)
    return arr[:, :d], (arr[:, d:] if n_y == 2 else arr[:, d]), kind
