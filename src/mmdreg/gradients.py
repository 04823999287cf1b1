"""Score-function gradients for the discrepancy objectives.

Every expectation in the objectives has the form ``E[w(Y) something]``
with ``Y`` drawn from the model, so its parameter gradient can be
written with the score ``d log p / d theta`` inside the expectation.
The estimator averages model draws for every family, discrete ones
included: fits step on Monte Carlo gradients only, so there is no
exact-mode gradient.

The quadratic objective has one pair loss per ordered covariate pair.
Rather than touching all of them every step, the full-gradient estimator
keeps a deterministic set of the heaviest pairs (by covariate kernel
weight) and reweights a without-replacement sample of the rest, which
stays unbiased for the complete sum.  No ``n x n`` array is formed: the
heaviest pairs are found by a k-d tree radius search, and sampled pairs
are weighed when drawn, so the pair cache holds O(n + m1) numbers.  A
pair's weight is the covariate kernel's profile at the distance between
its psi-mapped rows (``kernels._profile``), which equals the dense
covariate Gram's entry bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
# gram is bound here, unused, so probes that wrap this module's kernel
# calls (perfbench/probes.py) still find it: nothing here builds a Gram
from .kernels import (  # noqa: F401
    KernelSpec, _aligned_dists, _as_points, _bound_beyond, _coords, _profile,
    _x_kernel, _y_kernel, elementwise, gram,
)
from .models import _count, _whole
from .objective import _check_estimator, _dataset_for


def _linear_from_pair(i, j, n):
    # row-major enumeration of unordered pairs i < j
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _pair_from_linear(t, n):
    t = np.asarray(t, dtype=np.int64)
    b = 2 * n - 1
    # floor(x / 2) as floor(0.5 x): the same exact value, many times faster
    # than numpy's float floor division
    i = np.floor(0.5 * (b - np.sqrt(b * b - 8.0 * t))).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    # one-step corrections for sqrt rounding
    start = i * n - i * (i + 1) // 2
    i = i - (start > t)
    nxt = (i + 1) * n - (i + 1) * (i + 2) // 2
    i = i + (nxt <= t)
    start = i * n - i * (i + 1) // 2
    j = t - start + i + 1
    return i, j


def _widen(r, fits):
    # smallest radius above r, to a relative 1e-12, at which fits() holds
    lo, hi = r, max(2.0 * r, np.finfo(float).tiny)
    while not fits(hi):
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            return hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _pairs_outside(base, ranks, n):
    # the pairs of the given ranks, in (i, j) order, among those
    # whose linear index is not held; base is the sorted held indices
    # minus their positions.  Sorted keys search several times faster;
    # the offsets go back to the ranks' own order, which fixes the
    # summation order of the gradient.
    order = np.argsort(ranks)
    offsets = np.empty_like(ranks)
    offsets[order] = np.searchsorted(base, ranks[order], side="right")
    return _pair_from_linear(ranks + offsets, n)


def _kd_tree():
    # scipy's cKDTree, imported on first use: only hat fits need it, and
    # run_plan calls this before it forks so its workers need not import it
    from scipy.spatial import cKDTree
    return cKDTree


def top_pairs(x_kernel, x, m):
    """Indices of the ``m`` unordered pairs with the largest kernel weight.

    Ties break toward the lexicographically smallest ``(i, j)``: the
    result is the first ``m`` pairs of the full ranking by
    ``(-k(x_i, x_j), i, j)``, without forming the ``n x n`` matrix.

    Every radial kernel is non-increasing in (psi-warped) distance, and
    an affine shift with ``beta > 0`` keeps that order, so the heaviest
    pairs are the closest ones.  A k-d tree (Bentley 1975; Friedman,
    Bentley & Finkel 1977) gives each point's ``ceil(2m/n) + 1`` nearest
    others; the ``2m``-th smallest of those distances is a radius
    holding at least ``m`` pairs, since each pair is listed at most
    twice.  The pairs within it are weighed by the kernel's profile at
    their (psi-warped) distance and ranked.  The ranking is final once
    the kernel's bound beyond the radius is strictly below the ``m``-th
    weight; where the kernel is flat at the cut the radius widens until
    it is.  A cut at the kernel's floor (its value once the leaf
    underflows to 0, or everywhere when some ``beta`` is 0) is filled
    with the lexicographically first pairs that weigh exactly the floor.
    Memory scales with ``n`` plus the pairs within the final radius.

    Args:
        x_kernel: covariate kernel, radial or an affine shift of one.
        x: covariates, shape ``(n, p)`` (1-D input is ``(n, 1)``).
        m: number of pairs to keep, a nonnegative integer (capped at the
            pair count).

    Returns:
        Pair of int arrays ``(i, j)`` with ``i < j``, heaviest first.

    Raises:
        ConfigError: when ``m`` is not a nonnegative integer.
        DomainError: when a covariate is not finite.
        NumericalError: when a squared distance between the points
            overflows, which the tree's search refuses.
    """
    m = _count(m, "pair count")
    x = _as_points(x)
    if not np.all(np.isfinite(x)):
        raise DomainError("pair weights need finite covariates")
    z = _coords(x_kernel, x)
    n = z.shape[0]
    total = n * (n - 1) // 2
    m = min(m, total)
    floor = _bound_beyond(x_kernel, np.inf)
    if m == 0 or _bound_beyond(x_kernel, 0.0) <= floor:
        # every pair weighs the floor (some beta is 0)
        return _pair_from_linear(np.arange(m, dtype=np.int64), n)
    tree = _kd_tree()(z)
    dist, idx = tree.query(z, k=min(n, -(-2 * m // n) + 2))
    r = float(np.partition(dist[idx != np.arange(n)[:, None]], 2 * m - 1)[2 * m - 1])
    while True:
        # the relative slack covers the tree's and _aligned_dists' rounding
        # of the same distance, so a pair left out is farther than r
        try:
            ci, cj = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
        except ValueError:  # the tree squares distances and refuses an overflow
            raise NumericalError("squared covariate distances overflow the pair search") from None
        w = _profile(x_kernel, _aligned_dists(z[ci], z[cj]))
        order = np.lexsort((cj, ci, -w))
        cut = w[order[m - 1]]
        beyond = _bound_beyond(x_kernel, r)
        if beyond < cut or not np.isfinite(r):
            return ci[order[:m]], cj[order[:m]]
        if beyond <= floor:
            heavy = order[: np.count_nonzero(w > floor)]
            base = np.sort(_linear_from_pair(ci[heavy], cj[heavy], n)) - np.arange(heavy.size)
            fi, fj = _pairs_outside(base, np.arange(m - heavy.size, dtype=np.int64), n)
            return np.concatenate([ci[heavy], fi]), np.concatenate([cj[heavy], fj])
        # widen until the bound falls below the cut, or to the floor when
        # the cut is the floor (the bound never falls below it)
        limit = max(cut, np.nextafter(floor, np.inf))
        r = _widen(r, lambda s: _bound_beyond(x_kernel, s) < limit)


def sample_pair_indices(total, m, rng):
    """Simple random sample without replacement of ``m`` ints from ``range(total)``.

    One ``rng.choice(total, size=m, replace=False, shuffle=False)``.
    When ``total <= 10_000`` or ``m <= total // 20``, numpy runs Floyd's
    algorithm (Bentley & Floyd 1987): step ``k`` draws ``t_k`` uniform on
    ``[0, j_k]`` with ``j_k = total - m + k`` and keeps ``t_k``, or
    ``j_k`` when ``t_k`` was already kept, and the values come back in
    step order, not sorted.  Otherwise it shuffles the first ``m``
    entries of a ``total``-long index array, which then holds fewer than
    ``20 m`` entries.  Either way the sample is reproducible bit for bit
    from the generator's state.
    """
    if not (_whole(m) and _whole(total) and 0 <= m <= total):
        raise DomainError(f"cannot sample {m!r} from {total!r}")
    return rng.choice(total, size=m, replace=False, shuffle=False)


@dataclass(frozen=True)
class PairCache:
    """Precomputed pair structure for repeated quadratic-gradient steps.

    Holds the kernel and covariates it was built from (``x_kernel``,
    ``x``), the covariates as the kernel measures them (``kx``, psi-warped
    for a ``psi_matern`` leaf), the deterministic heavy-pair set with its
    weights, and the bookkeeping to sample the remaining unordered pairs.
    A pair's weight is the kernel's profile at the distance between its
    ``kx`` rows.  Every array is of size ``n`` or ``m_det``; sampled
    pairs are weighed when drawn, by :meth:`weights`.
    """

    n: int
    x_kernel: KernelSpec
    x: np.ndarray
    kx: np.ndarray
    det_i: np.ndarray
    det_j: np.ndarray
    det_kx: np.ndarray
    det_linear: np.ndarray
    comp_base: np.ndarray
    total_pairs: int

    @property
    def remaining(self):
        return self.total_pairs - self.det_linear.size

    def sample_remaining(self, m, rng):
        """Uniform SRSWOR of ``m`` non-deterministic pairs, as index arrays."""
        ranks = sample_pair_indices(self.remaining, m, rng)
        return _pairs_outside(self.comp_base, ranks, self.n)

    def weights(self, i, j):
        """Covariate kernel weights of pairs ``(i, j)``, equal bit for bit
        to the entries ``gram(x_kernel, x, x)[i, j]``."""
        return _profile(self.x_kernel,
                        _aligned_dists(self.kx.take(i, axis=0), self.kx.take(j, axis=0)))


def build_pair_cache(x_kernel, x, m_det):
    """Rank covariate pairs by kernel weight and freeze the top ``m_det``."""
    x = _as_points(x)
    det_i, det_j = top_pairs(x_kernel, x, m_det)
    kx = _coords(x_kernel, x)
    n = kx.shape[0]
    det_linear = np.sort(_linear_from_pair(det_i, det_j, n))
    return PairCache(
        n=n,
        x_kernel=x_kernel,
        x=x,
        kx=kx,
        det_i=det_i,
        det_j=det_j,
        det_kx=_profile(x_kernel, _aligned_dists(kx[det_i], kx[det_j])),
        det_linear=det_linear,
        comp_base=det_linear - np.arange(det_linear.size),
        total_pairs=n * (n - 1) // 2,
    )


def grad_objective_estimate(
    family,
    theta,
    dataset,
    kernel,
    estimator="tilde",
    *,
    cache=None,
    m_samp=None,
    rng_draws=None,
    rng_pairs=None,
):
    """Unbiased Monte Carlo gradient of an empirical objective.

    For ``estimator="tilde"`` this is the sum of diagonal-loss gradients.
    For ``"hat"`` it adds the off-diagonal pair derivatives: every pair in
    the deterministic set contributes exactly, and a without-replacement
    sample of ``m_samp`` remaining pairs is reweighted to cover the rest.
    One set of model draws is shared by the diagonal and both
    orientations of every pair, which leaves the estimator unbiased.

    Args:
        family: response family.
        theta: raw parameter vector.
        dataset: observations.
        kernel: response kernel; a product kernel is required for ``"hat"``.
        cache: the :func:`build_pair_cache` result for the dataset's
            covariates and ``kernel.x_kernel``, required for ``"hat"``.
        m_samp: sampled pair count, a nonnegative integer;
            defaults to ``n``.
        rng_draws: stream for model draws.
        rng_pairs: stream for pair subsampling.

    Each stream is drawn from as passed; an omitted one is a fresh
    unseeded generator.

    Returns:
        The summed gradient, shape ``(raw_dim,)``.
    """
    dataset = _dataset_for(family, dataset)
    theta = family.check_theta(theta)
    _check_estimator(estimator)
    m_samp = dataset.n if m_samp is None else _count(m_samp, "m_samp")
    rng_draws = np.random.default_rng(rng_draws)
    rng_pairs = np.random.default_rng(rng_pairs)
    ky = _y_kernel(kernel)
    x = dataset.x
    n = dataset.n
    yobs = np.asarray(dataset.y, dtype=float)
    if estimator == "hat":
        x_kernel = _x_kernel(kernel)
        if cache is None:
            raise ConfigError("the quadratic-cost gradient needs a pair cache")
        if cache.x_kernel != x_kernel:
            raise ConfigError("the pair cache was built with another covariate kernel")
        if cache.n != n:
            raise DomainError(f"the pair cache covers {cache.n} rows, the dataset has {n}")
        if cache.x is not x and not np.array_equal(cache.x, x):
            raise DomainError("the pair cache was built from other covariates")
        m_samp = min(m_samp, cache.remaining)
    grad = np.zeros(family.raw_dim)
    ya = family.sample(theta, x, rng_draws)
    yb = family.sample(theta, x, rng_draws)
    scores = family.grad_log_density(theta, x, ya)
    w = elementwise(ky, ya, yb) - elementwise(ky, ya, yobs)
    # each diagonal term's covariate weight k(x_i, x_i) is exactly 1
    grad += 2.0 * (w @ scores)
    if estimator != "hat":
        return grad
    batches = [(cache.det_i, cache.det_j, cache.det_kx, 1.0)] if cache.det_i.size else []
    if m_samp > 0 and cache.remaining > 0:
        si, sj = cache.sample_remaining(m_samp, rng_pairs)
        batches.append((si, sj, cache.weights(si, sj), cache.remaining / m_samp))
    for idx_i, idx_j, weight, factor in batches:
        ya_i, ya_j = ya[idx_i], ya[idx_j]
        w_ij = elementwise(ky, ya_i, yb[idx_j]) - elementwise(ky, ya_i, yobs[idx_j])
        w_ji = elementwise(ky, ya_j, yb[idx_i]) - elementwise(ky, ya_j, yobs[idx_i])
        contrib = (2.0 * factor * weight * w_ij) @ scores.take(idx_i, axis=0)
        contrib += (2.0 * factor * weight * w_ji) @ scores.take(idx_j, axis=0)
        grad += contrib
    return grad
