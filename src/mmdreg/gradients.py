"""Score-function gradients for the discrepancy objectives.

Every expectation in the objectives has the form ``E[w(Y) something]``
with ``Y`` drawn from the model, so its parameter gradient can be
written with the score ``d log p / d theta`` inside the expectation.
The estimator averages model draws for every family, discrete ones
included: fits step on Monte Carlo gradients only, so there is no
exact-mode gradient.

The quadratic objective has one pair loss per ordered covariate pair.
Rather than touching all of them every step, the full-gradient estimator
keeps a deterministic set of the heaviest pairs and reweights a
without-replacement sample of the rest, which stays unbiased for the
complete sum.  The covariate kernel is non-increasing in the distance
``d`` between its (psi-mapped) rows, so the set is the first ``m1``
pairs by ``(d, i, j)``: an exact key, which one k-d tree radius search
covers with no widening.  No ``n x n`` array is formed, and sampled pairs
are weighed when drawn, so the pair cache holds O(n + m1) numbers.  A
pair's weight is the covariate kernel's profile at that distance
(``kernels._profile``), which equals the dense covariate Gram's entry
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
# gram is bound here, unused, so probes that wrap this module's kernel
# calls (perfbench/probes.py) still find it: nothing here builds a Gram
from .kernels import (  # noqa: F401
    KernelSpec, _aligned_dists, _as_points, _coords, _profile,
    _x_kernel, _y_kernel, elementwise, gram,
)
from .models import _count, _whole
from .objective import _dataset_for


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


def _identical_pairs(group, counts, m):
    # The first m pairs of identical rows in (i, j) order, in O(n + m)
    # memory, from each row's group and the group sizes: each row pairs
    # with the later rows of its group.
    n = group.size
    order = np.argsort(group, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    later = (np.cumsum(counts) - 1)[group] - rank
    rows = np.arange(np.searchsorted(np.cumsum(later), m) + 1)
    count = later[rows]
    ci = np.repeat(rows, count)
    step = np.arange(ci.size) - np.repeat(np.cumsum(count) - count, count)
    return ci[:m], order[np.repeat(rank[rows] + 1, count) + step][:m]


def top_pairs(x_kernel, x, m):
    """Indices of the ``m`` closest unordered pairs, the heaviest ones.

    The result is the first ``m`` pairs of the full ranking by
    ``(d, i, j)``, without forming the ``n x n`` matrix.  ``d`` is the
    distance between rows as the kernel measures them (psi-warped for a
    ``psi_matern`` leaf), by the reduction :func:`gram` uses.  Every
    radial kernel, and every affine shift of one, is non-increasing in
    ``d``; where weights round alike at different distances, the closer
    pair, whose true weight is the larger, comes first.

    The rows are first grouped by value.  When identical rows make at
    least ``m`` pairs, the first ``m`` pairs are tied at distance 0; they
    are read from the groups in ``O(n + m)`` time and memory, however many
    pairs tie, and no tree is built.  Coordinates nonzero but below
    ``2**-480`` in magnitude, whose squared differences can underflow to
    0, skip this and take the radius search.

    Otherwise a k-d tree (Bentley 1975; Friedman, Bentley & Finkel 1977)
    gives each point's ``ceil(2m/n) + 1`` nearest others; the ``2m``-th
    smallest of those distances is a radius holding at least ``m`` pairs,
    since each pair is listed at most twice.  The key is the distance
    itself, so all of the first ``m`` pairs lie within that radius and it
    never needs widening.  Memory scales with ``n`` plus the pairs within
    the radius.

    Args:
        x_kernel: covariate kernel, radial or an affine shift of one.
        x: covariates, shape ``(n, p)`` (1-D input is ``(n, 1)``).
        m: number of pairs to keep, a nonnegative integer (capped at the
            pair count).

    Returns:
        Pair of int arrays ``(i, j)`` with ``i < j``, closest first.

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
    m = min(m, n * (n - 1) // 2)
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # distance 0 is identical rows unless tiny differences' squares
    # underflow; m or more pairs at distance 0 are then the first m.
    # unique compares values, so -0.0 groups with 0.0
    if not np.any((z != 0.0) & (np.abs(z) < 2.0**-480)):
        _, group, counts = np.unique(z, axis=0, return_inverse=True, return_counts=True)
        if counts @ (counts - 1) // 2 >= m:
            return _identical_pairs(group.reshape(n), counts, m)
    tree = _kd_tree()(z)
    dist, idx = tree.query(z, k=min(n, -(-2 * m // n) + 2))
    r = float(np.partition(dist[idx != np.arange(n)[:, None]], 2 * m - 1)[2 * m - 1])
    # the relative slack covers the tree's and _aligned_dists' rounding of
    # the same distance, so a pair left out is farther than the m-th
    try:
        ci, cj = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
    except ValueError:  # the tree squares distances and refuses an overflow
        raise NumericalError("squared covariate distances overflow the pair search") from None
    order = np.lexsort((cj, ci, _aligned_dists(z[ci], z[cj])))[:m]
    return ci[order], cj[order]


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
    for a ``psi_matern`` leaf), the deterministic set with its weights,
    and the bookkeeping to sample the remaining unordered pairs.  The set
    is the first ``m_det`` pairs by ``(d, i, j)``, ``d`` the distance
    between ``kx`` rows (:func:`top_pairs`), and a pair's weight is the
    kernel's profile at ``d``.  Every array is of size ``n`` or ``m_det``; sampled
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
    """Freeze the ``m_det`` closest covariate pairs (:func:`top_pairs`'
    ``(d, i, j)`` rule: one radius, no widening) with their weights, each
    equal bit for bit to its :func:`gram` entry."""
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
    *,
    cache=None,
    m_samp=None,
    rng_draws=None,
    rng_pairs=None,
):
    """Unbiased Monte Carlo gradient of an empirical objective.

    Without a ``cache`` this is the tilde gradient, the sum of diagonal-loss
    gradients.  A ``cache`` selects the hat gradient, which adds the pair
    derivatives: every pair of the cache's deterministic set exactly, and a
    without-replacement sample of ``m_samp`` others reweighted to cover the rest.
    One set of model draws is shared by the diagonal and both
    orientations of every pair, which leaves the estimator unbiased.

    Args:
        family: response family.
        theta: raw parameter vector.
        dataset: observations.
        kernel: response kernel; with a cache, a product kernel.
        cache: ``None``, or the :func:`build_pair_cache` result for the
            dataset's covariates and ``kernel.x_kernel``.
        m_samp: sampled pair count, a nonnegative integer, read only
            with a cache; defaults to ``n``.
        rng_draws: stream for model draws.
        rng_pairs: stream for pair subsampling.

    Each stream is drawn from as passed; an omitted one is a fresh
    unseeded generator.

    Returns:
        The summed gradient, shape ``(raw_dim,)``.
    """
    dataset = _dataset_for(family, dataset)
    theta = family.check_theta(theta)
    m_samp = dataset.n if m_samp is None else _count(m_samp, "m_samp")
    rng_draws = np.random.default_rng(rng_draws)
    rng_pairs = np.random.default_rng(rng_pairs)
    ky = _y_kernel(kernel)
    x = dataset.x
    n = dataset.n
    yobs = np.asarray(dataset.y, dtype=float)
    if cache is not None:
        if cache.x_kernel != _x_kernel(kernel):
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
    if cache is None:
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
