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
are weighed when drawn, so the pair cache holds O(n + m1) numbers and
its weights equal the dense covariate Gram's entries bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DomainError
# gram is bound here, unused, so probes that wrap this module's kernel
# calls (perfbench/probes.py) still find it: nothing here builds a Gram
from .kernels import KernelSpec, _as_points, _psi, _radial, elementwise, gram  # noqa: F401
from .objective import (
    _dataset_for,
    _require_product,
    _resolve_rng,
    _y_kernel,
)


def _linear_from_pair(i, j, n):
    # row-major enumeration of unordered pairs i < j
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _pair_from_linear(t, n):
    t = np.asarray(t, dtype=np.int64)
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * t)) // 2).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    # one-step corrections for sqrt rounding
    start = i * n - i * (i + 1) // 2
    i = i - (start > t)
    nxt = (i + 1) * n - (i + 1) * (i + 2) // 2
    i = i + (nxt <= t)
    start = i * n - i * (i + 1) // 2
    j = t - start + i + 1
    return i, j


def _leaf(spec):
    # the radial kernel under a chain of affine shifts
    while spec.family == "affine_shift":
        spec = spec.child
    if spec.family == "product":
        raise ConfigError("the covariate kernel must be radial or an affine shift of one")
    return spec


def _dewarp(spec):
    if spec.family == "affine_shift":
        return replace(spec, child=_dewarp(spec.child))
    return replace(spec, family="matern")


def _kernel_coords(x_kernel, x):
    """The covariates as the kernel measures them, and the kernel there.

    For a ``psi_matern`` leaf the points are psi-warped once and the
    leaf becomes the plain ``matern`` of the same order and scale, so
    ``elementwise`` on gathered warped rows equals the ``gram`` entries
    of the original kernel bit for bit.
    """
    x = _as_points(x)
    if _leaf(x_kernel).family != "psi_matern":
        return x_kernel, x
    return _dewarp(x_kernel), _psi(x)


def _shift(spec, v):
    # spec's affine shifts applied to leaf values, as kernels._evaluate does
    if spec.family == "affine_shift":
        return spec.beta * _shift(spec.child, v) + (1.0 - spec.beta)
    return v


def _bound_beyond(spec, r):
    """Upper bound on ``spec`` at every distance of at least ``r``.

    Every radial leaf decreases with distance in exact arithmetic, but
    its rounded value can rise by a few ulps (or subnormal steps) along
    the way, so the leaf at ``r`` is padded before the affine shifts,
    which round monotonically, are applied.  A leaf that has underflowed
    to 0 stays 0 further out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(_radial(_leaf(spec), np.array([r]))[0])
    if v != 0.0:
        v = v * (1.0 + 2.0**-40) + 1e-320
    return _shift(spec, v)


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
    # the pairs of the given ranks, in (i, j) order, among those whose
    # linear index is not held; base is the sorted held indices minus
    # their positions
    return _pair_from_linear(ranks + np.searchsorted(base, ranks, side="right"), n)


def top_pairs(x_kernel, x, m):
    """Indices of the ``m`` unordered pairs with the largest kernel weight.

    Ties break toward the lexicographically smallest ``(i, j)``: the
    result is the first ``m`` pairs of the full ranking by
    ``(-k(x_i, x_j), i, j)``, without forming the ``n x n`` matrix.

    Every radial kernel is non-increasing in (psi-warped) distance, and
    scaling by ``c`` or an affine shift with ``beta > 0`` keeps that
    order, so the heaviest pairs are the closest ones.  A k-d tree
    (Bentley 1975; Friedman, Bentley & Finkel 1977) gives each point's
    ``ceil(2m/n) + 1`` nearest others; the ``2m``-th smallest of those
    distances is a radius holding at least ``m`` pairs, since each pair
    is listed at most twice.  The pairs within it are weighed with
    ``elementwise`` and ranked.  The ranking is final once the kernel's
    bound beyond the radius is strictly below the ``m``-th weight;
    where the kernel is flat at the cut the radius widens until it is.
    A cut at the kernel's floor (its value once the leaf underflows to
    0, or everywhere when some ``beta`` is 0) is filled with the
    lexicographically first pairs that weigh exactly the floor.  Memory
    scales with ``n`` plus the pairs within the final radius.

    Args:
        x_kernel: covariate kernel, radial or an affine shift of one.
        x: covariates, shape ``(n, p)`` (1-D input is ``(n, 1)``).
        m: number of pairs to keep (capped at the pair count).

    Returns:
        Pair of int arrays ``(i, j)`` with ``i < j``, heaviest first.
    """
    spec, z = _kernel_coords(x_kernel, x)
    n = z.shape[0]
    total = n * (n - 1) // 2
    m = min(max(0, int(m)), total)
    floor = _shift(spec, 0.0)
    if m == 0 or _bound_beyond(spec, 0.0) <= floor:
        # every pair weighs the floor (some beta is 0)
        return _pair_from_linear(np.arange(m, dtype=np.int64), n)
    tree = cKDTree(z)
    dist, idx = tree.query(z, k=min(n, -(-2 * m // n) + 2))
    r = float(np.partition(dist[idx != np.arange(n)[:, None]], 2 * m - 1)[2 * m - 1])
    while True:
        # the relative slack covers the tree's and elementwise's rounding
        # of the same distance, so a pair left out is farther than r
        ci, cj = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
        w = elementwise(spec, z[ci], z[cj])
        order = np.lexsort((cj, ci, -w))
        cut = w[order[m - 1]]
        beyond = _bound_beyond(spec, r)
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
        r = _widen(r, lambda s: _bound_beyond(spec, s) < limit)


def sample_pair_indices(total, m, rng):
    """Simple random sample without replacement of ``m`` ints from ``range(total)``.

    Floyd's algorithm (Bentley & Floyd 1987): step ``k`` draws ``t_k``
    uniform on ``[0, j_k]`` with ``j_k = total - m + k`` and keeps
    ``t_k``, or ``j_k`` when ``t_k`` was already kept.  All draws come
    from one ``rng.integers`` call, so the stream, the values and their
    (insertion, not sorted) order are reproducible bit for bit.  No
    ``total``-sized allocation.

    ``t_k`` collides when it repeats an earlier draw or equals ``j_l``
    for an earlier step ``l`` that collided.  Repeats are found by a
    stable sort.  Only draws at or above ``total - m`` can equal some
    ``j_l``; they are resolved one by one in step order, and for
    ``m << total`` there are about ``m^2 / (2 total)`` of them.
    """
    if not (0 <= m <= total):
        raise DomainError(f"cannot sample {m} from {total}")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    base = total - m
    js = np.arange(base, total, dtype=np.int64)
    ts = rng.integers(0, js + 1)
    order = np.argsort(ts, kind="stable")
    ranked = ts[order]
    hit = np.zeros(m, dtype=bool)
    # the sort is stable, so within a run of equal draws all but the first repeat
    hit[order[1:][ranked[1:] == ranked[:-1]]] = True
    # in step order, so hit[l] is final for every l < k; t == j_k reads
    # hit[k] itself, which is True only when t_k already repeats
    high = np.flatnonzero(ts >= base)
    for k, t in zip(high.tolist(), ts[high].tolist()):
        if hit[t - base]:
            hit[k] = True
    return np.where(hit, js, ts)


@dataclass(frozen=True)
class PairCache:
    """Precomputed pair structure for repeated quadratic-gradient steps.

    Holds the covariates as the kernel measures them (``kx``, psi-warped
    for a ``psi_matern`` leaf), the kernel on those coordinates, the
    deterministic heavy-pair set with its weights, and the bookkeeping
    needed to sample uniformly from the remaining unordered pairs.
    Every array is of size ``n`` or ``m_det``; sampled pairs are weighed
    when drawn, by :meth:`weights`.
    """

    n: int
    kx: np.ndarray
    kernel: KernelSpec
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
        return elementwise(self.kernel, self.kx[i], self.kx[j])


def build_pair_cache(x_kernel, x, m_det):
    """Rank covariate pairs by kernel weight and freeze the top ``m_det``."""
    kernel, kx = _kernel_coords(x_kernel, x)
    n = kx.shape[0]
    det_i, det_j = top_pairs(kernel, kx, m_det)
    det_linear = np.sort(_linear_from_pair(det_i, det_j, n))
    return PairCache(
        n=n,
        kx=kx,
        kernel=kernel,
        det_i=det_i,
        det_j=det_j,
        det_kx=elementwise(kernel, kx[det_i], kx[det_j]),
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
    pairs=1,
    rng_draws=None,
    rng_pairs=None,
    seed=None,
):
    """Unbiased Monte Carlo gradient of an empirical objective.

    For ``estimator="tilde"`` this is the sum of diagonal-loss gradients.
    For ``"hat"`` it adds the off-diagonal pair derivatives: every pair in
    the deterministic set contributes exactly, and a without-replacement
    sample of ``m_samp`` remaining pairs is reweighted to cover the rest.
    One set of model draws per replicate is shared by the diagonal and
    both orientations of every pair, which leaves the estimator unbiased.

    Args:
        family: response family.
        theta: raw parameter vector.
        dataset: observations.
        kernel: response kernel; a product kernel is required for ``"hat"``.
        cache: optional prebuilt :class:`PairCache` (``"hat"`` only);
            built here with ``n`` deterministic pairs when omitted.
        m_samp: sampled pair count per replicate; defaults to ``n``.
        pairs: number of independent draw replicates to average.
        rng_draws: stream for model draws.
        rng_pairs: stream for pair subsampling.
        seed: convenience; derives both streams when neither is given.

    Returns:
        The summed gradient, shape ``(raw_dim,)``.
    """
    dataset = _dataset_for(family, dataset)
    theta = family.check_theta(theta)
    if not (isinstance(pairs, (int, np.integer)) and pairs >= 1):
        raise ConfigError("pairs must be a positive integer")
    if estimator not in ("tilde", "hat"):
        raise ConfigError(f"estimator must be 'tilde' or 'hat', got {estimator!r}")
    if rng_draws is None and rng_pairs is None and seed is not None:
        ss = np.random.SeedSequence(seed)
        kids = ss.spawn(2)
        rng_draws = np.random.default_rng(kids[0])
        rng_pairs = np.random.default_rng(kids[1])
    rng_draws = _resolve_rng(rng_draws, None)
    rng_pairs = _resolve_rng(rng_pairs, None)
    ky = _y_kernel(kernel)
    x = dataset.x
    n = dataset.n
    yobs = np.asarray(dataset.y, dtype=float)
    if estimator == "hat":
        kernel = _require_product(kernel)
        if cache is None:
            cache = build_pair_cache(kernel.x_kernel, x, n)
        if m_samp is None:
            m_samp = n
        m_samp = min(int(m_samp), cache.remaining)
    grad = np.zeros(family.raw_dim)
    for _ in range(int(pairs)):
        ya = family.sample(theta, x, rng_draws)
        yb = family.sample(theta, x, rng_draws)
        scores = family.grad_log_density(theta, x, ya)
        w = elementwise(ky, ya, yb) - elementwise(ky, ya, yobs)
        grad += 2.0 * (w @ scores)
        if estimator != "hat":
            continue
        for idx_i, idx_j, weight, factor in _pair_batches(cache, m_samp, rng_pairs):
            w_ij = elementwise(ky, ya[idx_i], yb[idx_j]) - elementwise(ky, ya[idx_i], yobs[idx_j])
            w_ji = elementwise(ky, ya[idx_j], yb[idx_i]) - elementwise(ky, ya[idx_j], yobs[idx_i])
            contrib = (2.0 * factor * weight * w_ij) @ scores[idx_i]
            contrib += (2.0 * factor * weight * w_ji) @ scores[idx_j]
            grad += contrib
    return grad / pairs


def _pair_batches(cache, m_samp, rng_pairs):
    if cache.det_i.size:
        yield cache.det_i, cache.det_j, cache.det_kx, 1.0
    if m_samp > 0 and cache.remaining > 0:
        si, sj = cache.sample_remaining(m_samp, rng_pairs)
        yield si, sj, cache.weights(si, sj), cache.remaining / m_samp
