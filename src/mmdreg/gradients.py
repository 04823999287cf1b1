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
stays unbiased for the complete sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import elementwise, gram
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


def top_pairs(kx, m):
    """Indices of the ``m`` unordered pairs with the largest kernel weight.

    Ties break toward the lexicographically smallest ``(i, j)``, and NaN
    weights rank last.  ``np.partition`` finds the ``m``-th largest
    weight; only the pairs not below it are sorted, so beyond the
    ``n(n-1)/2`` upper-triangle weights the work and memory scale with
    the kept set plus any ties at the cut.

    Args:
        kx: symmetric covariate kernel matrix, shape ``(n, n)``.
        m: number of pairs to keep (capped at the pair count).

    Returns:
        Pair of int arrays ``(i, j)`` with ``i < j``, heaviest first.
    """
    kx = np.asarray(kx)
    n = kx.shape[0]
    if kx.shape != (n, n):
        raise DomainError(f"kx must be square, got {kx.shape}")
    # boolean indexing is row-major, so position t holds pair _pair_from_linear(t, n)
    w = kx[np.arange(n)[:, None] < np.arange(n)]
    m = min(max(0, int(m)), w.size)
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    kth = -np.partition(-w, m - 1)[m - 1]
    # "not below" rather than ">=" keeps NaN weights when fewer than m are finite
    cand = np.flatnonzero(~(w < kth))
    ci, cj = _pair_from_linear(cand, n)
    keep = np.lexsort((cj, ci, -w[cand]))[:m]
    return ci[keep], cj[keep]


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

    Holds the covariate kernel matrix, the deterministic heavy-pair set,
    and the bookkeeping needed to sample uniformly from the remaining
    unordered pairs.
    """

    n: int
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
        shift = np.searchsorted(self.comp_base, ranks, side="right")
        return _pair_from_linear(ranks + shift, self.n)


def build_pair_cache(x_kernel, x, m_det):
    """Rank covariate pairs by kernel weight and freeze the top ``m_det``."""
    x = np.asarray(x, dtype=float)
    kx = gram(x_kernel, x, x)
    n = x.shape[0]
    total = n * (n - 1) // 2
    det_i, det_j = top_pairs(kx, min(int(m_det), total))
    det_linear = np.sort(_linear_from_pair(det_i, det_j, n))
    comp_base = det_linear - np.arange(det_linear.size)
    return PairCache(
        n=n,
        kx=kx,
        det_i=det_i,
        det_j=det_j,
        det_kx=kx[det_i, det_j],
        det_linear=det_linear,
        comp_base=comp_base,
        total_pairs=total,
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
        yield si, sj, cache.kx[si, sj], cache.remaining / m_samp
