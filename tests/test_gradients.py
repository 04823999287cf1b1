"""Unit tests for the score-function gradient estimators.

Oracles: the exact per-observation gradients of ``tests/oracles.py``,
which central finite differences of the exact objective check in turn,
a pathwise common-random-numbers gradient of the Monte Carlo objective
for the continuous family, direct
enumeration for the pair-sampling combinatorics, and plain reference
implementations (a Python-loop Floyd sampler, a full lexsort of every
pair of the dense covariate distance matrix) for the vectorised pair
sampler and the Gram-free top-pair selection.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mmdreg.errors import ConfigError, DomainError, NumericalError
from mmdreg.fitting import default_kernel
from mmdreg.gradients import (
    build_pair_cache,
    grad_objective_estimate,
    sample_pair_indices,
    top_pairs,
)
from mmdreg import gradients
from mmdreg.gradients import _linear_from_pair, _pair_from_linear
from mmdreg.kernels import _coords, _cross_dists
from mmdreg.kernels import (
    affine_shift_kernel,
    exponential_kernel,
    gaussian_kernel,
    gram,
    matern_kernel,
    product_kernel,
    psi_matern_kernel,
)
from mmdreg.models import Dataset, get_family, get_scenario, simulate_dataset
from mmdreg.objective import objective
from oracles import cross_grad, diag_grad, link_term, repeated, top_pairs_oracle

KY = exponential_kernel(1.0)

# Fixed example sequence so the property tests are deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def stream(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def streams(seed):
    # draw and pair streams: the two children of one seed
    draws, pairs = np.random.SeedSequence(seed).spawn(2)
    return {"rng_draws": np.random.default_rng(draws), "rng_pairs": np.random.default_rng(pairs)}


def product(gamma_x):
    return product_kernel(psi_matern_kernel(gamma_x, m=1), KY)


def fd(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (f(up) - f(dn)) / (2.0 * h)
    return g


class TestGradTilde:
    def test_logistic_frozen(self):
        fam = get_family("logistic", 1)
        g = diag_grad(fam, np.zeros(1), np.array([1.0]), 1, KY)
        assert abs(g[0] - (-0.3160603)) < 1e-7
        assert abs(g[0] - (-(1.0 - math.exp(-1.0)) / 2.0)) < 1e-12
        ds = repeated(fam, [1.0], 1)
        assert abs(fd(lambda t: objective(fam, t, ds, KY).value, np.zeros(1))[0] - g[0]) < 1e-7

    def test_matches_fd_logistic(self):
        rng = np.random.default_rng(0)
        fam = get_family("logistic", 3)
        for _ in range(5):
            theta = rng.standard_normal(3)
            x = rng.standard_normal(3)
            y = int(rng.integers(0, 2))
            ds = repeated(fam, x, y)
            got = diag_grad(fam, theta, x, y, KY)
            want = fd(lambda t: objective(fam, t, ds, KY).value, theta)
            assert np.allclose(got, want, atol=1e-7)

    def test_matches_fd_poisson(self):
        fam = get_family("poisson", 2)
        theta = np.array([0.4, -0.1])
        x = np.array([0.8, 1.3])
        ds = repeated(fam, x, 2)
        got = diag_grad(fam, theta, x, 2, KY)
        want = fd(lambda t: objective(fam, t, ds, KY).value, theta)
        assert np.allclose(got, want, atol=1e-6)

    def test_mc_mean_matches_exact(self):
        fam = get_family("logistic", 2)
        theta = np.array([0.5, -0.3])
        x = np.array([1.0, 0.4])
        exact = diag_grad(fam, theta, x, 1, KY)
        ds = repeated(fam, x, 1, rows=40)
        rng = np.random.default_rng(1)
        reps = np.stack(
            [grad_objective_estimate(fam, theta, ds, KY, rng_draws=rng) / 40 for _ in range(400)]
        )
        se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
        assert np.all(np.abs(reps.mean(axis=0) - exact) < 4.5 * se + 1e-12)

    def test_mc_matches_pathwise_fd_gaussian(self):
        # Dual route for the continuous family: the fit path's score-form
        # gradient against a common-random-numbers pathwise finite
        # difference of the Monte Carlo objective.
        fam = get_family("gaussian_linear", 1)
        theta = np.array([0.8, math.log(0.9)])
        ds = repeated(fam, [0.6], 0.2, rows=200)

        def crn_loss(t, seed):
            return objective(fam, t, ds, KY, mode="mc", budget=1, rng=stream(seed)).value / 200

        score_reps = []
        path_reps = []
        for trial in range(300):
            score_reps.append(
                grad_objective_estimate(fam, theta, ds, KY, **streams(50_000 + trial)) / 200
            )
            path_reps.append(fd(lambda t: crn_loss(t, 90_000 + trial), theta, h=1e-5))
        score_reps = np.stack(score_reps)
        path_reps = np.stack(path_reps)
        diff = score_reps.mean(axis=0) - path_reps.mean(axis=0)
        se = np.sqrt(
            score_reps.var(axis=0, ddof=1) / 300 + path_reps.var(axis=0, ddof=1) / 300
        )
        assert np.all(np.abs(diff) < 4.5 * se + 1e-10)


class TestPairGradients:
    def test_one_sided_frozen(self):
        # Covariates 1 and 1 + log 2 under the unit exponential kernel
        # give weight 1/2; theta = 0 keeps both laws at even odds, so the
        # value is half the diagonal gradient at x = 1.
        fam = get_family("logistic", 1)
        kern = product_kernel(exponential_kernel(1.0), KY)
        g = cross_grad(fam, np.zeros(1), np.array([1.0]), np.array([1.0 + math.log(2.0)]), 1, kern)
        assert abs(g[0] - (-0.1580301)) < 1e-7
        assert abs(g[0] - (-(1.0 - math.exp(-1.0)) / 4.0)) < 1e-12

    def test_one_sided_is_partial_derivative(self):
        # The one-sided vector is the derivative of the unordered pair's
        # total contribution taken through the law at x only, with the
        # partner law frozen.
        rng = np.random.default_rng(2)
        fam = get_family("logistic", 2)
        theta0 = rng.standard_normal(2)
        xa, xb = rng.standard_normal(2), rng.standard_normal(2)
        ya, yb = 0, 1
        kern = product(0.5)
        kx = float(gram(kern.x_kernel, xa.reshape(1, -1), xb.reshape(1, -1))[0, 0])

        def pair_total_frozen_partner(t):
            values, probs_a = fam.support(t, xa.reshape(1, -1))
            _, probs_b = fam.support(theta0, xb.reshape(1, -1))
            p, q = probs_a[0], probs_b[0]
            kyy = gram(KY, values, values)
            kb = gram(KY, values, np.asarray([yb], dtype=float))[:, 0]
            ka = gram(KY, values, np.asarray([ya], dtype=float))[:, 0]
            forward = float(p @ kyy @ q - 2.0 * p @ kb)
            backward = float(q @ kyy @ p - 2.0 * q @ ka)
            return kx * (forward + backward)

        got = cross_grad(fam, theta0, xa, xb, yb, kern)
        assert np.allclose(got, fd(pair_total_frozen_partner, theta0), atol=1e-7)

    def test_orientation_sum_is_pair_derivative(self):
        # On a two-row dataset the link term is the pair's total
        # contribution, so its derivative is the two orientations' sum.
        rng = np.random.default_rng(3)
        fam = get_family("logistic", 2)
        theta = rng.standard_normal(2)
        xa, xb = rng.standard_normal(2), rng.standard_normal(2)
        ya, yb = 1, 0
        kern = product(0.5)
        ds = Dataset(np.vstack([xa, xb]), np.array([ya, yb]), "binary")
        ab = cross_grad(fam, theta, xa, xb, yb, kern)
        ba = cross_grad(fam, theta, xb, xa, ya, kern)
        want = fd(lambda t: link_term(fam, t, ds, kern), theta)
        assert np.allclose(ab + ba, want, atol=1e-7)

    def test_requires_product_kernel(self):
        fam = get_family("logistic", 1)
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 1]), "binary")
        cache = build_pair_cache(KY, ds.x, 1)
        with pytest.raises(ConfigError, match="product kernel"):
            grad_objective_estimate(fam, np.zeros(1), ds, KY, cache=cache)


class TestPairIndexing:
    def test_linear_round_trip_small(self):
        for n in (2, 3, 5, 57):
            total = n * (n - 1) // 2
            t = np.arange(total)
            i, j = _pair_from_linear(t, n)
            assert np.all(i < j) and np.all(j < n) and np.all(i >= 0)
            assert np.array_equal(_linear_from_pair(i, j, n), t)

    def test_linear_round_trip_large(self):
        n = 4000
        total = n * (n - 1) // 2
        rng = np.random.default_rng(4)
        t = rng.integers(0, total, size=20000)
        t = np.concatenate([t, [0, total - 1]])
        i, j = _pair_from_linear(t, n)
        assert np.array_equal(_linear_from_pair(i, j, n), t)

    def test_top_pairs_ranking(self):
        # distances 0.3, 0.8, 2.2, 2.5, 3.0, 3.3: the closest pairs weigh most
        x = np.array([0.0, 3.0, 0.8, 3.3])
        i, j = top_pairs(exponential_kernel(1.0), x, 3)
        assert list(zip(i, j)) == [(1, 3), (0, 2), (1, 2)]

    def test_top_pairs_tie_order(self):
        # equal distances break toward the smallest (i, j); a flat kernel
        # (beta = 0, every weight 1) still ranks by distance
        same = np.zeros((4, 2))
        flat = affine_shift_kernel(gaussian_kernel(1.0), 0.0)
        apart = np.arange(8.0).reshape(4, 2)
        for kern, x, every in (
            (gaussian_kernel(1.0), same, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            (flat, apart, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]),
        ):
            for m in (6, 4):
                i, j = top_pairs(kern, x, m)
                assert list(zip(i, j)) == every[:m]

    def test_top_pairs_distance_overflow(self):
        # the tree squares distances; one past float range is a package error
        kern = matern_kernel(1.0)
        for x in ([[0.0], [1e300], [0.5]], [[0.0, 0.0], [1e154, 1e154], [0.5, 0.5]]):
            with pytest.raises(NumericalError, match="overflow"):
                top_pairs(kern, x, 1)
        i, j = top_pairs(kern, [[0.0], [1e154], [0.5]], 1)
        assert list(zip(i, j)) == [(0, 2)]
        # a non-finite covariate is refused before the tree is built
        for bad in (np.inf, -np.inf, np.nan):
            for kern in (matern_kernel(1.0), psi_matern_kernel(0.01)):
                for rank in (top_pairs, build_pair_cache):
                    with pytest.raises(DomainError, match="finite covariates"):
                        rank(kern, [[0.0], [bad], [0.5]], 1)

    def test_srswor_basic(self):
        rng = np.random.default_rng(5)
        picks = sample_pair_indices(10, 10, rng)
        assert sorted(picks) == list(range(10))
        picks = sample_pair_indices(50, 7, rng)
        assert len(set(picks.tolist())) == 7
        assert picks.min() >= 0 and picks.max() < 50
        with pytest.raises(DomainError):
            sample_pair_indices(3, 4, rng)
        with pytest.raises(DomainError, match="cannot sample 1.5 from 10"):
            sample_pair_indices(10, 1.5, rng)

    @pytest.mark.parametrize("m", [-5, 2.5, True])
    def test_pair_count_must_be_whole(self, m):
        # not clamped to 0 or truncated to 2
        x = np.random.default_rng(7).standard_normal((8, 2))
        kern = psi_matern_kernel(0.5, m=1)
        with pytest.raises(ConfigError, match="pair count"):
            top_pairs(kern, x, m)
        with pytest.raises(ConfigError, match="pair count"):
            build_pair_cache(kern, x, m)

    def test_srswor_uniform_over_subsets(self):
        rng = np.random.default_rng(6)
        counts = {}
        draws = 6000
        for _ in range(draws):
            s = frozenset(sample_pair_indices(6, 3, rng).tolist())
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 20
        expected = draws / 20
        chisq = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chisq < stats.chi2.ppf(0.999, 19)

    def test_cache_complement_is_exact(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 2))
        cache = build_pair_cache(psi_matern_kernel(0.5, m=1), x, 10)
        total = 9 * 8 // 2
        comp = np.setdiff1d(np.arange(total), cache.det_linear)
        assert cache.remaining == comp.size
        si, sj = cache.sample_remaining(cache.remaining, np.random.default_rng(8))
        sampled = np.sort(_linear_from_pair(si, sj, 9))
        assert np.array_equal(sampled, comp)


    def test_sampled_pairs_keep_draw_order(self, monkeypatch):
        # the pairs come back in the order of their ranks, not sorted: that
        # order fixes the summation order of the gradient.  The held pairs
        # include the first and the last of the linear range, (0, 1) and
        # (7, 8), and one in the middle, (3, 4).
        x = np.array([0.0, 0.01, 1.0, 2.5, 2.52, 4.0, 5.5, 7.0, 7.01])
        cache = build_pair_cache(exponential_kernel(1.0), x, 3)
        total = 9 * 8 // 2
        assert cache.det_linear.tolist() == [0, _linear_from_pair(3, 4, 9), total - 1]
        comp = np.setdiff1d(np.arange(total), cache.det_linear)
        rank_orders = [
            np.arange(cache.remaining, dtype=np.int64)[::-1],
            np.random.default_rng(9).permutation(cache.remaining),
            np.array([0, cache.remaining - 1], dtype=np.int64),
            np.array([cache.remaining - 1, 0], dtype=np.int64),
        ]
        for ranks in rank_orders:
            def fixed(count, m, rng, ranks=ranks):
                assert (count, m) == (cache.remaining, ranks.size)
                return ranks
            monkeypatch.setattr(gradients, "sample_pair_indices", fixed)
            si, sj = cache.sample_remaining(ranks.size, None)
            assert np.array_equal(_linear_from_pair(si, sj, 9), comp[ranks])


def floyd_oracle(total, m, rng):
    # Floyd's algorithm as a plain loop over one vector of draws.
    if m == 0:
        return []
    js = np.arange(total - m, total, dtype=np.int64)
    ts = rng.integers(0, js + 1)
    seen = set()
    out = []
    for j, t in zip(js.tolist(), ts.tolist()):
        pick = t if t not in seen else j
        seen.add(pick)
        out.append(pick)
    return out


def assert_top_pairs_match(kern, x, ms=None):
    """The Gram-free selection equals the full lexsort of the dense
    distance matrix, and keeps the dense Gram's heaviest weights."""
    kx = gram(kern, x, x)
    z = _coords(kern, x)
    dist = _cross_dists(z, z)
    n = kx.shape[0]
    total = n * (n - 1) // 2
    w = np.sort(kx[np.triu_indices(n, k=1)])[::-1]
    if ms is None:
        at_tie = int(np.flatnonzero(w == w[total // 2])[0]) + 1 if total else 0
        ms = (0, 1, at_tie, total // 2, total, total + 5)
    for m in ms:
        got = top_pairs(kern, x, m)
        want = top_pairs_oracle(dist, m)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), m
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
        # the closest pairs weigh the most, up to rounding: one ulp below 1
        kept = np.sort(kx[got])[::-1]
        assert np.all(np.abs(kept - w[: kept.size]) <= 2.0**-53), m


def _duplicates(rng, width):
    return np.repeat(rng.standard_normal((8, width)), 4, axis=0)


def _lattice(rng, width):
    # integer grid points: many pairs at exactly equal distance
    return rng.integers(0, 3, size=(40, width)).astype(float)


def _spread(rng, width):
    return rng.standard_normal((40, width))


def _huddle(rng, width):
    # pairwise distances near 1e-9, where the kernel rounds to 1.0
    return 1e-9 * rng.standard_normal((40, width))


def _signed_zeros(rng, width):
    # -0.0 and 0.0 are one point
    return rng.choice([-0.0, 0.0, 1.0], size=(40, width))


def _saturated(rng, width):
    # psi maps both large values to 1.0: distinct rows, one point
    return rng.choice([1e20, 3e20, 0.0], size=(40, width))


def _tiny(rng, width):
    # differences whose squares underflow: distinct rows at distance 0
    return rng.choice([0.0, 1e-170, 3e-170, 1.0], size=(40, width))


# name -> (covariate kernel, point-set maker); every case puts exact ties
# at or beyond the cut for some m
TIE_CASES = {
    "duplicates": (psi_matern_kernel(0.01), _duplicates),
    "lattice": (matern_kernel(1.0, m=3), _lattice),
    "signed_zeros": (matern_kernel(1.0), _signed_zeros),
    "saturated_psi": (psi_matern_kernel(0.01), _saturated),
    "tiny_underflow": (matern_kernel(1.0), _tiny),
    "underflow": (gaussian_kernel(1e-3), _spread),
    "flat_at_one": (gaussian_kernel(1.0), _huddle),
    "flat_at_one_psi": (psi_matern_kernel(1.0, m=5), _huddle),
    "shift_beta_0": (affine_shift_kernel(gaussian_kernel(0.5), 0.0), _spread),
    "shift_beta_half": (affine_shift_kernel(exponential_kernel(0.5), 0.5), _lattice),
    "shift_beta_half_underflow": (affine_shift_kernel(gaussian_kernel(1e-3), 0.5), _spread),
}


def assert_sampler_matches_oracle(total, m, seed):
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    got = sample_pair_indices(total, m, rng)
    assert got.dtype == np.int64
    assert got.tolist() == floyd_oracle(total, m, ref)
    # the same m bounded draws either way, so both streams continue identically
    assert rng.integers(1 << 62) == ref.integers(1 << 62)


class TestPairOracles:
    @pytest.mark.parametrize(
        "total, m",
        [(1, 1), (7, 0), (2, 2), (5, 5), (9, 6), (10, 10), (100, 99), (1000, 1000),
         (1_996_000, 2000), (20_001, 1000)],
    )
    def test_sampler_matches_floyd_loop(self, total, m):
        # every case runs Floyd's algorithm: total <= 10_000 or
        # m <= total // 20, and (20_001, 1000) sits on that edge.  (2, 2)
        # and (5, 5) repeat draws two and three times over
        for seed in range(200):
            assert_sampler_matches_oracle(total, m, seed)

    @pytest.mark.parametrize("total, m", [(20_001, 1001), (200_000, 150_000)])
    def test_sampler_outside_floyd_branch(self, total, m):
        # past m > total // 20 the draw is not Floyd's: check a simple
        # random sample by its definition.  Each of the N = total values is
        # kept with probability p = m / N; over R = reps seeds the inclusion
        # counts have covariance R p (1 - p) N / (N - 1) (I - 1 1' / N), so
        # the scaled sum of squared deviations is close to chi-square on
        # N - 1 df
        reps = 400 if m < 10_000 else 40
        counts = np.zeros(total, dtype=np.int64)
        for seed in range(reps):
            picks = sample_pair_indices(total, m, np.random.default_rng(seed))
            assert picks.dtype == np.int64 and picks.shape == (m,)
            assert np.unique(picks).size == m
            assert picks.min() >= 0 and picks.max() < total
            counts += np.bincount(picks, minlength=total)
        again = sample_pair_indices(total, m, np.random.default_rng(reps - 1))
        assert np.array_equal(picks, again)
        p = m / total
        chisq = np.sum((counts - reps * p) ** 2) / (reps * p * (1.0 - p)) * (total - 1) / total
        assert stats.chi2.ppf(0.0005, total - 1) < chisq < stats.chi2.ppf(0.9995, total - 1)

    def test_top_pairs_matches_full_lexsort(self):
        rng = np.random.default_rng(17)
        kernels = (psi_matern_kernel(0.5), exponential_kernel(0.7), gaussian_kernel(1.5),
                   matern_kernel(2.0, m=3), affine_shift_kernel(gaussian_kernel(1.0), 0.5))
        for trial in range(60):
            n = int(rng.integers(2, 40))
            # small integer lattices: few distinct distances, so ties straddle every cut
            x = rng.integers(0, 3, size=(n, 1 + trial % 3)).astype(float)
            assert_top_pairs_match(kernels[trial % len(kernels)], x)

    def test_top_pairs_matches_full_lexsort_on_gram(self):
        rng = np.random.default_rng(18)
        x = np.round(rng.standard_normal((300, 2)), 1)  # repeated rows tie
        for m in (1, 300, 5000):
            assert_top_pairs_match(psi_matern_kernel(0.05, m=1), x, (m,))

    @pytest.mark.parametrize("width", [1, 2, 8])
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_top_pairs_tie_cases(self, case, width):
        kern, make = TIE_CASES[case]
        assert_top_pairs_match(kern, make(np.random.default_rng(19), width))

    def test_top_pairs_on_scenario_covariates(self):
        kern = psi_matern_kernel(0.01, m=1)
        for name in ("gauss_linear_laplace", "heckman_synthetic", "gamma_synthetic"):
            _, ds = simulate_dataset(name, 1000, seed=20)
            assert_top_pairs_match(kern, ds.x, (1, 1000, 4000))

    def test_cache_matches_top_pairs_oracle(self):
        x = np.random.default_rng(21).integers(0, 3, size=(30, 2)).astype(float)
        kern = affine_shift_kernel(psi_matern_kernel(0.5, m=3), 0.5)
        kx = gram(kern, x, x)
        z = _coords(kern, x)
        for m in (0, 7, 435, 500):
            cache = build_pair_cache(kern, x, m)
            want = top_pairs_oracle(_cross_dists(z, z), m)
            assert np.array_equal(cache.det_i, want[0]) and np.array_equal(cache.det_j, want[1])
            assert cache.det_kx.tobytes() == kx[want].tobytes()

    @PROPERTY
    @given(st.data())
    def test_top_pairs_property(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        width = data.draw(st.sampled_from([1, 2, 8]), label="width")
        # a coarse grid at a drawn scale, so duplicates and exact ties are common
        step = data.draw(st.sampled_from([1e-9, 0.25, 1.0, 40.0]), label="step")
        x = step * np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=width,
                                                        max_size=width),
                                               min_size=n, max_size=n)), dtype=float)
        x = x.reshape(n, width)
        gamma = data.draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]), label="gamma")
        leaf = data.draw(st.sampled_from([
            exponential_kernel(gamma), gaussian_kernel(gamma), matern_kernel(gamma, m=5),
            psi_matern_kernel(gamma, m=3)]), label="leaf")
        beta = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0]), label="beta")
        kern = leaf if beta is None else affine_shift_kernel(leaf, beta)
        total = n * (n - 1) // 2
        m = data.draw(st.integers(0, total + 2), label="m")
        assert_top_pairs_match(kern, x, (m,))

    @PROPERTY
    @given(st.data())
    def test_sampler_property(self, data):
        total = data.draw(st.integers(0, 5000), label="total")
        m = data.draw(st.integers(0, total), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        assert_sampler_matches_oracle(total, m, seed)

    @PROPERTY
    @given(st.data())
    def test_linear_pair_bijection(self, data):
        n = data.draw(st.integers(2, 10**8), label="n")
        total = n * (n - 1) // 2
        t = np.array(data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=8))
                     + [0, total - 1], dtype=np.int64)
        i, j = _pair_from_linear(t, n)
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert np.array_equal(_linear_from_pair(i, j, n), t)
        a = data.draw(st.integers(0, n - 2), label="i")
        b = data.draw(st.integers(a + 1, n - 1), label="j")
        ti = _linear_from_pair(a, b, n)
        back = _pair_from_linear(np.array([ti]), n)
        assert (int(back[0][0]), int(back[1][0])) == (a, b)


WEIGHT_KERNELS = {
    "exponential": exponential_kernel(0.7),
    "gaussian": gaussian_kernel(1.3),
    "matern1": matern_kernel(0.9, m=1),
    "matern3": matern_kernel(0.9, m=3),
    "matern5": matern_kernel(0.9, m=5),
    "psi_matern1": psi_matern_kernel(0.05, m=1),
    "psi_matern3": psi_matern_kernel(0.05, m=3),
    "psi_matern5": psi_matern_kernel(0.05, m=5),
    "shift": affine_shift_kernel(psi_matern_kernel(0.05, m=1), 0.3),
    "shift_nested": affine_shift_kernel(affine_shift_kernel(gaussian_kernel(1.3), 0.6), 0.8),
}


class TestPairCacheWeights:
    @pytest.mark.parametrize("width", [1, 2, 8])
    @pytest.mark.parametrize("name", sorted(WEIGHT_KERNELS))
    def test_weights_equal_gram_entries(self, name, width):
        # the pair weights of every step, and the deterministic set's,
        # are the dense Gram's entries bit for bit
        kern = WEIGHT_KERNELS[name]
        rng = np.random.default_rng(22)
        x = 2.0 * rng.standard_normal((60, width))
        kx = gram(kern, x, x)
        cache = build_pair_cache(kern, x, 40)
        assert cache.det_kx.tobytes() == kx[cache.det_i, cache.det_j].tobytes()
        si, sj = cache.sample_remaining(cache.remaining, rng)
        assert cache.weights(si, sj).tobytes() == kx[si, sj].tobytes()
        assert cache.weights(sj, si).tobytes() == kx[sj, si].tobytes()

    def test_build_memory_is_linear(self):
        # The dense 6,000 x 6,000 Gram alone is 288 MB.  tracemalloc sees
        # numpy's arrays, not the k-d tree's own nodes, which are O(n).
        x = np.random.default_rng(23).standard_normal((6000, 8))
        tracemalloc.start()
        try:
            cache = build_pair_cache(psi_matern_kernel(0.01), x, 6000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.det_i.size == 6000
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_build_memory_with_repeated_rows(self):
        # Rows from {0, 1}^2 tie at distance 0 in about n^2 / 8 pairs, of
        # which the cache keeps m; a radius search listing them all would
        # trace 32 MB here.
        n = m = 2000
        x = np.random.default_rng(24).integers(0, 2, size=(n, 2)).astype(float)
        build_pair_cache(psi_matern_kernel(0.01), x[:10], 10)  # scipy imported untraced
        tracemalloc.start()
        try:
            cache = build_pair_cache(psi_matern_kernel(0.01), x, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.det_i.size == m
        assert peak < 32 * (n + m) * 8, f"peak {peak / 1e6:.2f} MB"

    def test_build_on_repeated_rows_skips_the_tree(self, monkeypatch):
        # Rows from {0, 1}^3 make far more than m identical pairs, which the
        # row groups give in O(n + m) time; the tree's nearest-neighbour
        # query on such rows is quadratic in group size (12 s at n = 100,000)
        x = np.random.default_rng(25).integers(0, 2, size=(300, 3)).astype(float)
        kern = psi_matern_kernel(0.01)
        z = _coords(kern, x)

        def no_tree():
            raise AssertionError("a k-d tree was built")

        monkeypatch.setattr(gradients, "_kd_tree", no_tree)
        for m in (1, 300, 5000):
            cache = build_pair_cache(kern, x, m)
            want = top_pairs_oracle(_cross_dists(z, z), m)
            assert np.array_equal(cache.det_i, want[0]) and np.array_equal(cache.det_j, want[1])


def logistic_dataset(n, seed, d=2):
    rng = np.random.default_rng(seed)
    fam = get_family("logistic", d)
    theta = rng.standard_normal(d)
    x = rng.standard_normal((n, d))
    y = fam.sample(theta, x, rng)
    return fam, theta, Dataset(x, y, "binary")


class TestObjectiveGradient:
    def test_tilde_unbiased(self):
        fam, theta, ds = logistic_dataset(6, 9)
        exact = np.sum([diag_grad(fam, theta, ds.x[i], ds.y[i], KY) for i in range(6)], axis=0)
        rng = np.random.default_rng(10)
        reps = np.stack(
            [
                grad_objective_estimate(fam, theta, ds, KY, rng_draws=rng)
                for _ in range(4000)
            ]
        )
        se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
        assert np.all(np.abs(reps.mean(axis=0) - exact) < 4.5 * se + 1e-12)

    def test_hat_unbiased_with_subsampling(self):
        fam, theta, ds = logistic_dataset(6, 11)
        kern = product(0.5)
        want = fd(lambda t: objective(fam, t, ds, kern, "hat").value, theta)
        cache = build_pair_cache(kern.x_kernel, ds.x, 2)
        rng_draws = np.random.default_rng(12)
        rng_pairs = np.random.default_rng(13)
        reps = np.stack(
            [
                grad_objective_estimate(
                    fam, theta, ds, kern,
                    cache=cache, m_samp=3,
                    rng_draws=rng_draws, rng_pairs=rng_pairs,
                )
                for _ in range(6000)
            ]
        )
        se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
        assert np.all(np.abs(reps.mean(axis=0) - want) < 4.5 * se + 1e-6)

    def test_hat_all_pairs_deterministic_set(self):
        # With every pair in the deterministic set the sampling stage is
        # inert and the estimator is unbiased with no pair variance.
        fam, theta, ds = logistic_dataset(5, 14)
        kern = product(0.5)
        want = fd(lambda t: objective(fam, t, ds, kern, "hat").value, theta)
        cache = build_pair_cache(kern.x_kernel, ds.x, 10)
        assert cache.remaining == 0
        rng = np.random.default_rng(15)
        reps = np.stack(
            [
                grad_objective_estimate(
                    fam, theta, ds, kern, cache=cache, rng_draws=rng
                )
                for _ in range(4000)
            ]
        )
        se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
        assert np.all(np.abs(reps.mean(axis=0) - want) < 4.5 * se + 1e-6)

    def test_hat_reduces_to_tilde_under_local_kernel(self):
        fam = get_family("gaussian_linear", 1)
        rng = np.random.default_rng(16)
        theta = np.array([1.0, 0.0])
        x = np.linspace(-2.0, 2.0, 12).reshape(-1, 1)
        ds = Dataset(x, fam.sample(theta, x, rng), "real")
        kern = product(1e-4)
        a = grad_objective_estimate(
            fam, theta, ds, kern, cache=build_pair_cache(kern.x_kernel, ds.x, ds.n),
            rng_draws=np.random.default_rng(200), rng_pairs=np.random.default_rng(201),
        )
        b = grad_objective_estimate(
            fam, theta, ds, KY, rng_draws=np.random.default_rng(200)
        )
        assert np.array_equal(a, b)

    def test_seed_determinism(self):
        fam, theta, ds = logistic_dataset(7, 17)
        kern = product(0.3)
        cache = build_pair_cache(kern.x_kernel, ds.x, ds.n)
        a = grad_objective_estimate(fam, theta, ds, kern, cache=cache, **streams(30))
        b = grad_objective_estimate(fam, theta, ds, kern, cache=cache, **streams(30))
        c = grad_objective_estimate(fam, theta, ds, kern, cache=cache, **streams(31))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        fam, theta, ds = logistic_dataset(5, 20)
        g = grad_objective_estimate(fam, theta, ds, KY, **streams(0))
        assert isinstance(g, np.ndarray) and g.shape == (fam.raw_dim,)

    def test_cache_selects_hat_gradient(self):
        # the cache alone adds the pair terms: under a wide covariate kernel
        # they move the gradient away from the tilde one on the same streams
        fam, ds = simulate_dataset("gauss_linear_laplace", 200, 1)
        theta = get_scenario("gauss_linear_laplace").truth_raw
        kern = product_kernel(gaussian_kernel(1.0), KY)
        cache = build_pair_cache(kern.x_kernel, ds.x, ds.n)
        hat = grad_objective_estimate(fam, theta, ds, kern, cache=cache, **streams(0))
        tilde = grad_objective_estimate(fam, theta, ds, kern, **streams(0))
        assert np.abs(hat - tilde).max() > 1.0

    @pytest.mark.parametrize("cache_n", [80, 30])
    def test_pair_cache_must_match_dataset(self, cache_n):
        # a larger cache indexes past the rows, a smaller one misses pairs
        fam, theta, ds = logistic_dataset(50, 21)
        kern = product(0.3)
        x = np.random.default_rng(22).standard_normal((cache_n, 2))
        cache = build_pair_cache(kern.x_kernel, x, cache_n)
        with pytest.raises(DomainError, match=f"covers {cache_n} rows, the dataset has 50"):
            grad_objective_estimate(fam, theta, ds, kern, cache=cache, **streams(0))

    def test_pair_cache_must_match_covariates(self):
        # a cache of other covariates with the same n would weigh the
        # wrong pairs; a copy of the same covariates is accepted
        fam, ds = simulate_dataset("gauss_linear_laplace", 50, 1)
        _, other = simulate_dataset("gauss_linear_laplace", 50, 2)
        theta = get_scenario("gauss_linear_laplace").truth_raw
        kern = default_kernel()
        own = build_pair_cache(kern.x_kernel, ds.x, 50)
        with pytest.raises(DomainError, match="other covariates"):
            grad_objective_estimate(fam, theta, ds, kern,
                                    cache=build_pair_cache(kern.x_kernel, other.x, 50),
                                    **streams(0))
        copied = build_pair_cache(kern.x_kernel, ds.x.copy(), 50)
        a = grad_objective_estimate(fam, theta, ds, kern, cache=own, **streams(0))
        b = grad_objective_estimate(fam, theta, ds, kern, cache=copied, **streams(0))
        assert copied.x is not ds.x and np.array_equal(a, b)

    def test_pair_cache_must_match_covariate_kernel(self):
        # a cache ranked and weighed by another covariate kernel would give
        # that kernel's gradient; an equal but distinct spec is accepted
        fam, ds = simulate_dataset("gauss_linear_laplace", 60, 1)
        theta = get_scenario("gauss_linear_laplace").truth_raw
        kern = product_kernel(gaussian_kernel(5.0), KY)
        other = build_pair_cache(psi_matern_kernel(0.01), ds.x, 60)
        with pytest.raises(ConfigError, match="another covariate kernel"):
            grad_objective_estimate(fam, theta, ds, kern, cache=other, m_samp=0,
                                    **streams(0))
        own = build_pair_cache(kern.x_kernel, ds.x, 60)
        equal = build_pair_cache(gaussian_kernel(5.0), ds.x, 60)
        assert equal.x_kernel is not kern.x_kernel
        a = grad_objective_estimate(fam, theta, ds, kern, cache=own, **streams(0))
        b = grad_objective_estimate(fam, theta, ds, kern, cache=equal, **streams(0))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m_samp", [-1, 2.5])
    def test_sampled_pair_count_must_be_whole(self, m_samp):
        # a negative count would drop the sampled pairs and bias the gradient
        fam, theta, ds = logistic_dataset(20, 23)
        kern = product(0.3)
        cache = build_pair_cache(kern.x_kernel, ds.x, 20)
        with pytest.raises(ConfigError, match="m_samp"):
            grad_objective_estimate(fam, theta, ds, kern, cache=cache, m_samp=m_samp,
                                    **streams(0))


class TestLargeBudgetGaussianOracle:
    def test_million_pair_mean_matches_pathwise_fd(self):
        # Score route: the fit path's gradient on 20 datasets of 50,000
        # copies of one observation, 10^6 single-pair estimates in all,
        # so a standard error is available.  Oracle route: central
        # differences of the common-random-numbers Monte Carlo objective
        # on 1.25 x 10^6 copies, 10^7 pairs over 8 seeds.
        fam = get_family("gaussian_linear", 1)
        theta = np.array([1.1, math.log(0.8)])
        x = np.array([0.7])
        y = -0.4
        chunk = 50_000
        ds = repeated(fam, x, y, rows=chunk)
        score_reps = np.stack(
            [grad_objective_estimate(fam, theta, ds, KY, **streams(400 + r)) / chunk for r in range(20)]
        )
        score_mean = score_reps.mean(axis=0)
        score_se = score_reps.std(axis=0, ddof=1) / math.sqrt(20)

        h = 1e-4
        budget = 1_250_000
        ds = repeated(fam, x, y, rows=budget)
        fd_reps = []
        for r in range(8):
            seed = 700 + r
            g = np.empty(2)
            for k in range(2):
                up = theta.copy()
                dn = theta.copy()
                up[k] += h
                dn[k] -= h
                fu = objective(fam, up, ds, KY, mode="mc", budget=1, rng=stream(seed)).value / budget
                fd_ = objective(fam, dn, ds, KY, mode="mc", budget=1, rng=stream(seed)).value / budget
                g[k] = (fu - fd_) / (2.0 * h)
            fd_reps.append(g)
        fd_reps = np.stack(fd_reps)
        fd_mean = fd_reps.mean(axis=0)
        fd_se = fd_reps.std(axis=0, ddof=1) / math.sqrt(8)

        tol = 4.0 * np.sqrt(score_se**2 + fd_se**2) + 1e-6
        assert np.all(np.abs(score_mean - fd_mean) < tol)


def quad_data_expectation(density, c_point, kernel_at, lo, hi, kink):
    """Integrate density(y) * k(y, c) over [lo, hi], splitting at the kink."""
    from scipy import integrate

    pts = [kink] if lo < kink < hi else None
    val, err = integrate.quad(
        lambda y: density(y) * kernel_at(y), lo, hi, points=pts, limit=400
    )
    assert err < 1e-8
    return val


class TestScoreGradientPerFamily:
    """The score-trick gradient of E[k_y(Y, c)] against finite
    differences of a deterministic quadrature oracle, for the families
    whose samplers cannot be differenced path by path."""

    def _mc_gradient(self, fam, theta, x, weight_fn, reps, budget, seed0):
        out = []
        for r in range(reps):
            rng = np.random.default_rng(seed0 + r)
            rows = np.repeat(x.reshape(1, -1), budget, axis=0)
            y = fam.sample(theta, rows, rng)
            s = fam.grad_log_density(theta, rows, y)
            out.append(weight_fn(y) @ s / budget)
        out = np.stack(out)
        return out.mean(axis=0), out.std(axis=0, ddof=1) / math.sqrt(reps)

    def test_gamma(self):
        fam = get_family("gamma", 1)
        theta = np.array([0.4, math.log(1.5)])
        x = np.array([0.6])
        c = 1.3

        def expectation(t):
            nu = math.exp(t[1])
            rate = nu * math.exp(-float(x @ t[:1]))
            dist = stats.gamma(a=nu, scale=1.0 / rate)
            return quad_data_expectation(
                dist.pdf, c, lambda y: math.exp(-abs(y - c)), 0.0, dist.ppf(1 - 1e-13), c
            )

        mean, se = self._mc_gradient(
            fam, theta, x, lambda y: np.exp(-np.abs(y - c)), reps=30, budget=20_000, seed0=1000
        )
        want = fd(expectation, theta, h=1e-5)
        assert np.all(np.abs(mean - want) < 4.5 * se + 1e-4)

    def test_mixture(self):
        fam = get_family("mixture", 1, n_components=2)
        theta = np.array([0.8, -0.5, math.log(0.6), math.log(1.1), 0.4])
        x = np.array([0.9])
        c = 0.2

        def expectation(t):
            betas = t[:2]
            sigmas = np.exp(t[2:4])
            logits = np.array([t[4], 0.0])
            w = np.exp(logits - special.logsumexp(logits))
            mus = betas * x[0]

            def density(y):
                return float(np.sum(w * stats.norm.pdf(y, mus, sigmas)))

            lo = float(np.min(mus - 10 * sigmas))
            hi = float(np.max(mus + 10 * sigmas))
            return quad_data_expectation(
                density, c, lambda y: math.exp(-abs(y - c)), lo, hi, c
            )

        mean, se = self._mc_gradient(
            fam, theta, x, lambda y: np.exp(-np.abs(y - c)), reps=30, budget=20_000, seed0=2000
        )
        want = fd(expectation, theta, h=1e-5)
        assert np.all(np.abs(mean - want) < 4.5 * se + 1e-4)

    def test_heckman(self):
        fam = get_family("heckman", 1)
        theta = np.array([0.7, 0.3, math.log(0.9), np.arctanh(0.4)])
        x = np.array([0.5])
        c = np.array([0.8, 1.0])

        def kernel_at(y1, y2):
            return math.exp(-math.hypot(y1 - c[0], y2 - c[1]))

        def expectation(t):
            mu1 = float(x @ t[:1])
            mu2 = float(x @ t[1:2])
            sigma = math.exp(t[2])
            rho = math.tanh(t[3])
            root = math.sqrt(1.0 - rho * rho)
            p0 = stats.norm.cdf(-mu2)

            def density(y1):
                z1 = (y1 - mu1) / sigma
                return (
                    stats.norm.pdf(y1, mu1, sigma)
                    * stats.norm.cdf((mu2 + rho * z1) / root)
                )

            cont = quad_data_expectation(
                lambda y: density(y), c[0], lambda y: kernel_at(y, 1.0),
                mu1 - 10 * sigma, mu1 + 10 * sigma, c[0]
            )
            return p0 * kernel_at(0.0, 0.0) + cont

        def weights(y):
            return np.exp(-np.sqrt((y[:, 0] - c[0]) ** 2 + (y[:, 1] - c[1]) ** 2))

        mean, se = self._mc_gradient(fam, theta, x, weights, reps=30, budget=20_000, seed0=3000)
        want = fd(expectation, theta, h=1e-5)
        assert np.all(np.abs(mean - want) < 4.5 * se + 1e-4)

    def test_discrete_families_many_points(self):
        rng = np.random.default_rng(8)
        for name, d in (("logistic", 2), ("poisson", 2)):
            fam = get_family(name, d)
            for _ in range(100):
                theta = 0.6 * rng.standard_normal(d)
                x = rng.standard_normal(d)
                if name == "logistic":
                    y = int(rng.integers(0, 2))
                else:
                    y = int(rng.integers(0, 4))
                ds = repeated(fam, x, y)
                got = diag_grad(fam, theta, x, y, KY)
                want = fd(lambda t: objective(fam, t, ds, KY).value, theta)
                assert np.allclose(got, want, atol=2e-6)


class TestScoreCentering:
    def test_mean_score_vanishes(self):
        # E[s(Y)] = 0 for every family: an end-to-end check that each
        # sampler matches the density its score differentiates.
        rng = np.random.default_rng(9)
        cases = [
            ("gaussian_linear", {}, None),
            ("logistic", {}, None),
            ("poisson", {}, None),
            ("gamma", {}, None),
            ("heckman", {}, None),
            ("mixture", {"n_components": 2}, None),
        ]
        for name, kwargs, _ in cases:
            fam = get_family(name, 2, **kwargs)
            theta = 0.5 * rng.standard_normal(fam.raw_dim)
            x = rng.standard_normal(2)
            n = 200_000
            rows = np.repeat(x.reshape(1, -1), n, axis=0)
            draws = fam.sample(theta, rows, rng)
            s = fam.grad_log_density(theta, rows, draws)
            se = s.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(s.mean(axis=0)) < 4.5 * se + 1e-12), name
