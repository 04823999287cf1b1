"""Unit tests for the discrepancy objectives.

Expected values are produced by independent oracles: direct double-loop
V-statistics, support enumeration with scipy pmfs, the exact
per-observation losses of ``tests/oracles.py``, and large-sample Monte
Carlo runs.  A per-observation loss is the objective on a dataset that
holds the observation once; its Monte Carlo estimate with budget B is
the objective on B copies, divided by B.
"""

import math

import numpy as np
import pytest
from scipy import stats

from mmdreg.errors import ConfigError, DomainError
from mmdreg.kernels import (
    exponential_kernel,
    gram,
    kernel_eval,
    product_kernel,
    psi_matern_kernel,
)
from mmdreg.models import Dataset, get_family
from mmdreg.objective import link_term, mmd_sq_vstat, objective
from oracles import cross_loss, diag_loss, repeated

KY = exponential_kernel(1.0)


def product(gamma_x=0.01):
    return product_kernel(psi_matern_kernel(gamma_x, m=1), KY)


class TestMmdSqVstat:
    def test_two_diracs_frozen(self):
        # k(0,0) + k(1,1) - 2 k(0,1) = 2 - 2/e for the unit exponential kernel.
        val = mmd_sq_vstat(KY, np.array([0.0]), np.array([1.0]))
        assert abs(val - 1.2642411) < 1e-7
        assert abs(val - (2.0 - 2.0 * math.exp(-1.0))) < 1e-12

    def test_identical_sets_vanish(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 2))
        w = rng.random(12)
        w /= w.sum()
        assert mmd_sq_vstat(exponential_kernel(0.7), pts, pts, w, w) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(7, 2))
        wa = rng.random(5)
        wa /= wa.sum()
        wb = rng.random(7)
        wb /= wb.sum()
        spec = exponential_kernel(1.3)
        total = 0.0
        for i in range(5):
            for j in range(5):
                total += wa[i] * wa[j] * kernel_eval(spec, a[i : i + 1], a[j : j + 1])
        for i in range(7):
            for j in range(7):
                total += wb[i] * wb[j] * kernel_eval(spec, b[i : i + 1], b[j : j + 1])
        for i in range(5):
            for j in range(7):
                total -= 2.0 * wa[i] * wb[j] * kernel_eval(spec, a[i : i + 1], b[j : j + 1])
        assert abs(mmd_sq_vstat(spec, a, b, wa, wb) - total) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        spec = exponential_kernel(1.0)
        for _ in range(200):
            a, b, c = (rng.normal(size=(4, 1)) for _ in range(3))
            dab = math.sqrt(mmd_sq_vstat(spec, a, b))
            dbc = math.sqrt(mmd_sq_vstat(spec, b, c))
            dac = math.sqrt(mmd_sq_vstat(spec, a, c))
            assert dac <= dab + dbc + 1e-9

    def test_weight_validation(self):
        pts = np.zeros((3, 1))
        with pytest.raises(DomainError):
            mmd_sq_vstat(KY, pts, pts, np.array([0.5, 0.5]), None)
        with pytest.raises(DomainError):
            mmd_sq_vstat(KY, pts, pts, np.array([0.5, 0.6, 0.1]), None)
        with pytest.raises(DomainError):
            mmd_sq_vstat(KY, pts, pts, np.array([-0.2, 0.6, 0.6]), None)


class TestLossTilde:
    def test_logistic_frozen(self):
        fam = get_family("logistic", 1)
        # theta = 0 puts probability 1/2 on each outcome; the expected
        # pair kernel is (1 + 1/e)/2 and the data term doubles it.
        val = objective(fam, np.zeros(1), repeated(fam, [1.0], 1), KY)
        assert val.mode == "exact" and val.std_error == 0.0
        assert abs(val.value - (-0.6839397)) < 1e-7
        assert abs(val.value - (-(1.0 + math.exp(-1.0)) / 2.0)) < 1e-12

    def test_logistic_matches_enumeration(self):
        rng = np.random.default_rng(3)
        fam = get_family("logistic", 2)
        for _ in range(10):
            theta = rng.standard_normal(2)
            x = rng.standard_normal(2)
            y = int(rng.integers(0, 2))
            p1 = 1.0 / (1.0 + math.exp(-float(x @ theta)))
            probs = {0: 1.0 - p1, 1: p1}
            k = lambda a, b: math.exp(-abs(a - b))
            pair = sum(probs[a] * probs[b] * k(a, b) for a in (0, 1) for b in (0, 1))
            data = sum(probs[a] * k(a, y) for a in (0, 1))
            want = pair - 2.0 * data
            got = objective(fam, theta, repeated(fam, x, y), KY)
            assert abs(got.value - want) < 1e-12

    def test_poisson_matches_enumeration(self):
        rng = np.random.default_rng(4)
        fam = get_family("poisson", 2)
        theta = np.array([0.3, -0.2])
        x = rng.standard_normal(2)
        y = 2
        rate = math.exp(float(x @ theta))
        support = np.arange(0, 60)
        pmf = stats.poisson.pmf(support, rate)
        kmat = np.exp(-np.abs(support[:, None] - support[None, :]))
        want = float(pmf @ kmat @ pmf - 2.0 * pmf @ np.exp(-np.abs(support - y)))
        got = objective(fam, theta, repeated(fam, x, y), KY)
        assert abs(got.value - want) < 1e-9

    def test_poisson_truncation_mass(self):
        fam = get_family("poisson", 1)
        values, probs = fam.support(np.array([3.0]), np.array([[1.0]]))
        assert probs[0].sum() > 1.0 - 1e-12

    def test_mc_agrees_with_exact(self):
        fam = get_family("logistic", 1)
        theta = np.array([0.4])
        ds = repeated(fam, [1.0], 1, rows=400)
        exact = objective(fam, theta, ds, KY).value
        mc = objective(fam, theta, ds, KY, mode="mc", budget=100, seed=0)
        assert mc.mode == "mc" and mc.std_error > 0.0
        assert abs(mc.value - exact) < 4.0 * mc.std_error + 1e-12

    def test_mc_against_large_oracle(self):
        fam = get_family("gaussian_linear", 1)
        theta = np.array([1.2, np.log(0.7)])
        x = np.array([0.5])
        y = 1.0
        # 10^5 pairs: 100 replicates over 1000 copies of the observation
        got = objective(fam, theta, repeated(fam, x, y, rows=1000), KY, budget=100, seed=1)
        got_value, got_se = got.value / 1000, got.std_error / 1000
        # Oracle: an independent 10^7-pair run, accumulated in chunks.
        rng = np.random.default_rng(999)
        total = 0.0
        sumsq = 0.0
        chunks, chunk = 10, 1_000_000
        for _ in range(chunks):
            ya = fam.sample(theta, x, rng, n=chunk)
            yb = fam.sample(theta, x, rng, n=chunk)
            terms = np.exp(-np.abs(ya - yb)) - 2.0 * np.exp(-np.abs(ya - y))
            total += terms.sum()
            sumsq += (terms ** 2).sum()
        m = chunks * chunk
        oracle = total / m
        oracle_se = math.sqrt((sumsq / m - oracle ** 2) / m)
        assert abs(got_value - oracle) < 4.0 * math.hypot(got_se, oracle_se)

    def test_mc_error_halves_with_budget(self):
        fam = get_family("gaussian_linear", 1)
        theta = np.array([0.5, 0.0])
        ds = repeated(fam, [1.0], 0.3)
        ses = {200: [], 400: []}
        for trial in range(50):
            for budget in (200, 400):
                v = objective(fam, theta, ds, KY, budget=budget, seed=1000 + trial)
                ses[budget].append(v.std_error)
        ratio = np.mean(ses[200]) / np.mean(ses[400])
        assert 1.2 <= ratio <= 1.7

    def test_exact_mode_rejected_for_continuous(self):
        fam = get_family("gaussian_linear", 1)
        with pytest.raises(ConfigError):
            objective(fam, np.zeros(2), repeated(fam, [1.0], 0.0), KY, mode="exact")


class TestLossHat:
    def test_equal_covariates_reduce_to_tilde(self):
        fam = get_family("logistic", 2)
        theta = np.array([0.7, -0.4])
        ds = repeated(fam, [0.3, 0.9], 1)
        tilde = objective(fam, theta, ds, KY).value
        hat = objective(fam, theta, ds, product(0.01), "hat")
        assert abs(hat.value - tilde) < 1e-14

    def test_half_weight_frozen(self):
        fam = get_family("logistic", 1)
        # Exponential covariate kernel at distance log 2 gives k_x = 1/2;
        # theta = 0 keeps both response laws at probability 1/2, so the
        # two cross losses of the pair are equal and the link term holds
        # both.
        kern = product_kernel(exponential_kernel(1.0), KY)
        ds = Dataset(np.array([[0.0], [math.log(2.0)]]), np.array([1, 1]), "binary")
        val = link_term(fam, np.zeros(1), ds, kern).value / 2.0
        assert abs(val - (-0.3419698)) < 1e-7
        assert abs(val - (-(1.0 + math.exp(-1.0)) / 4.0)) < 1e-12

    def test_requires_product_kernel(self):
        fam = get_family("logistic", 1)
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 1]), "binary")
        with pytest.raises(ConfigError):
            objective(fam, np.zeros(1), ds, KY, "hat")

    def test_mc_agrees_with_exact(self):
        fam = get_family("logistic", 2)
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(2)
        xa, xb = rng.standard_normal(2), rng.standard_normal(2)
        kern = product_kernel(exponential_kernel(1.0), KY)
        ds = Dataset(np.vstack([xa, xb]), np.array([1, 0]), "binary")
        exact = objective(fam, theta, ds, kern, "hat").value
        mc = objective(fam, theta, ds, kern, "hat", mode="mc", budget=40000, seed=2)
        assert abs(mc.value - exact) < 4.0 * mc.std_error + 1e-12


def logistic_dataset(n, seed, d=2):
    rng = np.random.default_rng(seed)
    fam = get_family("logistic", d)
    theta = rng.standard_normal(d)
    x = rng.standard_normal((n, d))
    y = fam.sample(theta, x, rng)
    return fam, theta, Dataset(x, y, "binary")


class TestObjective:
    def test_tilde_sums_pointwise_losses(self):
        fam, theta, ds = logistic_dataset(6, 11)
        want = sum(diag_loss(fam, theta, ds.x[i], ds.y[i], KY) for i in range(6))
        got = objective(fam, theta, ds, KY, "tilde")
        assert got.mode == "exact"
        assert abs(got.value - want) < 1e-12

    def test_hat_sums_ordered_pairs(self):
        fam, theta, ds = logistic_dataset(4, 12)
        kern = product(0.5)
        want = 0.0
        for i in range(4):
            for j in range(4):
                want += cross_loss(fam, theta, ds.x[i], ds.x[j], ds.y[j], kern)
        got = objective(fam, theta, ds, kern, "hat")
        assert abs(got.value - want) < 1e-11

    def test_decomposition_identity_exact(self):
        for seed, n in ((13, 20), (14, 12)):
            fam, theta, ds = logistic_dataset(n, seed)
            kern = product(0.05)
            hat = objective(fam, theta, ds, kern, "hat").value
            tilde = objective(fam, theta, ds, kern, "tilde").value
            link = link_term(fam, theta, ds, kern).value
            assert abs(hat - (tilde + link)) < 1e-10

    def test_decomposition_identity_poisson(self):
        rng = np.random.default_rng(15)
        fam = get_family("poisson", 2)
        theta = 0.3 * rng.standard_normal(2)
        x = rng.standard_normal((8, 2))
        ds = Dataset(x, fam.sample(theta, x, rng), "count")
        kern = product(0.05)
        hat = objective(fam, theta, ds, kern, "hat").value
        tilde = objective(fam, theta, ds, kern, "tilde").value
        link = link_term(fam, theta, ds, kern).value
        assert abs(hat - (tilde + link)) < 1e-10

    def test_decomposition_identity_mc_shared_seed(self):
        fam, theta, ds = logistic_dataset(10, 16)
        kern = product(0.05)
        hat = objective(fam, theta, ds, kern, "hat", mode="mc", budget=5, seed=77).value
        tilde = objective(fam, theta, ds, kern, "tilde", mode="mc", budget=5, seed=77).value
        link = link_term(fam, theta, ds, kern, mode="mc", budget=5, seed=77).value
        assert abs(hat - (tilde + link)) < 1e-10

    def test_link_term_vanishes_with_local_kernel(self):
        fam, theta, ds = logistic_dataset(15, 17)
        val = link_term(fam, theta, ds, product(1e-6)).value
        assert abs(val) < 1e-8

    def test_matches_weighted_vstat(self):
        # The quadratic objective is, up to a theta-free constant, n^2
        # times the squared discrepancy between the model-induced joint
        # measure and the empirical measure.
        fam, theta, ds = logistic_dataset(5, 18)
        n = ds.n
        kern = product(0.5)
        values, probs = fam.support(theta, ds.x)
        xrep = np.repeat(ds.x, values.size, axis=0)
        yrep = np.tile(values, n)
        w = (probs / n).ravel()
        model_pts = (xrep, yrep)
        data_pts = (ds.x, np.asarray(ds.y, dtype=float))
        msq = mmd_sq_vstat(kern, model_pts, data_pts, w, None)
        kz = gram(kern, data_pts, data_pts)
        const = float(kz.mean())
        hat = objective(fam, theta, ds, kern, "hat").value
        assert abs(hat / n ** 2 + const - msq) < 1e-10

    def test_exact_bitwise_reproducible(self):
        fam, theta, ds = logistic_dataset(9, 19)
        a = objective(fam, theta, ds, KY, "tilde").value
        b = objective(fam, theta, ds, KY, "tilde").value
        assert a == b

    def test_mc_seed_determinism(self):
        fam = get_family("gaussian_linear", 2)
        rng = np.random.default_rng(20)
        theta = rng.standard_normal(3)
        x = rng.standard_normal((7, 2))
        ds = Dataset(x, fam.sample(theta, x, rng), "real")
        a = objective(fam, theta, ds, KY, "tilde", budget=4, seed=5)
        b = objective(fam, theta, ds, KY, "tilde", budget=4, seed=5)
        c = objective(fam, theta, ds, KY, "tilde", budget=4, seed=6)
        assert a.value == b.value and a.value != c.value

    def test_kind_mismatch_rejected(self):
        fam = get_family("gaussian_linear", 2)
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), "binary")
        with pytest.raises(DomainError):
            objective(fam, np.zeros(3), ds, KY, "tilde", seed=0)
        with pytest.raises(ConfigError):
            objective(fam, np.zeros(3), Dataset(np.zeros((3, 2)), np.zeros(3), "real"), KY, "unknown", seed=0)
