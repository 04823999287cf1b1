"""Tests for the baselines and the AdaGrad discrepancy fits."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from mmdreg.errors import ConfigError, NumericalError
from mmdreg.fitting import (
    FitConfig,
    default_kernel,
    fit,
    fit_baseline,
    fit_mmd,
)
from mmdreg.kernels import (
    affine_shift_kernel,
    exponential_kernel,
    gaussian_kernel,
    product_kernel,
    psi_matern_kernel,
)
from mmdreg.models import Dataset, get_family, get_scenario, simulate_dataset
from mmdreg.objective import objective


class TestOls:
    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(0)
        fam = get_family("gaussian_linear", 3)
        x = rng.standard_normal((40, 3))
        beta = np.array([1.0, -2.0, 0.5])
        res = fit_baseline(fam, Dataset(x, x @ beta, "real"), "ols")
        assert np.max(np.abs(res.theta_raw[:3] - beta)) < 1e-10

    def test_variance_is_mean_squared_residual(self):
        fam = get_family("gaussian_linear", 1)
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]), "real")
        res = fit_baseline(fam, ds, "ols")
        assert abs(res.theta_raw[0] - 1.0) < 1e-12
        assert abs(res.theta_raw[1] - 0.0) < 1e-12  # sigma^2 = 1

    def test_only_for_gaussian(self):
        fam = get_family("logistic", 2)
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), "binary")
        with pytest.raises(ConfigError):
            fit_baseline(fam, ds, "ols")

    def test_singular_design_reported(self):
        fam = get_family("gaussian_linear", 2)
        x = np.ones((10, 2))  # identical columns
        ds = Dataset(x, np.ones(10), "real")
        with pytest.raises(NumericalError, match="condition number"):
            fit_baseline(fam, ds, "ols")


class TestMle:
    def test_poisson_intercept_closed_form(self):
        fam = get_family("poisson", 1)
        x = np.ones((200, 1))
        y = fam.sample(np.array([1.2]), x, np.random.default_rng(1))
        res = fit_baseline(fam, Dataset(x, y, "count"), "mle")
        assert abs(res.theta_raw[0] - np.log(y.mean())) < 1e-10

    def test_poisson_score_stationary(self):
        rng = np.random.default_rng(2)
        fam = get_family("poisson", 3)
        x = rng.standard_normal((300, 3)) * 0.5
        y = fam.sample(np.array([0.5, -0.3, 0.2]), x, rng)
        res = fit_baseline(fam, Dataset(x, y, "count"), "mle")
        score = x.T @ (y - np.exp(x @ res.theta_raw))
        assert np.max(np.abs(score)) < 1e-6

    def test_logistic_score_stationary(self):
        rng = np.random.default_rng(3)
        fam = get_family("logistic", 2)
        x = rng.standard_normal((400, 2))
        y = fam.sample(np.array([0.8, -0.5]), x, rng)
        res = fit_baseline(fam, Dataset(x, y, "binary"), "mle")
        assert res.warning is None
        score = x.T @ (y - special.expit(x @ res.theta_raw))
        assert np.max(np.abs(score)) < 1e-6

    def test_logistic_separation_flagged(self):
        fam = get_family("logistic", 1)
        x = np.concatenate([-np.ones(10), np.ones(10)]).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(np.int64)
        res = fit_baseline(fam, Dataset(x, y, "binary"), "mle")
        assert res.warning == "not_converged"

    def test_gamma_scores_stationary(self):
        scen = get_scenario("gamma_synthetic")
        fam, ds = simulate_dataset(scen, 600, seed=4)
        res = fit_baseline(fam, ds, "mle")
        assert res.warning is None
        beta, log_nu = res.theta_raw[:-1], res.theta_raw[-1]
        nu = np.exp(log_nu)
        xb = ds.x @ beta
        y = np.asarray(ds.y, dtype=float)
        beta_score = ds.x.T @ (y * np.exp(-xb) - 1.0)
        assert np.max(np.abs(beta_score)) < 1e-6
        nu_score = ds.n * (np.log(nu) + 1.0 - special.digamma(nu)) + np.sum(
            np.log(y) - xb - y * np.exp(-xb)
        )
        assert abs(nu_score) < 1e-6

    def test_gamma_recovers_truth(self):
        scen = get_scenario("gamma_synthetic")
        fam, ds = simulate_dataset(scen, 800, seed=5)
        res = fit_baseline(fam, ds, "mle")
        assert np.max(np.abs(res.theta_raw - scen.truth_raw)) < 0.2

    def test_heckman_two_step(self):
        scen = get_scenario("heckman_synthetic")
        fam, ds = simulate_dataset(scen, 2000, seed=6)
        res = fit_baseline(fam, ds, "mle")
        free = fam.free_mask
        assert np.all(res.theta_raw[~free] == 0.0)
        assert np.linalg.norm(res.theta_raw - scen.truth_raw) < 1.5
        # probit stage is stationary at its estimate
        gamma = res.theta_raw[fam.d : 2 * fam.d][fam.selection_support]
        xg = ds.x[:, fam.selection_support]
        y2 = ds.y[:, 1]
        sign = np.where(y2 > 0.5, 1.0, -1.0)
        a = sign * (xg @ gamma)
        mills = np.exp(-0.5 * np.log(2 * np.pi) - 0.5 * a * a - special.log_ndtr(a))
        assert np.max(np.abs(xg.T @ (sign * mills))) < 1e-5

    def test_heckman_needs_interior_selection(self):
        fam = get_family("heckman", 2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 2))
        y = np.column_stack([rng.standard_normal(50), np.ones(50)])
        with pytest.raises(NumericalError, match="selection"):
            fit_baseline(fam, Dataset(x, y, "censored"), "mle")

    def test_mixture_em_separates_components(self):
        rng = np.random.default_rng(8)
        fam = get_family("mixture", 1, n_components=2)
        n = 500
        x = rng.standard_normal((n, 1))
        which = rng.integers(0, 2, size=n)
        slopes = np.where(which == 0, 2.0, -2.0)
        y = slopes * x[:, 0] + 0.3 * rng.standard_normal(n)
        ds = Dataset(x, y, "real")
        res = fit_baseline(fam, ds, "mle")
        betas = np.sort(res.theta_raw[:2])
        assert np.allclose(betas, [-2.0, 2.0], atol=0.3)
        again = fit_baseline(fam, ds, "mle")
        assert np.array_equal(res.theta_raw, again.theta_raw)

    def test_bad_which(self):
        fam = get_family("gaussian_linear", 1)
        ds = Dataset(np.ones((3, 1)), np.zeros(3), "real")
        with pytest.raises(ConfigError):
            fit_baseline(fam, ds, "map")


class TestFitConfig:
    def test_defaults(self):
        assert FitConfig().resolved_iters() == 2000
        assert FitConfig(estimator="hat").resolved_iters() == 5000
        assert FitConfig(iters=77).resolved_iters() == 77

    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(estimator="sgd")
        with pytest.raises(ConfigError):
            FitConfig(eta=0.0)
        with pytest.raises(ConfigError):
            FitConfig(iters=0)
        with pytest.raises(ConfigError):
            FitConfig(mc_pairs=0)
        with pytest.raises(ConfigError):
            FitConfig(init="random")
        with pytest.raises(ConfigError):
            FitConfig(init=[1.0, np.nan])
        with pytest.raises(ConfigError):
            FitConfig(m1=-1)


def logistic_case(n, seed, d=2):
    rng = np.random.default_rng(seed)
    fam = get_family("logistic", d)
    theta = rng.standard_normal(d)
    x = rng.standard_normal((n, d))
    return fam, Dataset(x, fam.sample(theta, x, rng), "binary")


class TestFitMmd:
    def test_deterministic(self):
        fam, ds = logistic_case(30, 10)
        cfg = FitConfig(estimator="tilde", iters=200, seed=3)
        a = fit_mmd(fam, ds, cfg)
        b = fit_mmd(fam, ds, cfg)
        assert np.array_equal(a.theta_raw, b.theta_raw)
        c = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=200, seed=4))
        assert not np.array_equal(a.theta_raw, c.theta_raw)

    def test_descent_on_exact_objective(self):
        # Median objective over the trailing tenth of the run should not
        # exceed the starting value, for random starts on both families
        # with enumerable support.
        ky = exponential_kernel(1.0)
        rng = np.random.default_rng(11)
        for trial in range(20):
            if trial % 2 == 0:
                fam, ds = logistic_case(20, 100 + trial)
            else:
                fam = get_family("poisson", 2)
                x = rng.standard_normal((20, 2)) * 0.5
                y = fam.sample(np.array([0.4, -0.2]), x, rng)
                ds = Dataset(x, y, "count")
            start = rng.standard_normal(fam.raw_dim)
            cfg = FitConfig(
                estimator="tilde", iters=300, seed=trial,
                init=start, trace_objective_every=10,
            )
            res = fit_mmd(fam, ds, cfg)
            at_init = objective(fam, start, ds, ky, "tilde").value
            tail = res.trace[-30:, 2]
            tail = tail[np.isfinite(tail)]
            assert tail.size > 0
            assert np.median(tail) <= at_init + 1e-9

    def test_single_run_beta_recovery(self):
        scen = get_scenario("gauss_linear_laplace")
        fam, ds = simulate_dataset(scen, 1000, seed=12)
        res = fit_mmd(fam, ds, FitConfig(estimator="tilde", seed=0))
        err = np.linalg.norm(res.theta_raw[:8] - scen.truth_raw[:8]) / np.sqrt(8)
        assert err <= 0.25

    def test_hat_matches_tilde_under_local_kernel(self):
        scen = get_scenario("gauss_linear_laplace")
        fam, ds = simulate_dataset(scen, 200, seed=13)
        kern = product_kernel(psi_matern_kernel(1e-4, m=1), exponential_kernel(1.0))
        tilde = fit_mmd(fam, ds, FitConfig(estimator="tilde", kernel=kern, iters=800, seed=5))
        hat = fit_mmd(fam, ds, FitConfig(estimator="hat", kernel=kern, iters=800, seed=5))
        # every pair weight underflows to zero, so the trajectories coincide
        assert np.allclose(hat.theta_raw, tilde.theta_raw, atol=1e-12)

    def test_hat_fit_pinned(self):
        # Pins the whole hat path: pair cache, top-pair order, the pair
        # sampler's stream and the gradient sums.  Recorded with numpy 2.4
        # on x86-64; a change here means the fit's random stream or its
        # arithmetic changed.
        scen = get_scenario("gauss_linear_laplace")
        fam, ds = simulate_dataset(scen, 200, seed=21)
        res = fit_mmd(fam, ds, FitConfig(estimator="hat", m1=200, m2=200, iters=200, seed=7))
        assert [float(v).hex() for v in res.theta_raw] == [
            "0x1.fe317375c6c28p+1", "0x1.f2522ee2ccddfp+1", "0x1.69204c5cfc491p+1",
            "0x1.78b585d795ccbp+1", "0x1.b78d4e95b12d2p+0", "0x1.f1040455279bep+0",
            "0x1.1c87c16699fc1p+0", "0x1.87c0096422bfbp-1", "0x1.0fae970ed5eb4p-5",
        ]
        # an affine-shifted gaussian on width-2 covariates
        fam = get_family("gaussian_linear", 2)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((200, 2))
        ds = Dataset(x, fam.sample(np.array([1.5, -0.5, 0.0]), x, rng), "real")
        kern = product_kernel(affine_shift_kernel(gaussian_kernel(0.5), 0.5), exponential_kernel(1.0))
        res = fit_mmd(fam, ds, FitConfig(estimator="hat", kernel=kern, m1=200, m2=200, iters=200, seed=7))
        assert [float(v).hex() for v in res.theta_raw] == [
            "0x1.95a0102d7fd15p+0", "-0x1.7fe28e2945167p-2", "0x1.4143011672d84p-4",
        ]

    def test_nonfinite_gradient_aborts(self):
        fam_g = get_family("gaussian_linear", 2)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((10, 2))
        y = fam_g.sample(np.array([1.0, -1.0, 0.0]), x, rng)
        cases = [(fam_g, Dataset(x, y, "real"), np.array([1.0, -1.0, -800.0]))]  # sigma underflows to zero
        scen = get_scenario("gamma_synthetic")
        fam_gamma, ds_gamma = simulate_dataset(scen, 50, seed=15)
        # With log-shape -8 most gamma draws underflow to 0, whose score is
        # not finite; the fit must flag that instead of raising.
        cases.append((fam_gamma, ds_gamma, np.concatenate([scen.truth_raw[:8], [-8.0]])))
        for fam, ds, bad_init in cases:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                res = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=50, init=bad_init, seed=0))
            assert res.error == "nonfinite_gradient", fam.name
            assert res.iterations == 0
            assert np.array_equal(res.theta_raw, bad_init)
            assert res.trace.shape == (0, 3)

    def test_poisson_rate_overflow_is_numerical_error(self):
        # numpy's poisson sampler rejects rates above about 1e19; exp(60)
        # is far beyond that.
        fam = get_family("poisson", 2)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, 2))
        x[:10, 1] = 60.0
        ds = Dataset(x, rng.poisson(1.0, size=40), "count")
        with pytest.raises(NumericalError, match="poisson rate"):
            fit(fam, ds, FitConfig(estimator="tilde", iters=5, init=[0.0, 1.0], seed=0))

    def test_init_fallback_to_zero(self):
        fam = get_family("heckman", 2)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((40, 2))
        y = np.column_stack([rng.standard_normal(40), np.ones(40)])
        ds = Dataset(x, y, "censored")
        res = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=20, seed=0))
        assert res.warning is not None and res.warning.startswith("init_fallback_zero")
        assert np.array_equal(res.init_used, np.zeros(fam.raw_dim))

    def test_masked_coordinates_stay_zero(self):
        scen = get_scenario("heckman_synthetic")
        fam, ds = simulate_dataset(scen, 120, seed=17)
        res = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=60, seed=1))
        assert np.all(res.theta_raw[~fam.free_mask] == 0.0)

    def test_trace_and_metadata(self):
        fam, ds = logistic_case(15, 18)
        cfg = FitConfig(estimator="tilde", iters=40, seed=2, trace_objective_every=10)
        res = fit_mmd(fam, ds, cfg)
        assert res.trace.shape == (40, 3)
        assert res.iterations == 40
        recorded = np.isfinite(res.trace[:, 2])
        assert recorded.sum() == 4
        assert np.all(np.isfinite(res.trace[:, 1]))
        assert res.estimator == "tilde"
        assert res.wall_time > 0.0
        assert res.natural_names == tuple(fam.natural_names())

    def test_hat_objective_trace_is_bounded(self):
        # The traced objective of a hat fit builds n x n matrices: at
        # n = 20,000 one would be 3.2 GB, so the fit stops before it.
        fam, ds = simulate_dataset(get_scenario("gauss_linear_laplace"), 20_000, seed=24)
        cfg = FitConfig(estimator="hat", m1=100, m2=100, iters=3, seed=0, trace_objective_every=1)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="Gram matrix"):
                fit_mmd(fam, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"

    def test_bool_fields_are_refused(self):
        for bad in ({"polyak": "false"}, {"polyak": 1}, {"iters": True}, {"mc_pairs": True},
                    {"m1": True}, {"m2": False}, {"trace_objective_every": True}):
            with pytest.raises(ConfigError):
                FitConfig(estimator="hat", **bad)
        assert FitConfig(polyak=np.bool_(True)).polyak

    def test_polyak_switch(self):
        fam, ds = logistic_case(25, 19)
        plain = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=150, seed=6))
        avg = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=150, seed=6, polyak=True))
        assert np.all(np.isfinite(avg.theta_raw))
        assert not np.array_equal(plain.theta_raw, avg.theta_raw)

    def test_custom_init_shape_checked(self):
        fam, ds = logistic_case(10, 20)
        with pytest.raises(ConfigError):
            fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=5, init=[0.0, 0.0, 0.0]))

    def test_hat_requires_product_kernel(self):
        fam, ds = logistic_case(10, 21)
        with pytest.raises(ConfigError):
            fit_mmd(fam, ds, FitConfig(estimator="hat", kernel=exponential_kernel(1.0), iters=5))

    def test_dispatcher(self):
        fam, ds = logistic_case(60, 22)
        mle = fit(fam, ds, FitConfig(estimator="mle"))
        assert mle.estimator == "mle"
        tilde = fit(fam, ds, FitConfig(estimator="tilde", iters=30, seed=0))
        assert tilde.estimator == "tilde"
        assert default_kernel().family == "product"
