"""Tests for the baselines and the AdaGrad discrepancy fits."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from mmdreg import fitting
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
from mmdreg.models import Dataset, GaussianLinear, get_family, get_scenario, simulate_dataset
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

    def test_fewer_rows_than_columns_reported(self):
        # two rows fit three coefficients exactly, with sigma = 0
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((2, 3)), rng.standard_normal(2), "real")
        with pytest.raises(NumericalError, match="2 rows, fewer than its 3 columns"):
            fit(get_family("gaussian_linear", 3), ds, FitConfig(estimator="ols"))


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

    def test_gamma_divergence_guard(self):
        # log mu reaches +-120, past the clip at 30 where the beta Newton
        # loses its curvature; the shared guard stops it at the bound
        rng = np.random.default_rng(0)
        fam = get_family("gamma", 2)
        x = np.column_stack([np.ones(200), rng.standard_normal(200)])
        y = fam.sample(np.array([0.5, 40.0, np.log(2.0)]), x, rng)
        res = fit_baseline(fam, Dataset(x, y, "real"), "mle")
        assert res.warning == "not_converged"
        assert np.all(np.isfinite(res.theta_raw))
        assert np.all(np.isfinite(res.theta_natural))
        # unguarded, the saturated steps walk the intercept off to about 100
        assert abs(res.theta_raw[0] - 0.5) < 1.0
        assert abs(res.theta_raw[1] - 40.0) < 0.1

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
        assert FitConfig().resolved_iters() == 1000
        assert FitConfig(estimator="hat").resolved_iters() == 2000
        assert FitConfig(iters=77).resolved_iters() == 77

    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(estimator="sgd")
        with pytest.raises(ConfigError):
            FitConfig(eta=0.0)
        with pytest.raises(ConfigError):
            FitConfig(iters=0)
        with pytest.raises(ConfigError):
            FitConfig(init="random")
        with pytest.raises(ConfigError, match="init must be 'mle' or a vector"):
            FitConfig(init="zero")
        with pytest.raises(ConfigError):
            FitConfig(init=[1.0, np.nan])
        with pytest.raises(ConfigError):
            FitConfig(m1=-1)
        # the kernel is a KernelSpec or None, not a config mapping or a number
        for kernel in (5, {"family": "exponential"}):
            with pytest.raises(ConfigError, match="kernel must be a KernelSpec"):
                FitConfig(kernel=kernel)
        # 2**64 is a finite float; 10**400 has none
        assert FitConfig(eta=2**64).eta == 2**64
        with pytest.raises(ConfigError, match="eta must be positive and finite"):
            FitConfig(eta=10**400)

    def test_iters_capped_by_the_trace_table(self):
        # a fit's trace holds 3 cells a step, within the 10**7-cell table cap
        assert FitConfig(iters=3_333_333).iters == 3_333_333
        for iters in (3_333_334, 10**13):
            with pytest.raises(ConfigError, match="capped at 10000000 cells; got"):
                FitConfig(iters=iters)

    def test_custom_init_compares_and_hashes(self):
        # a list, an array and a tuple of the same values give one config
        a = FitConfig(init=[1.0, 2.0])
        b = FitConfig(init=np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a.init == (1.0, 2.0) and all(type(v) is float for v in a.init)
        assert a == FitConfig(init=a.init)
        assert a != FitConfig(init=[1.0, 2.5])
        assert len({a, b, FitConfig()}) == 2


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

    def test_tilde_fit_pinned(self):
        # Pins the tilde path on the three scenarios: the draws' streams
        # (the gamma sampler's among them), the scores (Heckman's per-branch
        # Mills ratios and frozen coordinates) and the trace of gradient
        # norms.  Recorded with numpy 2.4 on x86-64, like the hat pin.
        want = {
            "gauss_linear_laplace": (
                ["0x1.fc44f7cfc069cp+1", "0x1.ff06f2e9176acp+1", "0x1.88079c1f6d56bp+1",
                 "0x1.8737add45c626p+1", "0x1.eb6c5fdce114bp+0", "0x1.e625352d3d043p+0",
                 "0x1.da618c22835aep-1", "0x1.ea64cd02575f3p-1", "0x1.d4e1245a2304cp-4"],
                "39ff57353412ac580e64989c0321e38ef34a80c3243f802c2595a69053bc3420",
            ),
            "heckman_synthetic": (
                ["0x1.04271172c5f8dp+2", "0x1.8b0186966b450p+1", "0x1.ff47dc2e8498ap+0",
                 "0x1.2900ddcac934fp+0"] + ["0x0.0p+0"] * 8
                + ["0x1.e386a4bc722ecp+1", "0x1.6f8538abdf99dp+1", "0x1.e4aa94069fd91p+0",
                   "0x1.0f02dbc7e265dp+0", "0x1.83ef6a1c49d1ap-2", "0x1.b80a8520a308cp-1"],
                "2c9fdfc7ae801fce3ed9015c5a7c730af9e4fcedc83560c39aac2f84c87411ee",
            ),
            "gamma_synthetic": (
                ["0x1.2aad130dc8a71p+0", "0x1.f7739668d1093p-1", "0x1.19bccdc562eafp+0",
                 "0x1.f35acceedad2bp-1", "0x1.1c49da5d61545p+0", "0x1.f7d6b4a37320bp-1",
                 "0x1.c458075b598f3p-1", "0x1.127056b119fe5p+0", "0x1.91c06f5034598p-3"],
                "dd7afea6762d096e10e749ab22e775742c159714b7e20646fb667cfe3ac05886",
            ),
        }
        for name, (theta_hex, norms_sha256) in want.items():
            fam, ds = simulate_dataset(name, 200, seed=31)
            res = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=60, seed=5))
            assert [float(v).hex() for v in res.theta_raw] == theta_hex, name
            norms = np.ascontiguousarray(res.trace[:, 1]).tobytes()
            assert res.trace.shape == (60, 3) and hashlib.sha256(norms).hexdigest() == norms_sha256

    def test_objective_trace_pinned(self):
        # Pins the traced objective column: the exact tables on a logistic
        # dataset and the Monte Carlo draws on the trace's own stream
        # (spawn_key=(17,)) on a gaussian one, for both estimators.
        # Recorded with numpy 2.4 on x86-64, like the hat pin.
        want = {
            ("logistic", "tilde"): "f1f8f3822e057d2757ba856eb27e5672d80f8de7d1ffea4dd2838455afbf6dfb",
            ("logistic", "hat"): "c960e2624b3ee4a1d108eef9af9d6fc1d55dbd1cefeadeb876dbc775d7fc91ee",
            ("gaussian_linear", "tilde"): "3cab87de8b5463b90aff9faf2f4b8edd47ebb30c62482c54ced09851d1a8232c",
            ("gaussian_linear", "hat"): "824724f19e3b615cdd365a773947b1f98b44b75824ee239415247589925cc3a8",
        }
        kern = product_kernel(gaussian_kernel(1.0), exponential_kernel(1.0))
        for (name, est), col_sha256 in want.items():
            fam = get_family(name, 2)
            rng = np.random.default_rng(43)
            x = rng.standard_normal((80, 2))
            theta = np.concatenate([[1.0, -0.5], np.zeros(fam.raw_dim - 2)])
            ds = Dataset(x, fam.sample(theta, x, rng), fam.kind)
            cfg = FitConfig(estimator=est, kernel=kern, m1=80, m2=80, iters=30, seed=9,
                            trace_objective_every=10)
            col = np.ascontiguousarray(fit_mmd(fam, ds, cfg).trace[:, 2])
            assert np.isfinite(col).sum() == 3, (name, est)
            assert hashlib.sha256(col.tobytes()).hexdigest() == col_sha256, (name, est)

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

    def test_custom_init_frozen_coordinates_zeroed(self):
        # a custom start keeps its free coordinates and has the frozen ones
        # (excluded coefficients) set to zero before the first step
        scen = get_scenario("heckman_synthetic")
        fam, ds = simulate_dataset(scen, 120, seed=17)
        init = np.linspace(0.1, 0.9, fam.raw_dim)
        res = fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=5, init=init, seed=1))
        assert np.any(~fam.free_mask)
        assert np.all(res.init_used[~fam.free_mask] == 0.0)
        assert np.array_equal(res.init_used[fam.free_mask], init[fam.free_mask])

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

    def test_traced_hat_fit_refused_before_any_work(self, monkeypatch):
        # the Gram cap is checked at the fit's entry, before the baseline
        # start and the pair cache; a fit that traces nothing still runs
        fam, ds = simulate_dataset(get_scenario("gauss_linear_laplace"), 4_000, seed=25)
        untraced = FitConfig(estimator="hat", m1=10, m2=10, iters=2, trace_objective_every=3)
        assert fit_mmd(fam, ds, untraced).error is None

        def no_cache(*args, **kwargs):
            raise AssertionError("the pair cache was built")

        monkeypatch.setattr(fitting, "build_pair_cache", no_cache)
        with pytest.raises(NumericalError, match="Gram matrix"):
            fit_mmd(fam, ds, replace(untraced, trace_objective_every=2))

    def test_bool_fields_are_refused(self):
        for bad in ({"iters": True}, {"m1": True}, {"m2": False},
                    {"trace_objective_every": True}):
            with pytest.raises(ConfigError):
                FitConfig(estimator="hat", **bad)

    def test_abort_returns_last_finite_iterate(self):
        # The score turns non-finite on the fourth step, so the fit stops
        # after three and returns the third iterate.
        class Breaks(GaussianLinear):
            def grad_log_density(self, theta, x, y):
                self.calls = getattr(self, "calls", 0) + 1
                score = super().grad_log_density(theta, x, y)
                return score if self.calls <= 3 else np.full_like(score, np.nan)

        fam, ds = simulate_dataset("gauss_linear_laplace", 50, seed=25)
        want = fit_mmd(fam, ds, FitConfig(iters=3, seed=8)).theta_raw
        res = fit_mmd(Breaks(8), ds, FitConfig(iters=10, seed=8))
        assert res.error == "nonfinite_gradient" and res.iterations == 3
        assert np.array_equal(res.theta_raw, want)

    def test_custom_init_shape_checked(self):
        fam, ds = logistic_case(10, 20)
        with pytest.raises(ConfigError):
            fit_mmd(fam, ds, FitConfig(estimator="tilde", iters=5, init=[0.0, 0.0, 0.0]))

    def test_hat_requires_product_kernel(self):
        fam, ds = logistic_case(10, 21)
        with pytest.raises(ConfigError, match="product kernel .* is required"):
            fit_mmd(fam, ds, FitConfig(estimator="hat", kernel=exponential_kernel(1.0), iters=5))

    def test_dispatcher(self):
        fam, ds = logistic_case(60, 22)
        mle = fit(fam, ds, FitConfig(estimator="mle"))
        assert mle.estimator == "mle"
        tilde = fit(fam, ds, FitConfig(estimator="tilde", iters=30, seed=0))
        assert tilde.estimator == "tilde"
        assert default_kernel().family == "product"
