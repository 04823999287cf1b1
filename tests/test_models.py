"""Unit tests for the regression families and synthetic scenarios.

Score functions are checked against central finite differences of the
log density; densities are checked to integrate to one by quadrature
(continuous families) or exact summation (discrete families).
"""

import numpy as np
import pytest
from scipy import integrate, special, stats

from mmdreg.errors import ConfigError, DomainError, NumericalError
from mmdreg.models import (
    Dataset,
    GaussianMixture,
    Heckman,
    get_family,
    get_scenario,
    list_scenarios,
    simulate_dataset,
)


def fd_grad(fun, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (fun(up) - fun(dn)) / (2.0 * h)
    return g


def random_family_cases(rng):
    """(family, theta, x, y) tuples covering every family."""
    cases = []
    d = 3
    for name, kwargs in (
        ("gaussian_linear", {}),
        ("logistic", {}),
        ("poisson", {}),
        ("gamma", {}),
        ("heckman", {}),
        ("mixture", {"n_components": 2}),
    ):
        fam = get_family(name, d, **kwargs)
        theta = 0.5 * rng.standard_normal(fam.raw_dim)
        x = rng.standard_normal((4, d))
        y = fam.sample(theta, x, rng)
        cases.append((fam, theta, x, y))
    # A masked Heckman exercises the frozen-coordinate path.
    fam = get_family(
        "heckman", 4, outcome_support=[True, True, False, False],
        selection_support=[False, False, True, True],
    )
    theta = 0.5 * rng.standard_normal(fam.raw_dim)
    x = rng.standard_normal((4, 4))
    y = fam.sample(theta, x, rng)
    cases.append((fam, theta, x, y))
    return cases


class TestScores:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for fam, theta, x, y in random_family_cases(rng):
            got = fam.grad_log_density(theta, x, y)
            for i in range(x.shape[0]):
                want = fd_grad(
                    lambda t: float(fam.log_density(t, x[i : i + 1], y[i : i + 1])[0]), theta
                )
                assert np.allclose(got[i], want, rtol=1e-5, atol=1e-6), fam.name

    def test_masked_scores_vanish(self):
        rng = np.random.default_rng(1)
        fam = get_family(
            "heckman", 4, outcome_support=[True, True, False, False],
            selection_support=[False, False, True, True],
        )
        theta = rng.standard_normal(fam.raw_dim)
        x = rng.standard_normal((50, 4))
        y = fam.sample(theta, x, rng)
        g = fam.grad_log_density(theta, x, y)
        assert np.all(g[:, ~fam.free_mask] == 0.0)
        # Frozen coordinates do not influence the density either.
        bumped = theta.copy()
        bumped[~fam.free_mask] += 3.0
        assert np.allclose(fam.log_density(theta, x, y), fam.log_density(bumped, x, y))


class TestDensities:
    def test_discrete_supports_sum_to_one(self):
        rng = np.random.default_rng(5)
        for name in ("logistic", "poisson"):
            fam = get_family(name, 2)
            theta = rng.standard_normal(fam.raw_dim)
            x = rng.standard_normal((6, 2))
            values, probs = fam.support(theta, x)
            assert probs.shape == (6, values.size)
            assert np.all(probs >= 0.0)
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-11)

    def test_support_matches_log_density(self):
        rng = np.random.default_rng(6)
        fam = get_family("poisson", 2)
        theta = 0.4 * rng.standard_normal(2)
        x = rng.standard_normal((3, 2))
        values, probs = fam.support(theta, x)
        for i in range(3):
            for j in (0, 1, 5):
                want = np.exp(fam.log_density(theta, x[i : i + 1], np.array([values[j]])))[0]
                assert abs(probs[i, j] - want) < 1e-13

    def test_poisson_support_is_bounded(self):
        # eta=12 needs 165,602 support values, about 1.3 GB at n=1000;
        # at eta=300 the truncation point is not even finite.
        fam = get_family("poisson", 1)
        for eta, rows in ((12.0, 1000), (300.0, 1)):
            with pytest.raises(NumericalError, match="table cells"):
                fam.support(np.array([eta]), np.ones((rows, 1)))
        values, _ = fam.support(np.array([12.0]), np.ones((1, 1)))
        assert values.size == 165_602

    def test_continuous_densities_integrate_to_one(self):
        rng = np.random.default_rng(7)
        for name, kwargs in (("gaussian_linear", {}), ("gamma", {}), ("mixture", {"n_components": 2})):
            fam = get_family(name, 2, **kwargs)
            theta = 0.5 * rng.standard_normal(fam.raw_dim)
            x = rng.standard_normal((1, 2))

            def dens(v):
                return float(np.exp(fam.log_density(theta, x, np.array([v]))[0]))

            lo = 1e-12 if name == "gamma" else -np.inf
            total, err = integrate.quad(dens, lo, np.inf, limit=200)
            assert abs(total - 1.0) < 1e-7, name

    def test_heckman_branches_integrate_to_one(self):
        rng = np.random.default_rng(8)
        fam = get_family("heckman", 2)
        theta = 0.6 * rng.standard_normal(fam.raw_dim)
        x = rng.standard_normal((1, 2))

        def dens(v):
            return float(np.exp(fam.log_density(theta, x, np.array([[v, 1.0]]))[0]))

        selected_mass, _ = integrate.quad(dens, -np.inf, np.inf, limit=200)
        censored_mass = float(np.exp(fam.log_density(theta, x, np.array([[0.0, 0.0]]))[0]))
        assert abs(selected_mass + censored_mass - 1.0) < 1e-7
        mu2 = float(x[0] @ theta[2:4])
        assert abs(censored_mass - stats.norm.cdf(-mu2)) < 1e-12

    def test_domain_errors(self):
        fam = get_family("gamma", 2)
        theta = np.zeros(3)
        x = np.zeros((1, 2))
        with pytest.raises(DomainError):
            fam.log_density(theta, x, np.array([-1.0]))
        with pytest.raises(DomainError):
            get_family("logistic", 2).log_density(np.zeros(2), x, np.array([2.0]))
        with pytest.raises(DomainError):
            get_family("poisson", 2).log_density(np.zeros(2), x, np.array([1.5]))
        with pytest.raises(DomainError):
            fam.log_density(np.array([np.nan, 0.0, 0.0]), x, np.array([1.0]))
        with pytest.raises(DomainError):
            fam.log_density(np.zeros(4), x, np.array([1.0]))


class TestSampling:
    def test_means_match_analytic(self):
        rng = np.random.default_rng(9)
        n = 200_000
        d = 2
        x = np.array([0.3, -0.4])
        checks = []
        fam = get_family("gaussian_linear", d)
        theta = np.array([1.0, -0.5, np.log(0.8)])
        checks.append((fam, theta, x @ theta[:2], 0.8))
        fam = get_family("logistic", d)
        theta = np.array([0.7, 0.2])
        p = special.expit(x @ theta)
        checks.append((fam, theta, p, np.sqrt(p * (1 - p))))
        fam = get_family("poisson", d)
        theta = np.array([0.5, 0.3])
        rate = np.exp(x @ theta)
        checks.append((fam, theta, rate, np.sqrt(rate)))
        fam = get_family("gamma", d)
        theta = np.array([0.4, 0.6, np.log(2.0)])
        mean = np.exp(x @ theta[:2])
        checks.append((fam, theta, mean, mean / np.sqrt(2.0)))
        for fam, theta, mean, sd in checks:
            draws = fam.sample(theta, x, rng, n=n)
            se = sd / np.sqrt(n)
            assert abs(float(np.mean(draws)) - mean) < 4.5 * se, fam.name

    def test_mixture_mean(self):
        rng = np.random.default_rng(10)
        fam = get_family("mixture", 2, n_components=2)
        theta = np.array([1.0, 0.0, -1.0, 0.5, np.log(0.5), np.log(1.5), 0.8])
        x = np.array([0.6, -0.2])
        # component means beta_m' x, weights softmax of (logit, 0)
        means = theta[:4].reshape(2, 2) @ x
        weights = special.softmax([theta[6], 0.0])
        mean = float(np.dot(weights, means))
        draws = fam.sample(theta, x, rng, n=200_000)
        assert abs(float(np.mean(draws)) - mean) < 0.02

    def test_heckman_selection_and_outcome(self):
        rng = np.random.default_rng(11)
        fam = get_family("heckman", 2)
        theta = np.array([1.0, -0.3, 0.4, 0.8, np.log(1.5), np.arctanh(0.5)])
        x = np.array([0.5, 0.25])
        mu1, mu2 = x @ theta[:2], x @ theta[2:4]
        sigma, rho = np.exp(theta[4]), np.tanh(theta[5])
        n = 400_000
        draws = fam.sample(theta, x, rng, n=n)
        assert np.all(draws[draws[:, 1] == 0.0, 0] == 0.0)
        sel_rate = float(np.mean(draws[:, 1]))
        assert abs(sel_rate - stats.norm.cdf(mu2)) < 4.5 * np.sqrt(0.25 / n)
        # E[y1] = mu1 Phi(mu2) + rho sigma phi(mu2) for the censored mean.
        want = mu1 * stats.norm.cdf(mu2) + rho * sigma * stats.norm.pdf(mu2)
        se = np.std(draws[:, 0]) / np.sqrt(n)
        assert abs(float(np.mean(draws[:, 0])) - want) < 4.5 * se

    def test_batch_sampling_shapes(self):
        rng = np.random.default_rng(12)
        fam = get_family("poisson", 3)
        theta = np.zeros(3)
        x = rng.standard_normal((17, 3))
        y = fam.sample(theta, x, rng)
        assert y.shape == (17,) and y.dtype == np.int64
        with pytest.raises(DomainError):
            fam.sample(theta, x, rng, n=5)


class TestDataset:
    def test_kind_validation(self):
        x = np.zeros((3, 2))
        Dataset(x, np.array([0, 1, 1]), "binary")
        with pytest.raises(DomainError):
            Dataset(x, np.array([0, 1, 2]), "binary")
        with pytest.raises(DomainError):
            Dataset(x, np.array([0.5, 1.0, 0.0]), "count")
        with pytest.raises(DomainError):
            Dataset(x, np.array([1.0, np.nan, 0.0]), "real")
        with pytest.raises(ConfigError):
            Dataset(x, np.zeros(3), "complex")
        with pytest.raises(DomainError):
            Dataset(x, np.array([[1.0, 0.5], [0.0, 0.0], [0.0, 1.0]]), "censored")

    def test_copy_is_deep(self):
        ds = Dataset(np.zeros((2, 2)), np.zeros(2), "real", {"tag": 1})
        cp = ds.copy()
        cp.x[0, 0] = 5.0
        cp.meta["tag"] = 2
        assert ds.x[0, 0] == 0.0 and ds.meta["tag"] == 1


class TestScenarios:
    def test_registry(self):
        assert list_scenarios() == ["gamma_synthetic", "gauss_linear_laplace", "heckman_synthetic"]
        with pytest.raises(ConfigError):
            get_scenario("mystery")

    def test_deterministic(self):
        fam_a, ds_a = simulate_dataset("gauss_linear_laplace", 50, seed=3)
        fam_b, ds_b = simulate_dataset("gauss_linear_laplace", 50, seed=3)
        _, ds_c = simulate_dataset("gauss_linear_laplace", 50, seed=4)
        assert np.array_equal(ds_a.x, ds_b.x) and np.array_equal(ds_a.y, ds_b.y)
        assert not np.array_equal(ds_a.y, ds_c.y)
        assert fam_a.name == "gaussian_linear"

    def test_laplace_noise_scale(self):
        scenario = get_scenario("gauss_linear_laplace")
        _, ds = simulate_dataset(scenario, 200_000, seed=0)
        resid = ds.y - ds.x @ scenario.truth_natural[:8]
        # Unit-scale Laplace noise has variance 2.
        assert abs(np.var(resid) - 2.0) < 0.05
        assert list(scenario.truth_natural[:8]) == [4, 4, 3, 3, 2, 2, 1, 1]

    def test_heckman_scenario_structure(self):
        scenario = get_scenario("heckman_synthetic")
        fam, ds = simulate_dataset(scenario, 5000, seed=1)
        assert ds.kind == "censored"
        censored = ds.y[:, 1] == 0.0
        assert np.all(ds.y[censored, 0] == 0.0)
        # Selection is symmetric around 1/2 for centered covariates.
        assert abs(np.mean(ds.y[:, 1]) - 0.5) < 0.05
        assert fam.free_mask.sum() == 10

    def test_gamma_scenario_mean(self):
        scenario = get_scenario("gamma_synthetic")
        _, ds = simulate_dataset(scenario, 100_000, seed=2)
        assert np.all(ds.y > 0.0)
        ratio = ds.y / np.exp(ds.x @ np.ones(8))
        assert abs(np.mean(ratio) - 1.0) < 0.02

    def test_truth_round_trip(self):
        for name in list_scenarios():
            scenario = get_scenario(name)
            fam = scenario.make_family()
            assert np.allclose(fam.natural(scenario.truth_raw), scenario.truth_natural)
            assert len(fam.natural_names()) == scenario.truth_natural.size
            assert scenario.report_mask.size == scenario.truth_natural.size


class TestConstruction:
    def test_registry_errors(self):
        with pytest.raises(ConfigError):
            get_family("probit", 3)
        with pytest.raises(ConfigError):
            get_family("gaussian_linear", 0)
        with pytest.raises(ConfigError):
            GaussianMixture(2, n_components=1)
        with pytest.raises(ConfigError):
            Heckman(3, outcome_support=[False, False, False])

    def test_raw_dims(self):
        assert get_family("gaussian_linear", 8).raw_dim == 9
        assert get_family("logistic", 8).raw_dim == 8
        assert get_family("poisson", 8).raw_dim == 8
        assert get_family("gamma", 8).raw_dim == 9
        assert get_family("heckman", 8).raw_dim == 18
        assert get_family("mixture", 8, n_components=3).raw_dim == 3 * 9 + 2
