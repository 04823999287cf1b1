"""Unit tests for the regression families and synthetic scenarios.

Score functions are checked against central finite differences of the
reference log densities of ``tests/oracles.py``, which are built from
``scipy.stats``; those densities are checked to integrate to one by
quadrature, and the discrete supports to sum to one.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from mmdreg.errors import ConfigError, DomainError, NumericalError
from mmdreg.bench import ExperimentPlan
from mmdreg.contamination import ContaminationSpec
from mmdreg.fitting import FitConfig, default_kernel
from mmdreg.gradients import build_pair_cache, grad_objective_estimate
from mmdreg.kernels import default_covariate_kernel, default_response_kernel, gram
from mmdreg.models import (
    Dataset,
    GaussianMixture,
    Heckman,
    _FAMILY_REGISTRY,
    _count,
    _poisson_ppf,
    get_family,
    get_scenario,
    list_scenarios,
    simulate_dataset,
)
from mmdreg.objective import objective
from oracles import (
    gamma_draws,
    gamma_score,
    gaussian_draws,
    gaussian_score,
    gradient_step,
    heckman_score,
    log_density,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


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
                    lambda t: float(log_density(fam, t, x[i : i + 1], y[i : i + 1])[0]), theta
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
        # Frozen coordinates do not influence the draws either.
        bumped = theta.copy()
        bumped[~fam.free_mask] += 3.0
        draws = [fam.sample(t, x, np.random.default_rng(2)) for t in (theta, bumped)]
        assert np.array_equal(draws[0], draws[1])


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
                want = np.exp(log_density(fam, theta, x[i : i + 1], np.array([values[j]])))[0]
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

    @pytest.mark.slow
    def test_poisson_cutoff_matches_scipy(self):
        # the package computes poisson.ppf without scipy.stats; the tests keep it
        rng = np.random.default_rng(12)
        rates = np.concatenate([
            np.exp(rng.uniform(-700.0, 44.0, 200_000)),
            [0.0, 5e-324, 1e-300, 1.0, 1e19, 1e30, 1e300, np.inf, np.nan],
        ])
        got = _poisson_ppf(1.0 - 1e-12, rates)
        want = stats.poisson.ppf(1.0 - 1e-12, rates)
        assert np.array_equal(got, want, equal_nan=True)
        assert type(_poisson_ppf(1.0 - 1e-12, 3.0)) is np.float64

    def test_poisson_support_on_zero_rows(self):
        # the cut-off of rate 0, as the logistic family's empty table
        values, probs = get_family("poisson", 2).support(np.array([0.3, 5.0]), np.empty((0, 2)))
        assert values.tolist() == [0.0]
        assert probs.shape == (0, 1)

    def test_continuous_densities_integrate_to_one(self):
        rng = np.random.default_rng(7)
        for name, kwargs in (("gaussian_linear", {}), ("gamma", {}), ("mixture", {"n_components": 2})):
            fam = get_family(name, 2, **kwargs)
            theta = 0.5 * rng.standard_normal(fam.raw_dim)
            x = rng.standard_normal((1, 2))

            def dens(v):
                return float(np.exp(log_density(fam, theta, x, np.array([v]))[0]))

            lo = 1e-12 if name == "gamma" else -np.inf
            total, err = integrate.quad(dens, lo, np.inf, limit=200)
            assert abs(total - 1.0) < 1e-7, name

    def test_heckman_branches_integrate_to_one(self):
        rng = np.random.default_rng(8)
        fam = get_family("heckman", 2)
        theta = 0.6 * rng.standard_normal(fam.raw_dim)
        x = rng.standard_normal((1, 2))

        def dens(v):
            return float(np.exp(log_density(fam, theta, x, np.array([[v, 1.0]]))[0]))

        selected_mass, _ = integrate.quad(dens, -np.inf, np.inf, limit=200)
        censored_mass = float(np.exp(log_density(fam, theta, x, np.array([[0.0, 0.0]]))[0]))
        assert abs(selected_mass + censored_mass - 1.0) < 1e-7
        mu2 = float(x[0] @ theta[2:4])
        assert abs(censored_mass - stats.norm.cdf(-mu2)) < 1e-12


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
            draws = fam.sample(theta, np.repeat(x[None, :], n, axis=0), rng)
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
        draws = fam.sample(theta, np.repeat(x[None, :], 200_000, axis=0), rng)
        assert abs(float(np.mean(draws)) - mean) < 0.02

    def test_heckman_selection_and_outcome(self):
        rng = np.random.default_rng(11)
        fam = get_family("heckman", 2)
        theta = np.array([1.0, -0.3, 0.4, 0.8, np.log(1.5), np.arctanh(0.5)])
        x = np.array([0.5, 0.25])
        mu1, mu2 = x @ theta[:2], x @ theta[2:4]
        sigma, rho = np.exp(theta[4]), np.tanh(theta[5])
        n = 400_000
        draws = fam.sample(theta, np.repeat(x[None, :], n, axis=0), rng)
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
            fam.sample(theta, x[:, :2], rng)


_SHAPE_CALLS = [
    (name, method)
    for name, cls in sorted(_FAMILY_REGISTRY.items())
    for method in ("sample", "grad_log_density", "support")
    if method != "support" or cls.exact
]


@pytest.mark.parametrize("name, method", _SHAPE_CALLS, ids=["-".join(c) for c in _SHAPE_CALLS])
def test_argument_shapes_checked(name, method):
    # every family call checks raw parameters, then covariates, then
    # responses, each with its own message
    rng = np.random.default_rng(29)
    fam = get_family(name, 2)
    theta, x = np.zeros(fam.raw_dim), rng.standard_normal((4, 2))
    y = fam.sample(theta, x, rng)

    def call(theta, x, y):
        rest = {"sample": (rng,), "grad_log_density": (y,), "support": ()}[method]
        return getattr(fam, method)(theta, x, *rest)

    cases = [
        ((theta[:1], x, y), rf"{name} expects raw parameters of shape \({fam.raw_dim},\)"),
        ((theta, x[:, :1], y), f"{name} expects covariates with d=2, got shape"),
        # every argument wrong at once: the raw parameters are named first
        ((theta[:1], x[:, :1], y[:3]), "expects raw parameters"),
    ]
    if method == "grad_log_density":
        cases.append(((theta, x, y[:3]), f"{name} expects 4 responses, got shape"))
    for args, message in cases:
        with pytest.raises(DomainError, match=message):
            call(*args)
    # a (d,) covariate row is one row
    out = call(theta, x[0], y[:1])
    assert (out[1] if method == "support" else out).shape[0] == 1


@pytest.mark.parametrize("call, message", [
    (lambda fam: fam.natural([0.0, np.nan, 0.0]), "raw parameters must be finite"),
    (lambda fam: fam.support(np.zeros(3), np.zeros((1, 2))), "gamma has no finite response support"),
], ids=["nonfinite-theta", "no-support"])
def test_value_checks(call, message):
    with pytest.raises(DomainError, match=message):
        call(get_family("gamma", 2))


def _draw_case(data, family, scale):
    """Raw parameters and covariates at a drawn scale; the linear
    predictor reaches past exp's overflow at the largest scales."""
    n = data.draw(st.integers(0, 40), label="n")
    theta = scale * np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=family.raw_dim, max_size=family.raw_dim)))
    x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * family.d,
                                    max_size=n * family.d))).reshape(n, family.d)
    return theta, x


def _responses(data, family, n):
    """Responses of the family's kind for a dataset of ``n`` rows; censored
    rows are all, none or some of them selected."""
    if family.kind == "censored":
        pattern = data.draw(st.sampled_from(["all", "none", "mixed"]), label="selected")
        if pattern == "mixed":
            selected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            selected = np.full(n, pattern == "all")
        outcome = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
        return np.column_stack([np.where(selected, outcome, 0.0), selected.astype(float)])
    values = {"real": st.floats(-1e300, 1e300), "count": st.integers(0, 50),
              "binary": st.integers(0, 1)}[family.kind]
    return np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="y"))


def _outcome(call):
    # the result, or the exception a step may end in
    try:
        return call()
    except (FloatingPointError, NumericalError, ValueError) as exc:
        return exc


class TestFastPaths:
    """The sampler and score forms the fit loop runs equal the plain
    forms of ``tests/oracles.py`` bit for bit."""

    @PROPERTY
    @given(st.data())
    def test_gamma_draws_match_oracle(self, data):
        fam = get_family("gamma", data.draw(st.integers(1, 4), label="d"))
        scale = data.draw(st.sampled_from([0.3, 3.0, 300.0]), label="scale")
        theta, x = _draw_case(data, fam, scale)
        # nu = 0, below 1, exactly 1, above 1, and near overflow
        theta[fam.d] = data.draw(st.one_of(
            st.sampled_from([-800.0, -690.0, np.log(0.3), 0.0, np.log(2.5), 690.0]),
            st.floats(-5.0, 5.0)), label="log_nu")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            got = fam.sample(theta, x, got_rng)
            want = gamma_draws(fam, theta, x, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @PROPERTY
    @given(st.data())
    def test_gaussian_draws_match_oracle(self, data):
        fam = get_family("gaussian_linear", data.draw(st.integers(1, 4), label="d"))
        scale = data.draw(st.sampled_from([0.3, 3.0, 300.0]), label="scale")
        theta, x = _draw_case(data, fam, scale)
        # sigma tiny, 1, large, and past exp's overflow
        theta[fam.d] = data.draw(st.one_of(
            st.sampled_from([-800.0, -690.0, 0.0, 690.0, 710.0]), st.floats(-5.0, 5.0)),
            label="log_sigma")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            got = fam.sample(theta, x, got_rng)
            want = gaussian_draws(fam, theta, x, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @PROPERTY
    @given(st.data())
    def test_gaussian_and_gamma_scores_match_oracle(self, data):
        name = data.draw(st.sampled_from(["gaussian_linear", "gamma"]), label="family")
        fam = get_family(name, data.draw(st.integers(1, 4), label="d"))
        scale = data.draw(st.sampled_from([0.3, 3.0, 300.0]), label="scale")
        theta, x = _draw_case(data, fam, scale)
        # log sigma or log nu where exp(-t) and exp(t) overflow
        theta[fam.d] = data.draw(st.one_of(
            st.sampled_from([-800.0, -710.0, 0.0, 710.0, 800.0]), st.floats(-5.0, 5.0)),
            label="log_scale")
        values = st.floats(-1e300, 1e300) if name == "gaussian_linear" else st.floats(1e-300, 1e300)
        y = np.array(data.draw(st.lists(values, min_size=x.shape[0], max_size=x.shape[0]),
                               label="y"))
        oracle = gaussian_score if name == "gaussian_linear" else gamma_score
        with np.errstate(all="ignore"):
            got = fam.grad_log_density(theta, x, y)
            want = oracle(fam, theta, x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @PROPERTY
    @given(st.data())
    def test_heckman_score_matches_oracle(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        masks = [data.draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any),
                           label=label) for label in ("outcome", "selection")]
        fam = get_family("heckman", d, outcome_support=masks[0], selection_support=masks[1])
        scale = data.draw(st.sampled_from([0.3, 3.0, 40.0]), label="scale")
        theta, x = _draw_case(data, fam, scale)
        n = x.shape[0]
        pattern = data.draw(st.sampled_from(["all", "none", "mixed"]), label="selected")
        if pattern == "mixed":
            selected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            selected = np.full(n, pattern == "all")
        outcome = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
        y = np.column_stack([np.where(selected, outcome, 0.0), selected.astype(float)])
        with np.errstate(all="ignore"):
            got = fam.grad_log_density(theta, x, y)
            want = heckman_score(fam, theta, x, y)
        assert got.tobytes() == want.tobytes()

    @PROPERTY
    @pytest.mark.parametrize("with_cache", [False, True], ids=["tilde", "hat"])
    @given(data=st.data())
    def test_step_matches_oracle_step(self, with_cache, data):
        # the step's one per-theta state gives both draws and the score the
        # bits, and the generators the states, of the written-out step
        name = data.draw(st.sampled_from(sorted(_FAMILY_REGISTRY)), label="family")
        d = data.draw(st.integers(1, 4), label="d")
        kwargs = {}
        if name == "heckman":
            kwargs = {label: data.draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any),
                                       label=label)
                      for label in ("outcome_support", "selection_support")}
        elif name == "mixture":
            kwargs = {"n_components": data.draw(st.integers(2, 3), label="components")}
        fam = get_family(name, d, **kwargs)
        scale = data.draw(st.sampled_from([0.3, 3.0, 300.0]), label="scale")
        theta, x = _draw_case(data, fam, scale)
        n = x.shape[0]
        assume(n > 0)
        if fam.log_param is not None:
            # sigma or nu near 0, 1, and past exp's overflow
            theta[d] = data.draw(st.one_of(
                st.sampled_from([-800.0, -690.0, 0.0, 690.0, 710.0]), st.floats(-5.0, 5.0)),
                label="log_param")
        dataset = Dataset(x, _responses(data, fam, n), fam.kind)
        kernel = default_kernel()
        cache, m_samp = None, None
        if with_cache:
            cache = build_pair_cache(kernel.x_kernel, x,
                                     data.draw(st.integers(0, n * (n - 1) // 2), label="m_det"))
            m_samp = data.draw(st.integers(0, n), label="m_samp")
        seeds = data.draw(st.tuples(*[st.integers(0, 2**32 - 1)] * 2), label="seeds")

        def batches(rng):
            # the cache's deterministic set and a sample of the rest, each
            # pair weighed by the dense covariate Gram; read after the draws
            if cache is None:
                return
            kx = gram(kernel.x_kernel, x, x)
            yield cache.det_i, cache.det_j, kx[cache.det_i, cache.det_j], 1.0
            m = min(m_samp, cache.remaining)
            if m > 0:
                si, sj = cache.sample_remaining(m, rng)
                yield si, sj, kx[si, sj], cache.remaining / m

        for mode in ("ignore", "raise"):
            got_rngs = [np.random.default_rng(s) for s in seeds]
            want_rngs = [np.random.default_rng(s) for s in seeds]
            with np.errstate(all=mode):
                got = _outcome(lambda: grad_objective_estimate(
                    fam, theta, dataset, kernel, cache=cache, m_samp=m_samp,
                    rng_draws=got_rngs[0], rng_pairs=got_rngs[1]))
                want = _outcome(lambda: gradient_step(
                    fam, theta, dataset, kernel.y_kernel, want_rngs[0], batches(want_rngs[1])))
            if mode == "raise" and isinstance(got, FloatingPointError):
                # the step may raise where the written-out one does, not elsewhere
                assert isinstance(want, FloatingPointError)
                continue
            if mode == "raise" and isinstance(want, FloatingPointError):
                continue  # the step skips work, such as frozen Heckman columns
            if isinstance(want, ValueError):  # numpy refuses a poisson rate
                assert name == "poisson" and isinstance(got, NumericalError)
            else:
                assert got.tobytes() == want.tobytes()
            for g, w in zip(got_rngs, want_rngs):
                assert g.bit_generator.state == w.bit_generator.state


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

    def test_nonfinite_covariates_refused(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((3, 2))
            x[1, 0] = bad
            with pytest.raises(DomainError, match="covariates must be finite"):
                Dataset(x, np.zeros(3), "real")

    @pytest.mark.parametrize("x, y, kind, message", [
        (np.zeros((2, 1)), np.array([1 + 1j, 2.0]), "real", "real responses must be real numbers"),
        (np.zeros((2, 1), dtype=complex), np.zeros(2), "real", "covariates must be real numbers"),
        (np.zeros((2, 1)), ["a", "b"], "real", "real responses must be real numbers"),
        (np.zeros((2, 1)), ["1", "2"], "count", "count responses must be real numbers"),
        (np.array([[1.0], [None]]), np.zeros(2), "real", "covariates must be real numbers"),
        ([[1.0, 2.0], [3.0]], np.zeros(2), "real", "covariates must be an array"),
        (np.zeros((2, 1)), [[1.0, 1.0], [2.0]], "censored", "censored responses must be an array"),
        (np.zeros(3), np.zeros(3), "real", "covariates must be 2-D"),
        (np.zeros((3, 2, 1)), np.zeros(3), "real", "covariates must be 2-D"),
    ], ids=["complex-y", "complex-x", "text-y", "text-counts", "object-x", "ragged-x",
            "ragged-y", "1d-x", "3d-x"])
    def test_unreadable_input_refused(self, x, y, kind, message):
        # complex, text, object and ragged input is refused, not cast; the
        # dtype decides, so numeric input is taken without a pass over it
        with pytest.raises(DomainError, match=message):
            Dataset(x, y, kind)

    def test_numeric_input_keeps_its_bits(self):
        x = np.random.default_rng(3).standard_normal((4, 2))
        ds = Dataset(x, np.array([0, 1, 1, 0], dtype=np.uint8), "binary")
        assert ds.x.tobytes() == x.tobytes() and ds.y.tolist() == [0, 1, 1, 0]
        assert Dataset([[True], [False]], [1.5, 2.5], "real").x.tolist() == [[1.0], [0.0]]

    def test_zero_rows_refused(self):
        # every estimator would end in an IndexError on such a dataset
        for kind, y in (("real", np.empty(0)), ("censored", np.empty((0, 2)))):
            with pytest.raises(DomainError, match="at least one row"):
                Dataset(np.empty((0, 2)), y, kind)

    def test_zero_columns_refused(self):
        # contaminate would end in an IndexError, and write_csv would write
        # a y-only file that load_csv refuses
        for kind, y in (("real", np.arange(5.0)), ("censored", np.zeros((5, 2)))):
            with pytest.raises(DomainError, match="at least one covariate column"):
                Dataset(np.zeros((5, 0)), y, kind)

    def test_counts_beyond_int64_refused(self):
        # the int64 cast would wrap them to -2**63
        x = np.zeros((2, 1))
        for big in (1e300, 2.0**63):
            with pytest.raises(DomainError, match="below 2\\*\\*63"):
                Dataset(x, np.array([1.0, big]), "count")
        top = np.nextafter(2.0**63, 0.0)
        assert Dataset(x, np.array([1.0, top]), "count").y.tolist() == [1, int(top)]
        imax = np.iinfo(np.int64).max
        assert Dataset(x, np.array([0, imax]), "count").y.tolist() == [0, imax]


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
        # each truth bit for bit: the natural one is derived from the raw one
        truths = {
            "gamma_synthetic": ([1.0] * 8 + [0.0], [1.0] * 9),
            "gauss_linear_laplace": ([4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.0],
                                     [4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0]),
            "heckman_synthetic": (
                [4.0, 3.0, 2.0, 1.0] + [0.0] * 8 + [4.0, 3.0, 2.0, 1.0]
                + [0.4054651081081644, 0.5493061443340549],
                [4.0, 3.0, 2.0, 1.0] + [0.0] * 8 + [4.0, 3.0, 2.0, 1.0, 1.5, 0.5],
            ),
        }
        assert sorted(truths) == list_scenarios()
        for name, (raw, natural) in truths.items():
            scenario = get_scenario(name)
            assert scenario.truth_raw.tobytes() == np.array(raw).tobytes()
            assert scenario.truth_natural.tobytes() == np.array(natural).tobytes()
            assert len(scenario.make_family().natural_names()) == scenario.truth_natural.size
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
        with pytest.raises(ConfigError, match=r"support mask must have shape \(3,\)"):
            Heckman(3, selection_support=[True, False])

    @pytest.mark.parametrize("name, kwargs, message", [
        ("logistic", {"n_components": 3}, r"logistic takes no keyword \['n_components'\]"),
        ("gaussian_linear", {"outcome_support": [True]}, "gaussian_linear takes no keyword"),
        ("mixture", {"components": 3}, r"mixture takes no keyword.*known: \['n_components'\]"),
        ("heckman", {"n_components": 2}, "heckman takes no keyword"),
    ], ids=["logistic", "gaussian_linear", "mixture", "heckman"])
    def test_unknown_family_keyword_refused(self, name, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            get_family(name, 2, **kwargs)

    @pytest.mark.parametrize("call, message", [
        (lambda at: get_family("logistic", True), "covariate dimension"),
        (lambda at: GaussianMixture(2, n_components=True), "two components"),
        (lambda at: simulate_dataset("gauss_linear_laplace", True, 0), "sample size"),
        (lambda at: _count(True, "seed"), "seed"),
        (lambda at: objective(*at, budget=True), "budget"),
        (lambda at: FitConfig(seed=True), "seed"),
        (lambda at: ContaminationSpec(0.1, seed=True), "seed"),
        (lambda at: ExperimentPlan("gauss_linear_laplace", (20,), (0.0,), (), ("ols",), 1, True),
         "seed"),
        (lambda at: grad_objective_estimate(
            *at[:3], default_kernel(), m_samp=True,
            cache=build_pair_cache(default_covariate_kernel(), at[2].x, 5)), "m_samp"),
        (lambda at: grad_objective_estimate(*at[:3], default_kernel(), m_samp=True),
         "m_samp"),
    ], ids=["d", "n_components", "n", "seed", "budget", "fit_seed", "contamination_seed",
            "master_seed", "m_samp", "m_samp_tilde"])
    def test_counts_refuse_booleans(self, call, message):
        # Python counts True as 1; every count check refuses it alike
        fam, ds = simulate_dataset("gauss_linear_laplace", 20, 0)
        at = (fam, get_scenario("gauss_linear_laplace").truth_raw, ds, default_response_kernel())
        with pytest.raises(ConfigError, match=message):
            call(at)

    def test_count_returns_a_python_int(self):
        count = _count(np.int64(7), "seed")
        assert count == 7 and type(count) is int

    def test_raw_dims(self):
        assert get_family("gaussian_linear", 8).raw_dim == 9
        assert get_family("logistic", 8).raw_dim == 8
        assert get_family("poisson", 8).raw_dim == 8
        assert get_family("gamma", 8).raw_dim == 9
        assert get_family("heckman", 8).raw_dim == 18
        assert get_family("mixture", 8, n_components=3).raw_dim == 3 * 9 + 2
