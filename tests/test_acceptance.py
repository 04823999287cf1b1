"""End-to-end acceptance gates.

Each test covers one numbered criterion, computes the measured values,
prints a single ``PASS criterion k: ...`` / ``FAIL criterion k: ...``
line past the capture plugin, and asserts the pinned bands.  The bands
and runtime caps live here and nowhere else; benchmark criteria fix
their master seeds so the measured numbers are reproducible bit for bit.
"""
import math
import time

import numpy as np
import pytest

from mmdreg import (
    Dataset,
    ExperimentPlan,
    FitConfig,
    build_pair_cache,
    exponential_kernel,
    fit,
    gaussian_kernel,
    get_family,
    get_scenario,
    grad_objective_estimate,
    gram,
    mmd_sq_vstat,
    objective,
    product_kernel,
    psi_matern_kernel,
    run_plan,
    simulate_dataset,
)
from oracles import cross_grad, diag_grad, link_term, log_density


def _gate(capsys, num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{tag} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_clean_gaussian_tilde_band(capsys):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        scenario="gauss_linear_laplace",
        n_values=(1000,),
        epsilons=(0.0,),
        recipes=(),
        estimators=("tilde",),
        replications=25,
        master_seed=11,
    )
    table = run_plan(plan)
    rmse = table.row(estimator="tilde")["rmse"]
    dt = time.perf_counter() - t0
    ok = 0.07 <= rmse <= 0.16 and dt <= 180.0
    _gate(capsys, 1, ok, f"tilde beta rmse {rmse:.3f} in [0.07, 0.16]; {dt:.0f}s <= 180s")


@pytest.mark.slow
def test_criterion_02_response_outliers_gaussian(capsys):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        scenario="gauss_linear_laplace",
        n_values=(1000,),
        epsilons=(0.03,),
        recipes=("type_y",),
        estimators=("ols", "tilde", "hat"),
        replications=25,
        master_seed=22,
        fit_overrides={"hat": {"m1": 1000, "m2": 1000}},
    )
    table = run_plan(plan)
    r_ols = table.row(estimator="ols")["rmse"]
    r_tilde = table.row(estimator="tilde")["rmse"]
    r_hat = table.row(estimator="hat")["rmse"]
    dt = time.perf_counter() - t0
    ok = r_ols >= 0.25 and r_hat <= 0.20 and r_tilde <= 0.20 and dt <= 600.0
    _gate(
        capsys, 2,
        ok,
        f"ols {r_ols:.3f} >= 0.25, hat {r_hat:.3f} <= 0.20, "
        f"tilde {r_tilde:.3f} <= 0.20; {dt:.0f}s <= 600s",
    )


def test_criterion_03_covariate_outliers_gaussian(capsys):
    plan = ExperimentPlan(
        scenario="gauss_linear_laplace",
        n_values=(1000,),
        epsilons=(0.03,),
        recipes=("type_x",),
        estimators=("ols", "tilde"),
        replications=25,
        master_seed=33,
    )
    table = run_plan(plan)
    r_ols = table.row(estimator="ols")["rmse"]
    r_tilde = table.row(estimator="tilde")["rmse"]
    ok = r_ols >= 1.2 and r_tilde <= 0.25
    _gate(capsys, 3, ok, f"ols {r_ols:.3f} >= 1.2, tilde {r_tilde:.3f} <= 0.25")


def test_criterion_04_gamma_cell(capsys):
    # Known failing on the first bound: an exact maximum-likelihood fit of
    # this model tops out near 0.198 under this contamination (verified
    # against an independent optimizer and across master seeds), so the
    # calibrated lower band is documented here rather than weakened.
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        scenario="gamma_synthetic",
        n_values=(1000,),
        epsilons=(0.03,),
        recipes=("type_x",),
        estimators=("mle", "tilde"),
        replications=10,
        master_seed=44,
    )
    table = run_plan(plan)
    r_mle = table.row(estimator="mle")["rmse"]
    r_tilde = table.row(estimator="tilde")["rmse"]
    dt = time.perf_counter() - t0
    ok = r_mle >= 0.28 and r_tilde <= 0.28 and dt <= 600.0
    _gate(
        capsys, 4,
        ok,
        f"mle {r_mle:.3f} >= 0.28, tilde {r_tilde:.3f} <= 0.28; {dt:.0f}s <= 600s",
    )


@pytest.mark.slow
def test_criterion_05_heckman_cell(capsys):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        scenario="heckman_synthetic",
        n_values=(1000,),
        epsilons=(0.01,),
        recipes=("type_x",),
        estimators=("mle", "tilde"),
        replications=5,
        master_seed=55,
    )
    table = run_plan(plan)
    r_mle = table.row(estimator="mle")["rmse"]
    r_tilde = table.row(estimator="tilde")["rmse"]
    dt = time.perf_counter() - t0
    ok = r_mle >= 1.0 and r_tilde <= 1.0 and dt <= 1800.0
    _gate(
        capsys, 5,
        ok,
        f"mle {r_mle:.3f} >= 1.0, tilde {r_tilde:.3f} <= 1.0; {dt:.0f}s <= 1800s",
    )


@pytest.mark.slow
def test_criterion_06_quadratic_gradient_unbiased(capsys):
    t0 = time.perf_counter()
    fam = get_family("logistic", 2)
    rng = np.random.default_rng(601)
    x = rng.standard_normal((6, 2))
    y = fam.sample(rng.standard_normal(2), x, rng)
    ds = Dataset(x, y, "binary")
    theta = rng.standard_normal(2)
    kern = product_kernel(psi_matern_kernel(0.5, m=1), exponential_kernel(1.0))

    exact = np.zeros(2)
    for i in range(6):
        exact += diag_grad(fam, theta, x[i], y[i], kern.y_kernel)
    for i in range(6):
        for j in range(i + 1, 6):
            exact += cross_grad(fam, theta, x[i], x[j], y[j], kern)
            exact += cross_grad(fam, theta, x[j], x[i], y[i], kern)

    cache = build_pair_cache(kern.x_kernel, x, 6)
    rng_draws = np.random.default_rng(603)
    rng_pairs = np.random.default_rng(604)
    draws = np.empty((100_000, 2))
    for t in range(draws.shape[0]):
        draws[t] = grad_objective_estimate(
            fam, theta, ds, kern,
            cache=cache, m_samp=6, rng_draws=rng_draws, rng_pairs=rng_pairs,
        )
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    gap = np.abs(mean - exact) / se
    dt = time.perf_counter() - t0
    ok = bool(np.all(gap <= 4.0)) and dt <= 60.0
    _gate(
        capsys, 6,
        ok,
        f"10^5-draw mean within {gap.max():.2f} se of exact gradient (cap 4); {dt:.0f}s <= 60s",
    )


def test_criterion_07_score_matches_finite_differences(capsys):
    h = 1e-5
    specs = [
        ("gaussian_linear", 3, {}),
        ("logistic", 3, {}),
        ("poisson", 3, {}),
        ("gamma", 3, {}),
        ("heckman", 2, {}),
        ("mixture", 2, {"n_components": 2}),
    ]
    worst = 0.0
    for idx, (name, d, kwargs) in enumerate(specs):
        fam = get_family(name, d, **kwargs)
        rng = np.random.default_rng(700 + idx)
        for _ in range(200):
            theta = 0.5 * rng.standard_normal(fam.raw_dim)
            xrow = rng.standard_normal((1, fam.d))
            y = fam.sample(theta, xrow, rng)
            grad = fam.grad_log_density(theta, xrow, y)[0]
            for k in range(fam.raw_dim):
                up = theta.copy()
                dn = theta.copy()
                up[k] += h
                dn[k] -= h
                fd = (log_density(fam, up, xrow, y)[0] - log_density(fam, dn, xrow, y)[0]) / (2.0 * h)
                worst = max(worst, abs(grad[k] - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-5
    _gate(capsys, 7, ok, f"six families x 200 points, worst rel err {worst:.2e} <= 1e-05")


def test_criterion_08_quadratic_equals_diagonal_plus_link(capsys):
    fam = get_family("logistic", 2)
    rng = np.random.default_rng(800)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        x = rng.standard_normal((n, 2))
        y = fam.sample(rng.standard_normal(2), x, rng)
        ds = Dataset(x, y, "binary")
        theta = rng.standard_normal(2)
        kern = product_kernel(
            psi_matern_kernel(float(rng.uniform(0.1, 1.0)), m=1), exponential_kernel(1.0)
        )
        full = objective(fam, theta, ds, kern, "hat", mode="exact").value
        diag = objective(fam, theta, ds, kern, "tilde", mode="exact").value
        link = link_term(fam, theta, ds, kern, mode="exact")
        worst = max(worst, abs(full - (diag + link)))
    ok = worst <= 1e-10
    _gate(capsys, 8, ok, f"50 random thetas, n <= 20, worst |full - (diag + link)| {worst:.2e} <= 1e-10")


def test_criterion_09_vstat_axioms_and_gram_psd(capsys):
    rng = np.random.default_rng(900)
    ky = exponential_kernel(1.0)

    point = mmd_sq_vstat(ky, np.array([[0.0]]), np.array([[1.0]]))
    delta_err = abs(point - (2.0 - 2.0 * math.exp(-1.0)))

    neg_worst = 0.0
    sym_worst = 0.0
    self_worst = 0.0
    for _ in range(30):
        na, nb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = rng.standard_normal((na, 1))
        b = rng.standard_normal((nb, 1))
        wa = rng.random(na) + 0.1
        wb = rng.random(nb) + 0.1
        wa /= wa.sum()
        wb /= wb.sum()
        ab = mmd_sq_vstat(ky, a, b, wa, wb)
        ba = mmd_sq_vstat(ky, b, a, wb, wa)
        neg_worst = min(neg_worst, ab)
        sym_worst = max(sym_worst, abs(ab - ba))
        self_worst = max(self_worst, mmd_sq_vstat(ky, a, a, wa, wa))
    prod = product_kernel(psi_matern_kernel(0.3, m=1), ky)
    for _ in range(10):
        na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        pa = (rng.standard_normal((na, 2)), rng.standard_normal((na, 1)))
        pb = (rng.standard_normal((nb, 2)), rng.standard_normal((nb, 1)))
        ab = mmd_sq_vstat(prod, pa, pb)
        ba = mmd_sq_vstat(prod, pb, pa)
        neg_worst = min(neg_worst, ab)
        sym_worst = max(sym_worst, abs(ab - ba))
        self_worst = max(self_worst, mmd_sq_vstat(prod, pa, pa))

    min_eig = 0.0
    for kern in (
        exponential_kernel(1.0),
        gaussian_kernel(0.8),
        psi_matern_kernel(0.3, m=1),
        psi_matern_kernel(0.01, m=1),
    ):
        pts = rng.standard_normal((25, 3))
        g = gram(kern, pts, pts)
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        min_eig = min(min_eig, eigs.min() / max(1.0, eigs.max()))

    ok = (
        delta_err <= 1e-12
        and neg_worst >= 0.0
        and sym_worst <= 1e-12
        and self_worst <= 1e-12
        and min_eig >= -1e-9
    )
    _gate(
        capsys, 9,
        ok,
        f"point-mass value err {delta_err:.1e} <= 1e-12, min value {neg_worst:.1e} >= 0, "
        f"asymmetry {sym_worst:.1e} <= 1e-12, self-distance {self_worst:.1e} <= 1e-12, "
        f"scaled min eigenvalue {min_eig:.1e} >= -1e-9",
    )


def test_criterion_10_small_bandwidth_agreement(capsys):
    scen = get_scenario("gauss_linear_laplace")
    fam, ds = simulate_dataset(scen, 200, seed=1010)
    assert np.unique(ds.x, axis=0).shape[0] == ds.n
    kern = product_kernel(psi_matern_kernel(1e-4, m=1), exponential_kernel(1.0))
    res_hat = fit(fam, ds, FitConfig(estimator="hat", kernel=kern, iters=5000, seed=77))
    res_tilde = fit(fam, ds, FitConfig(estimator="tilde", kernel=kern, iters=5000, seed=77))
    delta = float(np.linalg.norm(res_hat.theta_raw - res_tilde.theta_raw))
    ok = res_hat.error is None and res_tilde.error is None and delta <= 0.05
    _gate(capsys, 10, ok, f"||hat - tilde|| {delta:.2e} <= 0.05 at bandwidth 1e-4, n=200, shared seed")


def test_criterion_11_error_shrinks_with_sample_size(capsys):
    plan = ExperimentPlan(
        scenario="gauss_linear_laplace",
        n_values=(250, 1000, 4000),
        epsilons=(0.0,),
        recipes=(),
        estimators=("tilde",),
        replications=10,
        master_seed=66,
    )
    table = run_plan(plan)
    scen = get_scenario("gauss_linear_laplace")
    truth = scen.truth_natural[scen.report_mask]
    medians = {}
    for n in plan.n_values:
        errs = [
            float(np.linalg.norm(np.asarray(rec["theta_natural"])[scen.report_mask] - truth))
            for rec in table.per_rep
            if rec["n"] == n and rec["error"] is None
        ]
        assert len(errs) == plan.replications
        medians[n] = float(np.median(errs))
    ratio = medians[4000] / medians[250]
    ok = medians[250] > medians[1000] > medians[4000] and ratio <= 0.7
    _gate(
        capsys, 11,
        ok,
        f"median error {medians[250]:.3f} > {medians[1000]:.3f} > {medians[4000]:.3f}, "
        f"ratio {ratio:.2f} <= 0.7",
    )
