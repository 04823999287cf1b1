"""Tests for outlier injection.

Count oracles are analytic: the adversarial scheme must hit
floor(eps * n) exactly, and the Huber touched count is Binomial(n, eps),
checked against 4-sigma bands on its mean and variance.
"""

from dataclasses import replace

import numpy as np
import pytest

from mmdreg.contamination import ContaminationSpec, contaminate
from mmdreg.errors import ConfigError, DomainError
from mmdreg.models import Dataset, simulate_dataset


def real_dataset(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n), kind="real")


def censored_dataset(n, seed=0):
    _, ds = simulate_dataset("heckman_synthetic", n, seed)
    return ds


class TestSpecValidation:
    def test_epsilon_range(self):
        ContaminationSpec(epsilon=0.0)
        ContaminationSpec(epsilon=0.999)
        with pytest.raises(ConfigError, match="epsilon"):
            ContaminationSpec(epsilon=1.0)
        with pytest.raises(ConfigError, match="epsilon"):
            ContaminationSpec(epsilon=-0.01)
        with pytest.raises(ConfigError, match="epsilon"):
            ContaminationSpec(epsilon=float("nan"))
        with pytest.raises(ConfigError, match="epsilon"):
            ContaminationSpec(epsilon=10**400)

    def test_names_checked(self):
        with pytest.raises(ConfigError, match="scheme"):
            ContaminationSpec(epsilon=0.1, scheme="worst_case")
        with pytest.raises(ConfigError, match="recipe"):
            ContaminationSpec(epsilon=0.1, recipe="type_z")

    def test_mean_only_for_draw_recipes(self):
        with pytest.raises(ConfigError, match="mean"):
            ContaminationSpec(epsilon=0.1, recipe="selection_flip", mean=3.0)
        spec = ContaminationSpec(epsilon=0.1, recipe="type_x", mean=-0.5)
        assert spec.resolved_mean() == -0.5
        for bad in ("abc", True, float("inf"), 10**400):
            with pytest.raises(ConfigError, match="mean"):
                ContaminationSpec(epsilon=0.1, mean=bad)
        assert ContaminationSpec(epsilon=0.1, mean=2**64).mean == 2.0**64

    def test_default_means(self):
        assert ContaminationSpec(epsilon=0.1, recipe="type_x").resolved_mean() == 5.0
        assert ContaminationSpec(epsilon=0.1, recipe="type_y").resolved_mean() == 10.0
        assert ContaminationSpec(
            epsilon=0.1, recipe="selection_flip"
        ).resolved_mean() is None


class TestRowSelection:
    def test_eps_zero_identity(self):
        ds = real_dataset(50)
        for scheme in ("adversarial", "huber"):
            out = contaminate(ds, ContaminationSpec(epsilon=0.0, scheme=scheme, seed=3))
            assert np.array_equal(out.x, ds.x)
            assert np.array_equal(out.y, ds.y)
            assert out.meta["contamination"]["indices"] == []

    def test_adversarial_count_exact(self):
        # Expected counts are analytic: floor(eps * n) over a grid that
        # includes both boundary rates.
        cases = [
            (100, 0.0, 0),
            (100, 1.0 / 100, 1),
            (100, 0.999 * 99 / 100, 98),
            (100, 0.03, 3),
            (1000, 0.03, 30),
            (1000, 1.0 / 1000, 1),
            (1000, 0.999 * 999 / 1000, 998),
            (7, 0.999 * 6 / 7, 5),
            (1, 0.5, 0),
        ]
        for n, eps, want in cases:
            ds = real_dataset(n, seed=n)
            out = contaminate(ds, ContaminationSpec(epsilon=eps, seed=1))
            got = out.meta["contamination"]["indices"]
            assert len(got) == want, (n, eps)
            assert len(set(got)) == len(got)
            assert got == sorted(got)

    def test_adversarial_untouched_rows_bitwise(self):
        ds = real_dataset(1000, seed=5)
        out = contaminate(ds, ContaminationSpec(epsilon=0.03, recipe="type_y", seed=11))
        idx = out.meta["contamination"]["indices"]
        assert len(idx) == 30
        keep = np.setdiff1d(np.arange(1000), idx)
        assert np.array_equal(out.x, ds.x)
        assert np.array_equal(out.y[keep], ds.y[keep])
        assert not np.any(out.y[idx] == ds.y[idx])

    def test_huber_count_distribution(self):
        ds = real_dataset(100, seed=2)
        counts = np.array(
            [
                len(
                    contaminate(
                        ds, ContaminationSpec(epsilon=0.1, scheme="huber", seed=t)
                    ).meta["contamination"]["indices"]
                )
                for t in range(10_000)
            ]
        )
        assert 9.0 <= counts.mean() <= 11.0
        assert 7.2 <= counts.var(ddof=1) <= 10.8

    def test_same_seed_same_rows_across_recipes(self):
        # Index selection must not consume the replacement-value stream,
        # so changing the recipe leaves the touched set unchanged.
        ds = censored_dataset(400, seed=9)
        specs = [
            ContaminationSpec(epsilon=0.1, scheme=s, recipe=r, seed=21)
            for s in ("adversarial", "huber")
            for r in ("type_x", "selection_flip")
        ]
        by_scheme = {}
        for spec in specs:
            idx = tuple(contaminate(ds, spec).meta["contamination"]["indices"])
            by_scheme.setdefault(spec.scheme, set()).add(idx)
        assert all(len(v) == 1 for v in by_scheme.values())

    def test_determinism_and_seed_sensitivity(self):
        ds = real_dataset(500, seed=1)
        spec = ContaminationSpec(epsilon=0.1, recipe="type_y", seed=33)
        a = contaminate(ds, spec)
        b = contaminate(ds, spec)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = contaminate(ds, replace(spec, seed=34))
        assert a.meta["contamination"]["indices"] != c.meta["contamination"]["indices"]


class TestRecipes:
    def test_type_x_touches_only_first_column(self):
        ds = real_dataset(800, d=4, seed=3)
        out = contaminate(ds, ContaminationSpec(epsilon=0.05, recipe="type_x", seed=8))
        idx = out.meta["contamination"]["indices"]
        assert len(idx) == 40
        assert np.array_equal(out.y, ds.y)
        assert np.array_equal(out.x[:, 1:], ds.x[:, 1:])
        keep = np.setdiff1d(np.arange(800), idx)
        assert np.array_equal(out.x[keep, 0], ds.x[keep, 0])
        assert not np.any(out.x[idx, 0] == ds.x[idx, 0])

    def test_type_x_mean_band(self):
        # 4-sigma band around the requested centre, se = 1/sqrt(m).
        ds = real_dataset(10_000, seed=4)
        out = contaminate(
            ds, ContaminationSpec(epsilon=0.5, recipe="type_x", mean=-0.5, seed=13)
        )
        idx = out.meta["contamination"]["indices"]
        assert abs(np.mean(out.x[idx, 0]) - (-0.5)) < 4.0 / np.sqrt(len(idx))

    def test_type_y_mean_band(self):
        ds = real_dataset(10_000, seed=6)
        out = contaminate(ds, ContaminationSpec(epsilon=0.5, recipe="type_y", seed=14))
        idx = out.meta["contamination"]["indices"]
        assert len(idx) == 5000
        assert 9.95 <= float(np.mean(out.y[idx])) <= 10.05

    def test_selection_flip(self):
        ds = censored_dataset(600, seed=15)
        out = contaminate(
            ds, ContaminationSpec(epsilon=0.1, recipe="selection_flip", seed=16)
        )
        idx = out.meta["contamination"]["indices"]
        keep = np.setdiff1d(np.arange(600), idx)
        assert np.array_equal(out.x, ds.x)
        assert np.array_equal(out.y[:, 0], ds.y[:, 0])
        assert np.array_equal(out.y[keep], ds.y[keep])
        assert np.array_equal(out.y[idx, 1], 1.0 - ds.y[idx, 1])
        # Flipped rows that were selected now carry a nonzero outcome
        # with a zero indicator; the container accepts that on purpose.
        broken = (out.y[:, 1] == 0.0) & (out.y[:, 0] != 0.0)
        assert np.any(broken)

    def test_recipe_kind_mismatch(self):
        with pytest.raises(DomainError, match="type_y"):
            contaminate(
                censored_dataset(50), ContaminationSpec(epsilon=0.1, recipe="type_y")
            )
        with pytest.raises(DomainError, match="selection_flip"):
            contaminate(
                real_dataset(50),
                ContaminationSpec(epsilon=0.1, recipe="selection_flip"),
            )
        # Incompatibility is a property of the pair, not of the draw.
        with pytest.raises(DomainError):
            contaminate(
                real_dataset(50),
                ContaminationSpec(epsilon=0.0, recipe="selection_flip"),
            )

    def test_argument_types_checked(self):
        spec = ContaminationSpec(epsilon=0.1)
        with pytest.raises(ConfigError, match="contaminate expects a Dataset"):
            contaminate((np.zeros((3, 1)), np.zeros(3)), spec)
        with pytest.raises(ConfigError, match="contaminate expects a ContaminationSpec"):
            contaminate(real_dataset(10), {"epsilon": 0.1})

    def test_record_contents(self):
        ds = real_dataset(100, seed=19)
        spec = ContaminationSpec(epsilon=0.05, recipe="type_y", mean=10.0, seed=20)
        out = contaminate(ds, spec)
        rec = out.meta["contamination"]
        assert rec["epsilon"] == 0.05
        assert rec["scheme"] == "adversarial"
        assert rec["recipe"] == "type_y"
        assert rec["mean"] == 10.0
        assert rec["seed"] == 20
        assert all(isinstance(i, int) for i in rec["indices"])
        assert ds.meta.get("contamination") is None
