"""Unit tests for the kernel primitives and the KernelSpec evaluator."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmdreg.errors import ConfigError, DomainError
from mmdreg.kernels import (
    KernelSpec,
    affine_shift_kernel,
    elementwise,
    exponential_kernel,
    gaussian_kernel,
    gram,
    kernel_eval,
    matern_halfint,
    matern_kernel,
    product_kernel,
    psi,
    psi_inverse,
    psi_matern_kernel,
    spec_from_dict,
    spec_to_dict,
)


class TestPsi:
    def test_frozen_value(self):
        # Oracle: 1/2 + (sqrt(8) - 2) / 4 evaluated in high precision.
        assert abs(psi(2.0) - 0.7071068) < 1e-7

    def test_midpoint(self):
        assert psi(0.0) == 0.5

    def test_antisymmetry(self):
        v = np.linspace(-40.0, 40.0, 2001)
        assert np.max(np.abs(psi(-v) - (1.0 - psi(v)))) < 1e-12

    def test_range_and_monotonicity(self):
        v = np.linspace(-1e6, 1e6, 40001)
        u = psi(v)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert np.all(np.diff(u) > 0.0)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 5001)
        assert np.max(np.abs(psi(psi_inverse(u)) - u)) < 1e-12
        v = np.linspace(-50.0, 50.0, 2001)
        assert np.max(np.abs(psi_inverse(psi(v)) - v) / (1.0 + np.abs(v))) < 1e-9

    def test_huge_inputs(self):
        # v * v overflows past about 1.3e154; psi must still saturate
        # toward the right end instead of falling back to psi(0).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi(1e200) == 1.0
            assert psi(-1e200) == 0.0
            u = psi(np.geomspace(1e150, 1e300, 2001))
        assert np.all(np.diff(u) >= 0.0)
        x = np.array([[0.0], [1e200]])
        assert gram(psi_matern_kernel(0.01), x, x)[0, 1] < 1e-6

    def test_conjugate_form_below_cap(self):
        # up to 1e150 the value is the plain conjugate form, bit for bit
        v = np.concatenate([np.geomspace(1e-300, 1e150, 4001), [0.0]])
        v = np.concatenate([v, -v])
        assert np.array_equal(psi(v), 0.5 + v / (2.0 * (np.sqrt(v * v + 4.0) + 2.0)))

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            psi_inverse(0.0)
        with pytest.raises(DomainError):
            psi_inverse(1.0)
        with pytest.raises(DomainError):
            psi(np.array([1.0, np.inf]))


class TestMaternHalfint:
    def test_frozen_values(self):
        # m=1 at r = gamma reduces to exp(-1).
        assert abs(matern_halfint(0.01, 0.01, 1) - 0.3678794) < 1e-7
        # m=3 at r = gamma: (1 + sqrt(3)) exp(-sqrt(3)).
        assert abs(matern_halfint(1.0, 1.0, 3) - 0.4833577) < 1e-7

    def test_closed_forms_on_grid(self):
        r = np.linspace(0.0, 5.0, 101)
        g = 0.7
        s3 = math.sqrt(3.0) * r / g
        s5 = math.sqrt(5.0) * r / g
        assert np.allclose(matern_halfint(r, g, 1), np.exp(-r / g), atol=1e-15)
        assert np.allclose(matern_halfint(r, g, 3), (1 + s3) * np.exp(-s3), atol=1e-15)
        assert np.allclose(matern_halfint(r, g, 5), (1 + s5 + s5 ** 2 / 3) * np.exp(-s5), atol=1e-15)

    def test_normalization_and_decay(self):
        for m in (1, 3, 5):
            assert matern_halfint(0.0, 0.3, m) == 1.0
            vals = matern_halfint(np.linspace(0, 10, 200), 0.3, m)
            assert np.all(np.diff(vals) < 0)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            matern_halfint(1.0, 1.0, 2)
        with pytest.raises(DomainError):
            matern_halfint(-0.5, 1.0, 1)
        with pytest.raises(DomainError):
            matern_halfint(1.0, 0.0, 1)


class TestKernelSpec:
    def test_normalization_at_zero(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3))
        for spec in (
            exponential_kernel(0.5),
            gaussian_kernel(2.0),
            matern_kernel(1.3, m=5),
            psi_matern_kernel(0.01, m=1),
        ):
            vals = elementwise(spec, pts, pts)
            assert np.allclose(vals, 1.0, atol=1e-15)

    def test_boundedness(self):
        rng = np.random.default_rng(11)
        a = rng.normal(scale=3.0, size=(10000, 2))
        b = rng.normal(scale=3.0, size=(10000, 2))
        base = psi_matern_kernel(0.05, m=3)
        shifted = affine_shift_kernel(base, beta=0.8)
        for spec in (exponential_kernel(0.7), gaussian_kernel(0.9), base, shifted):
            vals = elementwise(spec, a, b)
            assert np.all(np.abs(vals) <= 1.0 + 1e-15)

    def test_symmetry_and_psd(self):
        # Every radial family and Matern order, at full scale and at
        # c < 1, alone, under an affine shift, and as product factors.
        rng = np.random.default_rng(3)
        radial = [exponential_kernel(0.8), gaussian_kernel(1.1)]
        radial += [matern_kernel(0.6, m=m) for m in (1, 3, 5)]
        radial += [psi_matern_kernel(0.3, m=m) for m in (1, 3, 5)]
        radial += [replace(spec, c=0.3) for spec in radial]
        single = radial + [affine_shift_kernel(spec, beta=0.5) for spec in radial]
        products = [product_kernel(spec, other) for spec, other in zip(single, reversed(single))]
        for _ in range(50):
            pts = rng.normal(size=(8, 2))
            # a near-duplicate row leaves the Gram matrix close to singular
            pts[1] = pts[0] + 1e-6
            ys = rng.normal(size=(8, 1))
            for spec, z in [(s, pts) for s in single] + [(s, (pts, ys)) for s in products]:
                k = gram(spec, z, z)
                assert np.allclose(k, k.T, atol=1e-12), spec
                eigs = np.linalg.eigvalsh((k + k.T) / 2)
                assert eigs.min() >= -1e-9 * eigs.max(), spec

    def test_product_psd(self):
        rng = np.random.default_rng(5)
        spec = product_kernel(psi_matern_kernel(0.5, m=1), exponential_kernel(1.0))
        for _ in range(20):
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 1))
            k = gram(spec, (x, y), (x, y))
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh((k + k.T) / 2).min() > -1e-8

    def test_psi_matern_locality(self):
        # On [-2, 2] any pair separated by at least 2 has psi-distance
        # >= psi(2) - psi(0) = 0.2071..., so with gamma = 0.01 the kernel
        # value is below exp(-20) < 1e-6.
        spec = psi_matern_kernel(0.01, m=1)
        x = np.linspace(-2.0, 2.0, 81)
        k = gram(spec, x, x)
        far = np.abs(x[:, None] - x[None, :]) >= 2.0
        assert np.all(k[far] <= 1e-6)

    def test_affine_shift_value(self):
        child = exponential_kernel(1.0)
        spec = affine_shift_kernel(child, beta=0.25)
        val = kernel_eval(spec, 0.0, 1.0)
        assert abs(val - (0.25 * math.exp(-1.0) + 0.75)) < 1e-15

    def test_product_factorizes(self):
        spec = product_kernel(exponential_kernel(2.0), gaussian_kernel(1.0))
        x, xp = np.array([0.3]), np.array([1.1])
        y, yp = np.array([0.0]), np.array([2.0])
        got = kernel_eval(spec, (x, y), (xp, yp))
        want = math.exp(-0.8 / 2.0) * math.exp(-4.0 / 2.0)
        assert abs(got - want) < 1e-15

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(5, 2))
        spec = psi_matern_kernel(0.4, m=3)
        k = gram(spec, a, b)
        for i in range(6):
            for j in range(5):
                assert abs(k[i, j] - kernel_eval(spec, a[i : i + 1], b[j : j + 1])) < 1e-12

    def test_elementwise_scalar_inputs(self):
        spec = exponential_kernel(1.0)
        assert abs(kernel_eval(spec, 0.0, 1.0) - math.exp(-1.0)) < 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="spline")
        with pytest.raises(ConfigError):
            KernelSpec(family="exponential", gamma=-1.0)
        with pytest.raises(ConfigError):
            KernelSpec(family="matern", gamma=1.0, m=4)
        with pytest.raises(ConfigError):
            KernelSpec(family="affine_shift", beta=0.5)
        with pytest.raises(ConfigError):
            KernelSpec(family="product", x_kernel=exponential_kernel())
        with pytest.raises(ConfigError):
            KernelSpec(family="exponential", c=1.5)
        with pytest.raises(DomainError):
            kernel_eval(exponential_kernel(), np.nan, 0.0)


class TestSpecSerialization:
    def test_round_trip(self):
        spec = product_kernel(
            affine_shift_kernel(psi_matern_kernel(0.01, m=1), beta=0.9),
            exponential_kernel(1.0),
        )
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_from_dict_defaults(self):
        spec = spec_from_dict({"family": "matern", "gamma": 0.5, "m": 5})
        assert spec.m == 5 and spec.c == 1.0

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"gamma": 1.0})
        with pytest.raises(ConfigError):
            spec_from_dict({"family": "exponential", "scale": 2.0})
        with pytest.raises(ConfigError):
            spec_from_dict([1, 2, 3])
