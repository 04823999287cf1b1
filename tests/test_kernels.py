"""Unit tests for the kernel primitives and the KernelSpec evaluator.

Pointwise values are checked against closed forms and against the scalar
reference evaluator ``kernel_value`` of ``tests/oracles.py``, which
computes each kernel with ``math`` from the ``KernelSpec`` docstring.
"""

import math
import warnings

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
    matern_kernel,
    product_kernel,
    psi,
    psi_matern_kernel,
    spec_from_dict,
)
from mmdreg.kernels import _aligned_dists, _cross_dists
from mmdreg.gradients import top_pairs
from oracles import kernel_value, top_pairs_oracle


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
        # Isolating the radical in u = psi(v) and squaring leaves an
        # equation linear in v, solved by v = (2u - 1) / (u (1 - u)).
        def inverse(u):
            return (2.0 * u - 1.0) / (u * (1.0 - u))

        u = np.linspace(1e-6, 1.0 - 1e-6, 5001)
        assert np.max(np.abs(psi(inverse(u)) - u)) < 1e-12
        v = np.linspace(-50.0, 50.0, 2001)
        assert np.max(np.abs(inverse(psi(v)) - v) / (1.0 + np.abs(v))) < 1e-9

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

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            psi(np.nan)


def matern_at(r, gamma, m):
    """The half-integer Matern kernel at distances ``r`` from the origin."""
    return gram(matern_kernel(gamma, m=m), np.zeros(1), np.atleast_1d(r))[0]


class TestMaternHalfint:
    def test_frozen_values(self):
        # m=1 at r = gamma reduces to exp(-1).
        assert abs(matern_at(0.01, 0.01, 1)[0] - 0.3678794) < 1e-7
        # m=3 at r = gamma: (1 + sqrt(3)) exp(-sqrt(3)).
        assert abs(matern_at(1.0, 1.0, 3)[0] - 0.4833577) < 1e-7

    def test_closed_forms_on_grid(self):
        r = np.linspace(0.0, 5.0, 101)
        g = 0.7
        s3 = math.sqrt(3.0) * r / g
        s5 = math.sqrt(5.0) * r / g
        assert np.allclose(matern_at(r, g, 1), np.exp(-r / g), atol=1e-15)
        assert np.allclose(matern_at(r, g, 3), (1 + s3) * np.exp(-s3), atol=1e-15)
        assert np.allclose(matern_at(r, g, 5), (1 + s5 + s5 ** 2 / 3) * np.exp(-s5), atol=1e-15)

    def test_normalization_and_decay(self):
        for m in (1, 3, 5):
            assert matern_at(0.0, 0.3, m)[0] == 1.0
            vals = matern_at(np.linspace(0, 10, 200), 0.3, m)
            assert np.all(np.diff(vals) < 0)

    def test_overflowing_scale_gives_zero(self):
        # s = sqrt(m) r / gamma overflows to inf (and s * s for m = 5 earlier);
        # exp(-s) is 0 there, so the kernel is 0, not inf * 0 = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (1, 3, 5):
                assert gram(matern_kernel(1.3e-137, m=m), [[0.0]], [[1e300]]).tolist() == [[0.0]]
                assert matern_at([1.0, 1e-100, 1e300], 1.3e-137, m).tolist() == [0.0, 0.0, 0.0]

    def test_overflowing_scale_ranks_like_dense_gram(self):
        # at the smallest scale every distinct pair weighs 0, not NaN, and
        # the Gram-free selection still ranks those pairs by distance
        kern = matern_kernel(1.3e-137, m=3)
        x = np.array([[0.0], [1e10], [0.5], [0.0]])
        got = top_pairs(kern, x, 2)
        want = top_pairs_oracle(_cross_dists(x, x), 2)
        assert [a.tolist() for a in got] == [a.tolist() for a in want] == [[0, 0], [3, 2]]
        assert gram(kern, x, x)[got].tolist() == [1.0, 0.0]

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            matern_kernel(1.0, m=2)
        with pytest.raises(ConfigError):
            matern_kernel(0.0)
        with pytest.raises(ConfigError):
            matern_kernel(float("nan"))


class TestRadialCap:
    """Exponential and gaussian leaves cap the distance where the kernel
    is exactly 0, so far points give 0 with no overflow."""

    def test_far_points_give_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # r / gamma and r * r / (2 gamma^2) overflowed here
            assert gram(exponential_kernel(1.3e-137), [[0.0]], [[1e300]]).tolist() == [[0.0]]
            assert gram(gaussian_kernel(1.1e-154), [[0.0]], [[1e10]]).tolist() == [[0.0]]
            for spec in (exponential_kernel(1.7e151), gaussian_kernel(3.3e152)):
                assert gram(spec, [[0.0], [1.0]], [[np.inf], [1.0]]).tolist() == [[0.0, 1.0]] * 2

    def test_finite_values_keep_their_bits(self):
        # distances r exactly (1-D points, r^2 a normal float), including
        # either side of each cap; the uncapped formulas are the reference
        r = np.concatenate([[0.0], np.logspace(-150, 150, 601)])
        gammas = [1.1e-154, 1e-150, 1.3e-137, 1e-20, 0.01, 0.7, 1.0, 3.0, 1e20, 1.7e151, 3.3e152]
        for g in gammas:
            caps = np.array([800.0 * g, 40.0 * g])
            caps = caps[(caps > 1e-150) & (caps < 1e150)]
            grid = np.concatenate([r, caps, np.nextafter(caps, 0.0), np.nextafter(caps, np.inf)])
            with np.errstate(all="ignore"):
                plain = {"exponential": np.exp(-grid / g),
                         "gaussian": np.exp(-(grid * grid) / (2.0 * g * g))}
            specs = [gaussian_kernel(g)]
            if 1.3e-137 <= g <= 1.7e151:  # the exponential's gamma range
                specs.append(exponential_kernel(g))
            for spec in specs:
                got = gram(spec, np.zeros(1), grid)[0]
                assert got.tobytes() == plain[spec.family].tobytes(), (spec, g)

    def test_gaussian_gamma_range(self):
        # below 1.1e-154, 2 gamma^2 is not a normal float and k(z, z) came out NaN
        for gamma in (1e-200, 1e-154, 1e153):
            with pytest.raises(ConfigError, match="gaussian kernel gamma"):
                gaussian_kernel(gamma)
            with pytest.raises(ConfigError):
                spec_from_dict({"family": "gaussian", "gamma": gamma})
        for gamma in (1.1e-154, 3.3e152):
            assert gram(gaussian_kernel(gamma), [[0.0]], [[0.0]]).tolist() == [[1.0]]

    def test_matern_gamma_range(self):
        # outside it the squared distances left the normal floats: a matern
        # kernel at 1e-300 gave 1.0 at distance 1e-290 (the kernel is 0) and
        # an exponential one at 1e153 gave 0.0 at 1e155 (it is 3.7e-44)
        with pytest.raises(ConfigError, match="matern kernel gamma"):
            gram(matern_kernel(1e-300, m=1), [[0.0]], [[1e-290]])
        with pytest.raises(ConfigError, match="exponential kernel gamma"):
            gram(exponential_kernel(1e153), [[0.0]], [[1e155]])
        for family in ("exponential", "matern", "psi_matern"):
            for gamma in (0.0, 1.2e-137, 1.8e151):
                with pytest.raises(ConfigError, match=f"{family} kernel gamma"):
                    KernelSpec(family=family, gamma=gamma)
                with pytest.raises(ConfigError):
                    spec_from_dict({"family": family, "gamma": gamma})
        # at the end points a distance whose square is subnormal or 0 still
        # gives exactly 1.0, and one whose square overflows exactly 0.0,
        # the kernel's own values there
        near = [[2.0**-511], [1e-160], [5e-324]]
        for m in (1, 3, 5):
            for spec in (exponential_kernel(1.3e-137), matern_kernel(1.3e-137, m=m),
                         psi_matern_kernel(1.3e-137, m=m)):
                assert gram(spec, [[0.0]], near).tolist() == [[1.0] * 3]
            for spec in (exponential_kernel(1.7e151), matern_kernel(1.7e151, m=m)):
                assert gram(spec, [[0.0]], [[1.35e154], [1e300]]).tolist() == [[0.0, 0.0]]


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

    def test_unit_diagonal(self):
        # k(x, x) is exactly 1 for every covariate kernel a hat fit takes,
        # a radial leaf or an affine shift of one: the hat gradient gives
        # each diagonal term the weight 1 instead of evaluating it
        rng = np.random.default_rng(23)
        x = rng.normal(scale=3.0, size=(50, 2))
        x[:5] *= 1e100
        leaves = [exponential_kernel(0.7), gaussian_kernel(1.3)]
        leaves += [matern_kernel(0.9, m=m) for m in (1, 3, 5)]
        leaves += [psi_matern_kernel(0.05, m=m) for m in (1, 3, 5)]
        for leaf in leaves:
            specs = [leaf] + [affine_shift_kernel(leaf, beta) for beta in (0.0, 0.3, 0.7, 1.0)]
            specs.append(affine_shift_kernel(affine_shift_kernel(leaf, 0.6), 0.8))
            for spec in specs:
                assert np.all(elementwise(spec, x, x) == 1.0), spec

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
        # Every radial family and Matern order, alone, under an affine
        # shift, and as product factors.
        rng = np.random.default_rng(3)
        radial = [exponential_kernel(0.8), gaussian_kernel(1.1)]
        radial += [matern_kernel(0.6, m=m) for m in (1, 3, 5)]
        radial += [psi_matern_kernel(0.3, m=m) for m in (1, 3, 5)]
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
        val = elementwise(spec, 0.0, 1.0)[0]
        assert abs(val - (0.25 * math.exp(-1.0) + 0.75)) < 1e-15

    def test_product_factorizes(self):
        spec = product_kernel(exponential_kernel(2.0), gaussian_kernel(1.0))
        x, xp = np.array([0.3]), np.array([1.1])
        y, yp = np.array([0.0]), np.array([2.0])
        got = elementwise(spec, (x, y), (xp, yp))[0]
        want = math.exp(-0.8 / 2.0) * math.exp(-4.0 / 2.0)
        assert abs(got - want) < 1e-15
        # a product takes (x_points, y_points) pairs, not plain point arrays
        joint = np.array([[0.3, 0.0], [1.1, 2.0]])
        for a, b in ((joint, joint), ((x, y), joint), (joint[:1], (xp, yp))):
            for evaluate in (gram, elementwise):
                with pytest.raises(DomainError, match="pairs"):
                    evaluate(spec, a, b)

    def test_malformed_point_pairs_refused(self):
        # a non-product kernel is not given an (x, y) pair, not even one
        # numpy could stack into a (2, n) array, and a product pair's two
        # parts have equal row counts, not merely broadcastable ones
        rng = np.random.default_rng(23)
        x, y = rng.normal(size=(5, 2)), rng.normal(size=5)
        ky = exponential_kernel(1.0)
        prod = product_kernel(psi_matern_kernel(0.4), ky)
        cases = [
            (ky, (x, y), (x, y), "only a product"),
            (ky, (x[:, 0], y), (x[:, 0], y), "only a product"),
            (ky, y, (x[:, 0], y), "only a product"),
            (prod, (x, y[:3]), (x, y[:3]), "row count"),
            (prod, (x[:1], y), (x[:1], y), "row count"),
            (prod, (x, y[:3]), (x, y), "row count|equal shapes"),
        ]
        for spec, a, b, message in cases:
            for evaluate in (gram, elementwise):
                with pytest.raises(DomainError, match=message):
                    evaluate(spec, a, b)

    @pytest.mark.parametrize("evaluate, a, b, message", [
        (gram, np.zeros((2, 2, 1)), np.zeros((2, 2)), r"at most 2-D, got shape \(2, 2, 1\)"),
        (elementwise, np.zeros((2, 2)), np.zeros((2, 2, 1)), "at most 2-D"),
        (gram, np.zeros((3, 2)), np.zeros((4, 3)), "point dimension mismatch: 2 vs 3"),
        (elementwise, np.zeros((3, 2)), np.zeros((4, 2)), r"equal shapes, got \(3, 2\) vs \(4, 2\)"),
    ], ids=["gram-3d", "elementwise-3d", "gram-dims", "elementwise-shapes"])
    def test_point_shapes_refused(self, evaluate, a, b, message):
        with pytest.raises(DomainError, match=message):
            evaluate(exponential_kernel(1.0), a, b)

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(5, 2))
        radial = [exponential_kernel(0.8), gaussian_kernel(1.1)]
        radial += [matern_kernel(0.6, m=m) for m in (1, 3, 5)]
        radial += [psi_matern_kernel(0.4, m=m) for m in (1, 3, 5)]
        for spec in radial + [affine_shift_kernel(radial[-1], beta=0.3)]:
            k = gram(spec, a, b)
            for i in range(6):
                for j in range(5):
                    assert abs(k[i, j] - kernel_value(spec, a[i], b[j])) < 1e-12, spec
        spec = product_kernel(psi_matern_kernel(0.4, m=3), exponential_kernel(1.0))
        ya, yb = rng.normal(size=6), rng.normal(size=5)
        k = gram(spec, (a, ya), (b, yb))
        for i in range(6):
            for j in range(5):
                assert abs(k[i, j] - kernel_value(spec, (a[i], ya[i]), (b[j], yb[j]))) < 1e-12

    def test_elementwise_scalar_inputs(self):
        spec = exponential_kernel(1.0)
        val = elementwise(spec, 0.0, 1.0)
        assert val.shape == (1,)
        assert abs(val[0] - math.exp(-1.0)) < 1e-15

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_elementwise_equals_gram_bitwise(self, width):
        # Both reduce squared differences in the same order, so each
        # aligned value is its Gram entry bit for bit.
        rng = np.random.default_rng(40 + width)
        a = rng.normal(size=(300, width))
        b = rng.normal(size=(300, width))
        for spec in (exponential_kernel(0.7), psi_matern_kernel(0.3, m=3)):
            got = elementwise(spec, a, b)
            want = [gram(spec, a[i : i + 1], b[i : i + 1])[0, 0] for i in range(a.shape[0])]
            assert np.array_equal(got, want), spec

    def test_one_coordinate_distances_match_einsum(self):
        # the 1-D branch squares its one difference where _cross_dists and
        # the wider rows sum with einsum; a one-term einsum sum is the same
        # float, also where the square is subnormal, 0 or inf
        mags = np.concatenate([[0.0, 5e-324, 1e-160, 1.34e154, np.inf],
                               np.logspace(-160.0, np.log10(1.34e154), 401)])
        d = np.concatenate([mags, -mags])
        zero = np.zeros_like(d)
        for a, b in ((d, zero), (zero, d), (d + 0.5, np.full_like(d, 0.5))):
            diff = (a - b)[:, None]
            want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            assert _aligned_dists(a[:, None], b[:, None]).tobytes() == want.tobytes()
        # and so do the kernel values on finite points, against the einsum
        # path of a zero second coordinate
        d = d[np.isfinite(d)]
        zero = np.zeros_like(d)
        wide = np.column_stack([d, zero])
        for spec in (exponential_kernel(1.3e-137), exponential_kernel(1.7e151),
                     gaussian_kernel(1.1e-154), matern_kernel(1.3e-137, m=3),
                     matern_kernel(1.7e151, m=5), psi_matern_kernel(0.01)):
            got = elementwise(spec, d, zero)
            assert got.tobytes() == elementwise(spec, wide, np.zeros_like(wide)).tobytes(), spec

    def test_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="spline")
        with pytest.raises(ConfigError):
            KernelSpec(family="exponential", gamma=-1.0)
        with pytest.raises(ConfigError):
            KernelSpec(family="matern", gamma=1.0, m=4)
        with pytest.raises(ConfigError):
            KernelSpec(family="affine_shift", beta=0.5)
        for beta in (-0.1, 1.5):
            with pytest.raises(ConfigError, match=r"beta must lie in \[0, 1\]"):
                affine_shift_kernel(exponential_kernel(), beta)
        with pytest.raises(ConfigError):
            KernelSpec(family="product", x_kernel=exponential_kernel())
        # a product appears only at the top: not under a shift, not as a
        # factor; and every part is a KernelSpec
        inner = product_kernel(exponential_kernel(), exponential_kernel())
        for parts in (
            {"family": "affine_shift", "beta": 0.5, "child": inner},
            {"family": "product", "x_kernel": exponential_kernel(), "y_kernel": inner},
            {"family": "product", "x_kernel": inner, "y_kernel": exponential_kernel()},
            {"family": "affine_shift", "beta": 0.5, "child": {"family": "exponential"}},
            {"family": "product", "x_kernel": exponential_kernel(), "y_kernel": 5},
        ):
            with pytest.raises(ConfigError, match="radial kernel or an affine shift"):
                KernelSpec(**parts)
        # a product has no radial leaf to rank covariate pairs by
        with pytest.raises(ConfigError, match="covariate kernel must be radial"):
            top_pairs(inner, np.zeros((3, 1)), 1)
        for fields in (
            {"family": "gaussian", "gamma": "1"},
            {"family": "affine_shift", "beta": "0.5", "child": exponential_kernel()},
            {"family": "matern", "m": True},
            # an order that is not a whole number, for any family
            {"family": "exponential", "m": "abc"},
            {"family": "gaussian", "m": 1.0},
            # integers beyond float range
            {"family": "matern", "gamma": 10**400},
            {"family": "affine_shift", "beta": -(10**400), "child": exponential_kernel()},
        ):
            with pytest.raises(ConfigError):
                KernelSpec(**fields)
        # 2**64 is a finite float
        assert gram(KernelSpec(family="matern", gamma=2**64), [[0.0]], [[1.0]]).tolist() == [[1.0]]


class TestSpecSerialization:
    def test_round_trip(self):
        spec = product_kernel(
            affine_shift_kernel(psi_matern_kernel(0.01, m=1), beta=0.9),
            exponential_kernel(1.0),
        )
        again = spec_from_dict({
            "family": "product",
            "x_kernel": {"family": "affine_shift", "beta": 0.9,
                         "child": {"family": "psi_matern", "gamma": 0.01, "m": 1}},
            "y_kernel": {"family": "exponential", "gamma": 1.0},
        })
        assert again == spec

    def test_from_dict_defaults(self):
        spec = spec_from_dict({"family": "matern", "gamma": 0.5, "m": 5})
        assert spec.m == 5 and spec.beta == 1.0
        assert spec_from_dict({"family": "matern", "gamma": 0.5, "m": 3}) == matern_kernel(0.5, m=3)
        # integer scales and weights are stored as floats
        spec = spec_from_dict({"family": "affine_shift", "beta": 1,
                               "child": {"family": "exponential", "gamma": 1}})
        assert spec == affine_shift_kernel(exponential_kernel(1.0), 1.0)
        assert type(spec.beta) is float and type(spec.child.gamma) is float

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"gamma": 1.0})
        with pytest.raises(ConfigError):
            spec_from_dict({"family": "exponential", "scale": 2.0})
        with pytest.raises(ConfigError):
            spec_from_dict([1, 2, 3])
        # values are not coerced: a string, a boolean or a fraction is refused
        for entry in (
            {"family": "matern", "gamma": 0.5, "m": 3.9},
            {"family": "matern", "gamma": 0.5, "m": 3.0},
            {"family": "matern", "gamma": 0.5, "m": True},
            {"family": "matern", "gamma": 0.5, "m": "3.9"},
            {"family": "matern", "gamma": 0.5, "m": "3"},
            {"family": "matern", "gamma": "0.5", "m": 3},
            {"family": "matern", "gamma": True},
            {"family": "exponential", "m": "abc"},
            {"family": "affine_shift", "beta": True, "child": {"family": "exponential"}},
            {"family": "affine_shift", "beta": "0.5", "child": {"family": "exponential"}},
        ):
            with pytest.raises(ConfigError):
                spec_from_dict(entry)
        # a product is refused under a shift and as a product's factor
        prod = {"family": "product", "x_kernel": {"family": "exponential"},
                "y_kernel": {"family": "exponential"}}
        for entry in (
            {"family": "affine_shift", "beta": 0.5, "child": prod},
            {"family": "affine_shift", "beta": 0.5,
             "child": {"family": "affine_shift", "beta": 0.5, "child": prod}},
            {"family": "product", "x_kernel": {"family": "exponential"}, "y_kernel": prod},
            {"family": "product", "x_kernel": prod, "y_kernel": {"family": "exponential"}},
        ):
            with pytest.raises(ConfigError, match="radial kernel or an affine shift"):
                spec_from_dict(entry)
        # kernels take no scale: a key c is refused like any unknown key
        with pytest.raises(ConfigError, match="unknown kernel config keys"):
            spec_from_dict({"family": "exponential", "c": 1.0})
