"""Kernels on covariates, responses, and joint covariate-response points.

One scalar building block is exposed directly: the bounded
reparameterization ``psi`` of the real line.  Every kernel is described
declaratively by :class:`KernelSpec` and evaluated with :func:`gram` or
:func:`elementwise`, so a kernel read from a config file and a kernel
built in code go through the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError
from .models import _config_keys, _real, _whole

# The fields besides `family` that each kernel family reads: the radial
# families are those that read gamma, and the Matern ones read m as well
_READS = {
    "exponential": ("gamma",), "gaussian": ("gamma",),
    "matern": ("gamma", "m"), "psi_matern": ("gamma", "m"),
    "affine_shift": ("beta", "child"), "product": ("x_kernel", "y_kernel"),
}
_MATERN_ORDERS = (1, 3, 5)
# Outside this range 2 gamma^2 is not a normal float (the exponent turns
# NaN or loses its bits) or the capped distance 40 gamma squares to inf.
_GAUSSIAN_GAMMA = (1.1e-154, 3.3e152)
# Distances come from squared coordinate differences, so one below 2^-511
# (about 1.5e-154) comes out rounded or 0 and one above sqrt(max float)
# (about 1.34e154) comes out inf.  Inside this range neither shows in an
# exponential (M_1) or Matern value.  From gamma = sqrt(5) 2^-456 = 1.2e-137
# on, such a small distance has s = sqrt(m) r / gamma < 2^-55, where
# exp(-s), and so M_m, is exactly 1.0 (2^-54 is not enough: numpy's exp
# gives 1 - 2^-53 just below it).  Up to gamma = 1.34e154 / 745.14 = 1.8e151,
# such a large distance has s past 745.14, where exp(-s) is already 0, the
# value the distance cap gives an inf one.
_MATERN_GAMMA = (1.3e-137, 1.7e151)


def psi(v):
    """Strictly increasing map of the real line onto (0, 1).

    ``psi(v) = 1/2 + (sqrt(v^2 + 4) - 2) / (2 v)`` extended by continuity
    to ``psi(0) = 1/2``.  The implementation uses the conjugate form
    ``1/2 + v / (2 (sqrt(v^2 + 4) + 2))``, which is algebraically
    identical and stable near zero.  For ``|v| > 1e150`` the root is
    taken as ``|v|``, its float64 value there, so ``v^2`` never
    overflows.  Satisfies ``psi(-v) = 1 - psi(v)``.

    Args:
        v: scalar or array of finite reals.

    Returns:
        Scalar float or float array with the shape of ``v``.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("psi requires finite input")
    out = _psi(v)
    return float(out) if out.ndim == 0 else out


def _psi(v):
    # v * v overflows beyond about 1.3e154; past 1e150 the root is |v|
    r = np.abs(v)
    small = np.minimum(r, 1e150)
    root = np.where(r > 1e150, r, np.sqrt(small * small + 4.0))
    return 0.5 + v / (2.0 * (root + 2.0))


def _matern(r, gamma, m):
    # M_m of the KernelSpec docstring at distance r.  exp(-s) is 0 from
    # s = 745.2 on, so capping s near 800 changes no value, while an s
    # that overflows would turn the product into inf * 0 = NaN.
    scale = math.sqrt(float(m)) / gamma
    s = scale * np.minimum(r, 800.0 / scale)
    if m == 1:
        return np.exp(-s)
    if m == 3:
        return (1.0 + s) * np.exp(-s)
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel.

    Fields are interpreted per ``family``:

    * ``"exponential"``: ``exp(-||z - z'|| / gamma)``
    * ``"gaussian"``: ``exp(-||z - z'||^2 / (2 gamma^2))``
    * ``"matern"``: ``M_m(||z - z'||)``, the half-integer Matern of
      order ``m/2`` with ``s = sqrt(m) r / gamma``: ``M_1 = exp(-s)``,
      ``M_3 = (1 + s) exp(-s)``, ``M_5 = (1 + s + s^2 / 3) exp(-s)``
    * ``"psi_matern"``: Matern evaluated on coordinate-wise psi-mapped
      points, ``M_m(||psi(z) - psi(z')||)``
    * ``"affine_shift"``: ``beta * child(z, z') + (1 - beta)``
    * ``"product"``: ``x_kernel(x, x') * y_kernel(y, y')`` on joint
      points ``z = (x, y)``

    A product appears only at the top: a shift's ``child`` and a
    product's factors are radial kernels or affine shifts of one.
    Radial kernels and affine shifts of them satisfy ``k(z, z) = 1``
    exactly; all combinations stay bounded by 1 in absolute value.
    """

    family: str
    gamma: float = 1.0
    m: int = 1
    beta: float = 1.0
    child: "KernelSpec | None" = None
    x_kernel: "KernelSpec | None" = None
    y_kernel: "KernelSpec | None" = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _READS:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        reads = _READS[self.family]
        for name in ("gamma", "beta"):
            if not _real(getattr(self, name)):
                raise ConfigError(f"kernel parameter {name!r} must be a finite number")
            object.__setattr__(self, name, float(getattr(self, name)))
        if not _whole(self.m):
            raise ConfigError(f"kernel order m must be a whole number, got {self.m!r}")
        unread = [f.name for f in fields(self)[1:]
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"{self.family} kernel does not read {unread}")
        if "gamma" in reads:
            lo, hi = _GAUSSIAN_GAMMA if self.family == "gaussian" else _MATERN_GAMMA
            if not lo <= self.gamma <= hi:
                raise ConfigError(f"{self.family} kernel gamma must lie in {[lo, hi]}")
        if "m" in reads and self.m not in _MATERN_ORDERS:
            raise ConfigError(f"kernel order m must be one of {_MATERN_ORDERS}")
        if self.family == "affine_shift":
            if self.child is None:
                raise ConfigError("affine_shift requires a child kernel")
            if not (0.0 <= self.beta <= 1.0):
                raise ConfigError("affine_shift weight beta must lie in [0, 1]")
        if self.family == "product" and (self.x_kernel is None or self.y_kernel is None):
            raise ConfigError("product requires both x_kernel and y_kernel")
        # each part was checked when it was built, so none has a product under it
        for name in ("child", "x_kernel", "y_kernel"):
            part = getattr(self, name)
            if not (part is None or isinstance(part, KernelSpec) and part.family != "product"):
                raise ConfigError(f"kernel {name} must be a radial kernel or an affine shift of one")


def exponential_kernel(gamma=1.0):
    return KernelSpec(family="exponential", gamma=gamma)


def gaussian_kernel(gamma=1.0):
    return KernelSpec(family="gaussian", gamma=gamma)


def matern_kernel(gamma, m=1):
    return KernelSpec(family="matern", gamma=gamma, m=m)


def psi_matern_kernel(gamma=0.01, m=1):
    return KernelSpec(family="psi_matern", gamma=gamma, m=m)


def affine_shift_kernel(child, beta):
    return KernelSpec(family="affine_shift", beta=beta, child=child)


def product_kernel(x_kernel, y_kernel):
    return KernelSpec(family="product", x_kernel=x_kernel, y_kernel=y_kernel)


def default_covariate_kernel():
    """Covariate kernel used throughout the benchmarks."""
    return psi_matern_kernel(gamma=0.01, m=1)


def default_response_kernel():
    """Response kernel used throughout the benchmarks."""
    return exponential_kernel(gamma=1.0)


def _as_points(z):
    """View as a 2-D float array of points, one row per point."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return z.reshape(1, 1)
    if z.ndim == 1:
        return z.reshape(-1, 1)
    if z.ndim != 2:
        raise DomainError(f"points must be at most 2-D, got shape {z.shape}")
    return z


def _cross_dists(a, b):
    # Direct differencing, chunked over rows of `a` to bound the size of
    # the (rows, m, p) temporary.  The norm-expansion shortcut is avoided
    # on purpose: its rounding error near zero is O(sqrt(eps)), which a
    # narrow kernel amplifies into visible diagonal noise.
    if a.shape[1] != b.shape[1]:
        raise DomainError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    na, nb = a.shape[0], b.shape[0]
    p = a.shape[1]
    out = np.empty((na, nb))
    step = max(1, 4_000_000 // max(nb * p, 1))
    for start in range(0, na, step):
        stop = min(start + step, na)
        diff = a[start:stop, None, :] - b[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:stop])
    return np.sqrt(out, out=out)


def _aligned_dists(a, b):
    if a.shape != b.shape:
        raise DomainError(f"aligned evaluation needs equal shapes, got {a.shape} vs {b.shape}")
    # the same reduction as _cross_dists, so each value equals its gram
    # entry; on one coordinate that sum is its single term d * d
    d = a - b
    if d.shape[1] == 1:
        d = d[:, 0]
        return np.sqrt(d * d)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _radial(spec, r):
    # As in _matern, distances are capped where the exponent passes 745,
    # beyond which exp is 0, so r / gamma and r * r cannot overflow.
    if spec.family == "exponential":
        return np.exp(-np.minimum(r, 800.0 * spec.gamma) / spec.gamma)
    if spec.family == "gaussian":
        r = np.minimum(r, 40.0 * spec.gamma)
        return np.exp(-(r * r) / (2.0 * spec.gamma * spec.gamma))
    return _matern(r, spec.gamma, spec.m)


def _leaf(spec):
    # the radial kernel under spec's affine shifts
    while spec.family == "affine_shift":
        spec = spec.child
    if spec.family == "product":
        raise ConfigError("a covariate kernel must be radial or an affine shift of one")
    return spec


def _shift(spec, v):
    # spec's affine shifts applied to its leaf's values v, innermost first
    if spec.family == "affine_shift":
        return spec.beta * _shift(spec.child, v) + (1.0 - spec.beta)
    return v


def _coords(spec, z):
    """The points as the leaf of ``spec`` measures them, psi-mapped for ``psi_matern``."""
    z = _as_points(z)
    return _psi(z) if _leaf(spec).family == "psi_matern" else z


def _profile(spec, r):
    """Value of ``spec`` at distance ``r`` between :func:`_coords` points."""
    return _shift(spec, _radial(_leaf(spec), r))


def _evaluate(spec, a, b, dists):
    # The one interpreter of a KernelSpec: a product multiplies its two
    # factors, and any other spec is its profile at the distances
    # ``dists`` gives between its coordinates.
    a = _point_parts(spec, a)
    b = _point_parts(spec, b)
    if spec.family == "product":
        kx = _evaluate(spec.x_kernel, a[0], b[0], dists)
        return kx * _evaluate(spec.y_kernel, a[1], b[1], dists)
    return _profile(spec, dists(_coords(spec, a[0]), _coords(spec, b[0])))


def _x_kernel(kernel):
    """The covariate factor of a product kernel, which the hat estimator needs."""
    if kernel.family != "product":
        raise ConfigError("a product kernel (x_kernel, y_kernel) is required here")
    return kernel.x_kernel


def _y_kernel(kernel):
    """The response factor of a product kernel, or the kernel itself."""
    return kernel.y_kernel if kernel.family == "product" else kernel


def _point_parts(kernel, points):
    """The arrays of one point set as ``kernel`` reads it: a product's
    ``(x_points, y_points)`` pair, whose parts have equal row counts (not
    merely broadcastable ones), or the one array of any other kernel."""
    product = kernel.family == "product"
    if isinstance(points, tuple) != product or product and len(points) != 2:
        raise DomainError("only a product kernel, and no other, takes (x_points, y_points) pairs")
    if not product:
        return (points,)
    if len({(np.shape(p) or (1,))[0] for p in points}) > 1:
        raise DomainError("the x and y points of a product pair differ in row count")
    return points


def _joint_points(kernel, x, y):
    """Joint points ``(x, y)`` as :func:`gram` takes them for ``kernel``:
    a pair for a product, one array of the columns of both otherwise."""
    y = np.asarray(y, dtype=float)
    if kernel.family == "product":
        return (x, y)
    return np.column_stack([x, y.reshape(y.shape[0], -1)])


def gram(spec, a, b):
    """Full kernel matrix between two point sets.

    Points are not checked for finiteness: callers pass arrays already
    checked at their own entry (a ``Dataset``, model draws), and a
    non-finite point yields non-finite entries.  Only dimensions are
    checked, and that a product kernel, and no other, is given pairs
    whose two parts have equal row counts.

    Args:
        spec: the kernel to evaluate.
        a: points, shape ``(n, p)`` (1-D input is treated as ``(n, 1)``).
            For product kernels, a pair ``(x_points, y_points)``.
        b: points, shape ``(m, p)``, same convention.

    Returns:
        Array of shape ``(n, m)``.
    """
    return _evaluate(spec, a, b, _cross_dists)


def elementwise(spec, a, b):
    """Kernel values between aligned rows of two point sets, shape ``(n,)``.

    Same convention and precondition as :func:`gram`: points must be
    finite and are not checked here; only shapes are.
    """
    return _evaluate(spec, a, b, _aligned_dists)


_SPEC_KEYS = {f.name for f in fields(KernelSpec)}


def spec_from_dict(d):
    """Build a :class:`KernelSpec` from a plain dict (parsed config)."""
    _config_keys(d, "kernel", _SPEC_KEYS, ("family",))
    kids = {k: spec_from_dict(d[k]) for k in ("child", "x_kernel", "y_kernel") if k in d}
    return KernelSpec(**{**d, **kids})  # values as given: no string is read as a number

