"""Kernels on covariates, responses, and joint covariate-response points.

Two scalar building blocks are exposed directly: the bounded
reparameterization ``psi`` of the real line and the half-integer Matern
family ``matern_halfint``.  Everything else is described declaratively by
:class:`KernelSpec` and evaluated with :func:`gram`, :func:`elementwise`,
or :func:`kernel_eval`, so a kernel read from a config file and a kernel
built in code go through the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_RADIAL_FAMILIES = ("exponential", "gaussian", "matern", "psi_matern")
_FAMILIES = _RADIAL_FAMILIES + ("affine_shift", "product")
_MATERN_ORDERS = (1, 3, 5)

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


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


def psi_inverse(u):
    """Inverse of :func:`psi` on (0, 1).

    Isolating the radical in ``u = psi(v)`` and squaring leaves an
    equation linear in ``v``; in terms of ``u`` the unique solution is
    ``v = (2 u - 1) / (u (1 - u))``.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("psi_inverse requires finite input")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("psi_inverse requires u in the open interval (0, 1)")
    out = (2.0 * u - 1.0) / (u * (1.0 - u))
    return float(out) if out.ndim == 0 else out


def matern_halfint(r, gamma, m):
    """Matern kernel of half-integer order ``m/2`` as a function of distance.

    Supported orders and their closed forms, with ``s = sqrt(m) r / gamma``:

    * ``m = 1``: ``exp(-s)``
    * ``m = 3``: ``(1 + s) exp(-s)``
    * ``m = 5``: ``(1 + s + s^2 / 3) exp(-s)``

    Args:
        r: nonnegative distance, scalar or array.
        gamma: positive length scale.
        m: order numerator, one of 1, 3, 5.

    Returns:
        Kernel value(s) in (0, 1], equal to 1 exactly at ``r = 0``.
    """
    if m not in _MATERN_ORDERS:
        raise ConfigError(f"matern_halfint supports m in {_MATERN_ORDERS}, got {m!r}")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise DomainError("matern_halfint requires a positive finite gamma")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r < 0.0):
        raise DomainError("matern_halfint requires finite nonnegative distances")
    out = _matern(r, gamma, m)
    return float(out) if out.ndim == 0 else out


def _matern(r, gamma, m):
    s = (math.sqrt(float(m)) / gamma) * r
    if m == 1:
        return np.exp(-s)
    if m == 3:
        return (1.0 + s) * np.exp(-s)
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel.

    Fields are interpreted per ``family``:

    * ``"exponential"``: ``c * exp(-||z - z'|| / gamma)``
    * ``"gaussian"``: ``c * exp(-||z - z'||^2 / (2 gamma^2))``
    * ``"matern"``: ``c *`` :func:`matern_halfint` at ``||z - z'||``
    * ``"psi_matern"``: Matern evaluated on coordinate-wise psi-mapped
      points, ``c * matern_halfint(||psi(z) - psi(z')||, gamma, m)``
    * ``"affine_shift"``: ``beta * child(z, z') + (1 - beta)``
    * ``"product"``: ``x_kernel(x, x') * y_kernel(y, y')`` on joint
      points ``z = (x, y)``

    Radial kernels with ``c = 1`` satisfy ``k(z, z) = 1`` exactly; all
    combinations stay bounded by 1 in absolute value.
    """

    family: str
    gamma: float = 1.0
    m: int = 1
    beta: float = 1.0
    c: float = 1.0
    child: "KernelSpec | None" = None
    x_kernel: "KernelSpec | None" = None
    y_kernel: "KernelSpec | None" = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if self.family in _RADIAL_FAMILIES:
            if not (np.isfinite(self.gamma) and self.gamma > 0.0):
                raise ConfigError(f"kernel family {self.family!r} requires gamma > 0")
            if not (0.0 < self.c <= 1.0):
                raise ConfigError("kernel scale c must lie in (0, 1]")
        if self.family in ("matern", "psi_matern") and self.m not in _MATERN_ORDERS:
            raise ConfigError(f"kernel order m must be one of {_MATERN_ORDERS}")
        if self.family == "affine_shift":
            if self.child is None:
                raise ConfigError("affine_shift requires a child kernel")
            if not (0.0 <= self.beta <= 1.0):
                raise ConfigError("affine_shift weight beta must lie in [0, 1]")
        if self.family == "product" and (self.x_kernel is None or self.y_kernel is None):
            raise ConfigError("product requires both x_kernel and y_kernel")


def exponential_kernel(gamma=1.0, c=1.0):
    return KernelSpec(family="exponential", gamma=gamma, c=c)


def gaussian_kernel(gamma=1.0, c=1.0):
    return KernelSpec(family="gaussian", gamma=gamma, c=c)


def matern_kernel(gamma, m=1, c=1.0):
    return KernelSpec(family="matern", gamma=gamma, m=m, c=c)


def psi_matern_kernel(gamma=0.01, m=1, c=1.0):
    return KernelSpec(family="psi_matern", gamma=gamma, m=m, c=c)


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
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _aligned_dists(a, b):
    if a.shape != b.shape:
        raise DomainError(f"aligned evaluation needs equal shapes, got {a.shape} vs {b.shape}")
    d = a - b
    return np.sqrt(np.sum(d * d, axis=1))


def _single_dists(a, b):
    if a.shape[0] != 1 or b.shape[0] != 1:
        raise DomainError("kernel_eval takes single points; use gram for sets")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("kernel evaluation requires finite points")
    return _aligned_dists(a, b)


def _radial(spec, r):
    if spec.family == "exponential":
        out = np.exp(-r / spec.gamma)
    elif spec.family == "gaussian":
        out = np.exp(-(r * r) / (2.0 * spec.gamma * spec.gamma))
    else:
        out = _matern(r, spec.gamma, spec.m)
    if spec.c != 1.0:
        out = spec.c * out
    return out


def _evaluate(spec, a, b, dists):
    # The one interpreter of a KernelSpec: combinators recurse, and each
    # radial leaf applies ``dists`` to its (psi-mapped) point sets.
    if spec.family == "product":
        (ax, ay), (bx, by) = a, b
        return _evaluate(spec.x_kernel, ax, bx, dists) * _evaluate(spec.y_kernel, ay, by, dists)
    if spec.family == "affine_shift":
        return spec.beta * _evaluate(spec.child, a, b, dists) + (1.0 - spec.beta)
    a, b = _as_points(a), _as_points(b)
    if spec.family == "psi_matern":
        a, b = _psi(a), _psi(b)
    return _radial(spec, dists(a, b))


def gram(spec, a, b):
    """Full kernel matrix between two point sets.

    Points are not checked for finiteness: callers pass arrays already
    checked at their own entry (a ``Dataset``, model draws), and a
    non-finite point yields non-finite entries.  Only dimensions are
    checked.

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


def kernel_eval(spec, z, zp):
    """Scalar kernel value between two single points; non-finite points raise."""
    return float(_evaluate(spec, z, zp, _single_dists)[0])


_SPEC_KEYS = {"family", "gamma", "m", "beta", "c", "child", "x_kernel", "y_kernel"}


def spec_from_dict(d):
    """Build a :class:`KernelSpec` from a plain dict (parsed config)."""
    if not isinstance(d, dict):
        raise ConfigError(f"kernel config must be a mapping, got {type(d).__name__}")
    unknown = set(d) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown kernel config keys: {sorted(unknown)}")
    if "family" not in d:
        raise ConfigError("kernel config requires a 'family' key")
    kwargs = {}
    for key, convert in (("gamma", float), ("beta", float), ("c", float), ("m", int)):
        if key in d:
            try:
                kwargs[key] = convert(d[key])
            except (TypeError, ValueError):
                raise ConfigError(f"kernel parameter {key!r} must be a number, got {d[key]!r}") from None
    for key in ("child", "x_kernel", "y_kernel"):
        if key in d:
            kwargs[key] = spec_from_dict(d[key])
    return KernelSpec(family=d["family"], **kwargs)


def spec_to_dict(spec):
    """Inverse of :func:`spec_from_dict`, emitting only the relevant keys."""
    d = {"family": spec.family}
    if spec.family in _RADIAL_FAMILIES:
        d["gamma"] = spec.gamma
        if spec.c != 1.0:
            d["c"] = spec.c
        if spec.family in ("matern", "psi_matern"):
            d["m"] = spec.m
    elif spec.family == "affine_shift":
        d["beta"] = spec.beta
        d["child"] = spec_to_dict(spec.child)
    else:
        d["x_kernel"] = spec_to_dict(spec.x_kernel)
        d["y_kernel"] = spec_to_dict(spec.y_kernel)
    return d
