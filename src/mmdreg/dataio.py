"""CSV dataset persistence, config files, and result serialization.

The dataset format is a UTF-8 CSV with header ``x1,...,xd,y`` for
scalar responses or ``x1,...,xd,y1,y2`` for censored pairs.  Floats are
written with 17 significant digits so a write/load round trip is exact.
Config files are JSON everywhere; TOML is accepted when the interpreter
ships ``tomllib`` (3.11+).
"""

import json
import os

import numpy as np

from .errors import ConfigError, FormatError
from .fitting import FitConfig
from .kernels import spec_from_dict
from .models import Dataset

_SCALAR_KINDS = ("real", "count", "binary")


def _fmt(v):
    return format(float(v), ".17g")


def write_csv(dataset, path):
    """Write a dataset to ``path`` in the standard CSV layout."""
    d = dataset.x.shape[1]
    cols = [f"x{j + 1}" for j in range(d)]
    cols += ["y1", "y2"] if dataset.kind == "censored" else ["y"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(dataset.x.shape[0]):
            row = [_fmt(v) for v in dataset.x[i]]
            if dataset.kind == "censored":
                row += [_fmt(dataset.y[i, 0]), _fmt(dataset.y[i, 1])]
            elif dataset.kind in ("count", "binary"):
                row.append(str(int(dataset.y[i])))
            else:
                row.append(_fmt(dataset.y[i]))
            fh.write(",".join(row) + "\n")


def _parse_header(line, path):
    names = [c.strip() for c in line.split(",")]
    if len(names) >= 3 and names[-2:] == ["y1", "y2"]:
        d, censored = len(names) - 2, True
    elif len(names) >= 2 and names[-1] == "y":
        d, censored = len(names) - 1, False
    else:
        raise FormatError(
            f"{path}: header must be x1,...,xd,y or x1,...,xd,y1,y2, got {line!r}"
        )
    want = [f"x{j + 1}" for j in range(d)]
    if names[:d] != want:
        raise FormatError(f"{path}: covariate columns must be named x1..x{d}")
    return d, censored


def _parse_float(tok, path, lineno):
    try:
        v = float(tok)
    except ValueError:
        raise FormatError(f"{path}: line {lineno}: not a number: {tok!r}") from None
    if not np.isfinite(v):
        raise FormatError(f"{path}: line {lineno}: non-finite value {tok!r}")
    return v


def load_csv(path, kind=None, expect_d=None, strict=True):
    """Load a dataset written by :func:`write_csv`.

    ``kind`` defaults to ``"real"`` for scalar files and is forced to
    ``"censored"`` by a pair header.  ``expect_d`` cross-checks the
    covariate count against a configured model dimension.  For censored
    files, ``strict`` enforces the selection structure: an unselected
    row must carry a zero outcome.  Contaminated exports can violate
    that on purpose and are read back with ``strict=False``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    d, censored = _parse_header(lines[0], path)
    if censored:
        if kind not in (None, "censored"):
            raise FormatError(
                f"{path}: pair header implies censored responses, not {kind!r}"
            )
        kind = "censored"
    else:
        kind = "real" if kind is None else kind
        if kind not in _SCALAR_KINDS:
            raise FormatError(
                f"{path}: scalar header cannot hold {kind!r} responses"
            )
    if expect_d is not None and d != expect_d:
        raise FormatError(
            f"{path}: expected {expect_d} covariate columns, found {d}"
        )

    ncols = d + (2 if censored else 1)
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        toks = line.split(",")
        if len(toks) != ncols:
            raise FormatError(
                f"{path}: line {lineno}: expected {ncols} fields, found {len(toks)}"
            )
        vals = [_parse_float(t, path, lineno) for t in toks]
        xs.append(vals[:d])
        if censored:
            y1, y2 = vals[d], vals[d + 1]
            if y2 not in (0.0, 1.0):
                raise FormatError(
                    f"{path}: line {lineno}: selection indicator must be 0 or 1"
                )
            if strict and y2 == 0.0 and y1 != 0.0:
                raise FormatError(
                    f"{path}: line {lineno}: unselected row must have y1=0 "
                    f"(got y1={y1!r}); pass strict=False to keep it"
                )
            ys.append([y1, y2])
        else:
            yv = vals[d]
            if kind in ("count", "binary"):
                if yv != int(yv) or yv < 0:
                    raise FormatError(
                        f"{path}: line {lineno}: {kind} response must be a "
                        f"nonnegative integer, got {toks[d]!r}"
                    )
                if kind == "binary" and yv > 1:
                    raise FormatError(
                        f"{path}: line {lineno}: binary response must be 0 or 1"
                    )
            ys.append(yv)
    if not xs:
        raise FormatError(f"{path}: no data rows")
    return Dataset(
        x=np.asarray(xs, dtype=float),
        y=np.asarray(ys),
        kind=kind,
        meta={"source": os.fspath(path)},
    )


def _sidecar_path(path):
    base = os.fspath(path)
    if base.endswith(".csv"):
        base = base[: -len(".csv")]
    return base + ".contamination.json"


def export_contaminated(dataset, path):
    """Write a contaminated dataset plus a sidecar JSON with its record.

    Returns the sidecar path.
    """
    record = dataset.meta.get("contamination")
    if record is None:
        raise ConfigError("dataset carries no contamination record")
    write_csv(dataset, path)
    sidecar = _sidecar_path(path)
    payload = dict(record)
    payload["n"] = int(dataset.x.shape[0])
    payload["kind"] = dataset.kind
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def load_config(path):
    """Parse a JSON or TOML config file into a dict."""
    base = os.fspath(path)
    ext = os.path.splitext(base)[1].lower()
    if ext == ".json":
        with open(base, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{base}: {exc}") from None
    elif ext == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ConfigError(
                "TOML configs need Python 3.11+ (tomllib); re-encode as JSON"
            ) from None
        with open(base, "rb") as fh:
            try:
                cfg = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise FormatError(f"{base}: {exc}") from None
    else:
        raise ConfigError(f"config files must be .json or .toml, got {base!r}")
    if not isinstance(cfg, dict):
        raise FormatError(f"{base}: top level must be a mapping")
    return cfg


_FIT_KEYS = {
    "estimator", "kernel", "eta", "adagrad_eps", "iters", "mc_pairs",
    "m1", "m2", "seed", "init", "polyak", "trace_objective_every",
}


def fit_config_from_dict(cfg):
    """Build a :class:`FitConfig` from a parsed config mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("fit config must be a mapping")
    extra = set(cfg) - _FIT_KEYS
    if extra:
        raise ConfigError(f"unknown fit config keys: {sorted(extra)}")
    kwargs = dict(cfg)
    if "kernel" in kwargs and kwargs["kernel"] is not None:
        kwargs["kernel"] = spec_from_dict(kwargs["kernel"])
    return FitConfig(**kwargs)


def fit_result_to_dict(result):
    """JSON-ready view of a fit result, trace included."""
    return {
        "estimator": result.estimator,
        "theta_raw": [float(v) for v in result.theta_raw],
        "theta_natural": [float(v) for v in result.theta_natural],
        "natural_names": list(result.natural_names),
        "init_used": [float(v) for v in result.init_used],
        "iterations": int(result.iterations),
        "trace": [[float(v) for v in row] for row in result.trace],
        "wall_time": float(result.wall_time),
        "error": result.error,
        "warning": result.warning,
    }


def write_fit_result(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_result_to_dict(result), fh, indent=2)
        fh.write("\n")
