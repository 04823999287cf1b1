"""CSV dataset persistence, config files, and result serialization.

The dataset format is a UTF-8 CSV with header ``x1,...,xd,y`` for
scalar responses or ``x1,...,xd,y1,y2`` for censored pairs.  Floats are
written with 17 significant digits so a write/load round trip is exact.
Blank lines are skipped; a ``#`` line is refused like any other malformed
row, and every row error names its line number.  A file that is not
UTF-8 is refused with a ``FormatError``.  A load streams the file: a
check reads it 1 MiB at a time, and when it is ASCII and holds none of
U+000B, U+000C and U+001C to U+001F, where numpy's C reader and
``str.splitlines``/``float()`` part ways, that reader parses the rows line
by line from the open file, so the load holds the parsed array, the
returned arrays and one chunk, not the file's bytes; that array's responses
are checked by the same rules as a ``Dataset``'s.  Any other file, and
any file that parse or a row check refuses, is read whole, line by line
with ``float()``, which words every error, so values and messages do not
depend on the path.  The writer formats 4,096 rows at a time.
Config files are JSON everywhere; TOML is accepted when the interpreter
ships ``tomllib`` (3.11+).
"""

import json
import math
import os
import re
from dataclasses import fields

import numpy as np

from .errors import ConfigError, FormatError
from .fitting import FitConfig, FitResult
from .kernels import spec_from_dict
from .models import Dataset, _check_responses, _config_keys

_SCALAR_KINDS = ("real", "count", "binary")


def write_csv(dataset, path):
    """Write a dataset to ``path`` in the standard CSV layout."""
    y = dataset.y if dataset.kind == "censored" else dataset.y[:, None]
    d = dataset.x.shape[1]
    cols = [f"x{j + 1}" for j in range(d)]
    cols += ["y1", "y2"] if dataset.kind == "censored" else ["y"]
    # Python ints in an object block print int64 counts past 2**53 exactly
    yfmt = "%d" if dataset.kind in ("count", "binary") else "%.17g"
    row = ",".join(["%.17g"] * d + [yfmt] * y.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, len(y), 4096):  # blocks bound the Python objects held at once
            block = np.concatenate([dataset.x[i : i + 4096], y[i : i + 4096]], axis=1, dtype=object)
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# str.splitlines() breaks lines at \x0b, \x0c and \x1c-\x1e, where numpy's
# reader does not, and numpy strips \x1f around a number, where float()
# refuses it; a file holding any of them is read by the line scan alone
_NUMPY_APART = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_NON_SPACE = re.compile(rb"\S")
_CHUNK = 1 << 20  # bytes per read, and the read buffer's size, of a CSV load


def _numpy_header(fh):
    # The header line if numpy's reader may take the rows after it, else
    # None, read one chunk at a time.  An ASCII file free of _NUMPY_APART
    # breaks lines at \n, \r\n and \r alone, for numpy as for str.splitlines();
    # numpy refuses a bare \r inside a row, and one inside the first line
    # sends the file to the scan, as does a body of spaces, where numpy warns.
    header = fh.readline()
    if b"\r" in header.rstrip(b"\r\n"):
        return None
    chunk, rows = header, False
    while chunk:
        if not chunk.isascii() or any(c in chunk for c in _NUMPY_APART):
            return None
        chunk = fh.read(_CHUNK)
        rows = rows or _NON_SPACE.search(chunk) is not None
    return header if rows else None


def _lines(raw, path):
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


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


def _whole(fh, path):
    fh.seek(0)
    return _lines(fh.read(), path)


def _checked_array(fh, start, ncols, kind, strict):
    # numpy's C parse of the rows from byte start of fh on, line by line, when
    # they pass a Dataset's response rules and strict censoring, else None.
    # numpy takes a subset of what float() takes; the caller re-scans.
    fh.seek(start)
    try:
        arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if arr.shape[1] != ncols or not np.isfinite(arr).all():
            return None
        _check_responses(kind, arr[:, -2:] if kind == "censored" else arr[:, -1], len(arr))
    except ValueError:  # numpy's refusal, or a response rule's DomainError
        return None
    unselected = kind == "censored" and strict and np.any((arr[:, -1] == 0.0) & (arr[:, -2] != 0.0))
    return None if unselected else arr


def _scan_rows(lines, path, ncols, kind, strict):
    # The per-line parse, the only code that words a row error and its line.
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        toks = line.split(",")
        if len(toks) != ncols:
            raise FormatError(
                f"{path}: line {lineno}: expected {ncols} fields, found {len(toks)}"
            )
        vals = [_parse_float(t, path, lineno) for t in toks]
        if kind == "censored":
            y1, y2 = vals[-2:]
            if y2 not in (0.0, 1.0):
                raise FormatError(
                    f"{path}: line {lineno}: selection indicator must be 0 or 1"
                )
            if strict and y2 == 0.0 and y1 != 0.0:
                raise FormatError(
                    f"{path}: line {lineno}: unselected row must have y1=0 "
                    f"(got y1={y1!r}); pass strict=False to keep it"
                )
        elif kind in ("count", "binary"):
            yv = vals[-1]
            if yv != int(yv) or yv < 0:
                raise FormatError(
                    f"{path}: line {lineno}: {kind} response must be a "
                    f"nonnegative integer, got {toks[-1]!r}"
                )
            if kind == "binary" and yv > 1:
                raise FormatError(
                    f"{path}: line {lineno}: binary response must be 0 or 1"
                )
            if yv >= 2.0**63:
                raise FormatError(f"{path}: line {lineno}: count response must lie below 2**63")
        rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_csv(path, kind=None, strict=True):
    """Load a dataset written by :func:`write_csv`.

    ``kind`` defaults to ``"real"`` for scalar files and is forced to
    ``"censored"`` by a pair header; the covariate count is read from
    the header.  For censored files, ``strict`` enforces the selection
    structure: an unselected row must carry a zero outcome.  Contaminated exports can violate
    that on purpose and are read back with ``strict=False``.

    The load streams the file and holds numpy's parsed array, the returned
    arrays and one 1 MiB chunk; only a file sent to the line scan is read whole.
    """
    with open(path, "rb", buffering=_CHUNK) as fh:
        header = _numpy_header(fh)
        lines = _whole(fh, path) if header is None else _lines(header, path)
        if not lines:
            raise FormatError(f"{path}: empty file")
        d, censored = _parse_header(lines[0], path)
        if censored:
            if kind not in (None, "censored"):
                raise FormatError(f"{path}: pair header implies censored responses, not {kind!r}")
            kind = "censored"
        else:
            kind = "real" if kind is None else kind
            if kind not in _SCALAR_KINDS:
                raise FormatError(f"{path}: scalar header cannot hold {kind!r} responses")

        ncols = d + (2 if censored else 1)
        arr = None if header is None else _checked_array(fh, len(header), ncols, kind, strict)
        if arr is None:
            arr = _scan_rows(lines if header is None else _whole(fh, path), path, ncols, kind, strict)
    return Dataset(
        x=np.ascontiguousarray(arr[:, :d]),
        y=arr[:, d:].copy() if censored else arr[:, d].copy(),
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
    payload = dict(record, n=int(dataset.x.shape[0]), kind=dataset.kind)
    _write_json(dict(sorted(payload.items())), sidecar)
    return sidecar


def load_config(path):
    """Parse a JSON or TOML config file into a dict."""
    base = os.fspath(path)
    ext = os.path.splitext(base)[1].lower()
    if ext == ".json":
        with open(base, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
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
            except ValueError as exc:  # bad TOML, or bytes that are not UTF-8
                raise FormatError(f"{base}: {exc}") from None
    else:
        raise ConfigError(f"config files must be .json or .toml, got {base!r}")
    if not isinstance(cfg, dict):
        raise FormatError(f"{base}: top level must be a mapping")
    return cfg


_FIT_KEYS = {f.name for f in fields(FitConfig)}


def fit_config_from_dict(cfg):
    """Build a :class:`FitConfig` from a parsed config mapping."""
    _config_keys(cfg, "fit", _FIT_KEYS)
    kwargs = dict(cfg)
    if "kernel" in kwargs and kwargs["kernel"] is not None:
        kwargs["kernel"] = spec_from_dict(kwargs["kernel"])
    return FitConfig(**kwargs)


def _json_ready(value):
    # None for a non-finite float (an objective not traced): NaN is not JSON
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_json_ready(payload), indent=2, allow_nan=False) + "\n")


def fit_result_to_dict(result):
    """JSON-ready view of a fit result, trace included, keyed by field."""
    return _json_ready({f.name: getattr(result, f.name) for f in fields(FitResult)})


def write_fit_result(result, path):
    _write_json(fit_result_to_dict(result), path)
