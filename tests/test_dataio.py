"""Tests for CSV persistence and config parsing.

The CSV writer and loader are also checked against the value-by-value
and line-by-line references ``csv_text`` and ``csv_read`` of
``tests/oracles.py``.
"""

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from mmdreg import dataio
from mmdreg.contamination import ContaminationSpec, contaminate
from mmdreg.dataio import (
    export_contaminated,
    fit_config_from_dict,
    fit_result_to_dict,
    load_config,
    load_csv,
    write_csv,
    write_fit_result,
)
from mmdreg.errors import ConfigError, FormatError
from mmdreg.fitting import FitConfig, fit
from mmdreg.kernels import KernelSpec
from mmdreg.models import Dataset, get_family, list_scenarios, simulate_dataset
from oracles import csv_read, csv_text


class TestCsvRoundTrip:
    def test_real(self, tmp_path):
        _, ds = simulate_dataset("gauss_linear_laplace", 100, seed=0)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert back.kind == "real"
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_censored(self, tmp_path):
        _, ds = simulate_dataset("heckman_synthetic", 80, seed=1)
        path = tmp_path / "h.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert back.kind == "censored"
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_count_and_binary(self, tmp_path):
        rng = np.random.default_rng(2)
        for kind, y in (
            ("count", rng.integers(0, 9, size=30)),
            ("binary", rng.integers(0, 2, size=30)),
        ):
            ds = Dataset(x=rng.standard_normal((30, 2)), y=y, kind=kind)
            path = tmp_path / f"{kind}.csv"
            write_csv(ds, path)
            back = load_csv(path, kind=kind)
            assert back.y.dtype == np.int64
            assert np.array_equal(back.y, ds.y)

    def test_awkward_floats_survive(self, tmp_path):
        x = np.array([[1e-300, 0.1 + 0.2], [np.pi, -1.2345678901234567e17]])
        ds = Dataset(x=x, y=np.array([2.0**-52, 1.0]), kind="real")
        path = tmp_path / "f.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x1,y\n1.0,2.0\n\n3.0,4.0\n")
        back = load_csv(path)
        assert back.x.shape == (2, 1)


class TestLoaderValidation:
    def test_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError, match="header"):
            load_csv(path)
        path.write_text("x1,x3,y\n1,2,3\n")
        with pytest.raises(FormatError, match="x1..x2"):
            load_csv(path)

    def test_kind_header_mismatch(self, tmp_path):
        pair = tmp_path / "p.csv"
        pair.write_text("x1,y1,y2\n0.5,0.0,0\n")
        with pytest.raises(FormatError, match="censored"):
            load_csv(pair, kind="real")
        scalar = tmp_path / "s.csv"
        scalar.write_text("x1,y\n0.5,1.0\n")
        with pytest.raises(FormatError, match="scalar"):
            load_csv(scalar, kind="censored")

    def test_malformed_rows_name_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,y\n1.0,2.0\n1.0\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(path)
        path.write_text("x1,y\n1.0,zap\n")
        with pytest.raises(FormatError, match="line 2.*zap"):
            load_csv(path)
        path.write_text("x1,y\n1.0,inf\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_selection_invariant(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x1,y1,y2\n0.5,0.0,0\n0.2,1.1,1\n")
        ds = load_csv(path)
        assert ds.y[0, 0] == 0.0
        path.write_text("x1,y1,y2\n0.5,1.3,0\n")
        with pytest.raises(FormatError, match="line 2.*y1=0"):
            load_csv(path)
        ds = load_csv(path, strict=False)
        assert ds.y[0, 0] == 1.3
        path.write_text("x1,y1,y2\n0.5,1.3,2\n")
        with pytest.raises(FormatError, match="indicator"):
            load_csv(path, strict=False)

    def test_count_validation(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x1,y\n1.0,2.5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path, kind="count")
        path.write_text("x1,y\n1.0,-1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path, kind="count")
        path.write_text("x1,y\n1.0,2\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path, kind="binary")

    def test_empty_and_headless(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_csv(path)
        path.write_text("x1,y\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv(path)


class TestContaminatedExport:
    def test_sidecar_lists_indices(self, tmp_path):
        _, ds = simulate_dataset("gauss_linear_laplace", 200, seed=3)
        out = contaminate(ds, ContaminationSpec(epsilon=0.05, recipe="type_y", seed=4))
        path = tmp_path / "cont.csv"
        sidecar = export_contaminated(out, path)
        assert sidecar == str(tmp_path / "cont.contamination.json")
        with open(sidecar) as fh:
            record = json.load(fh)
        assert record["indices"] == out.meta["contamination"]["indices"]
        assert record["n"] == 200
        back = load_csv(path)
        assert np.array_equal(back.y, out.y)

    def test_flipped_rows_round_trip_with_strict_off(self, tmp_path):
        _, ds = simulate_dataset("heckman_synthetic", 300, seed=5)
        out = contaminate(
            ds, ContaminationSpec(epsilon=0.1, recipe="selection_flip", seed=6)
        )
        path = tmp_path / "flip.csv"
        export_contaminated(out, path)
        with pytest.raises(FormatError):
            load_csv(path)
        back = load_csv(path, strict=False)
        assert np.array_equal(back.y, out.y)

    def test_requires_record(self, tmp_path):
        _, ds = simulate_dataset("gauss_linear_laplace", 20, seed=7)
        with pytest.raises(ConfigError, match="record"):
            export_contaminated(ds, tmp_path / "x.csv")


class TestConfigs:
    def test_json_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"estimator": "tilde", "eta": 0.05}')
        assert load_config(path) == {"estimator": "tilde", "eta": 0.05}
        path.write_text("{broken")
        with pytest.raises(FormatError):
            load_config(path)
        path.write_text("[1, 2]")
        with pytest.raises(FormatError, match="mapping"):
            load_config(path)

    def test_toml_config(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('estimator = "hat"\neta = 0.2\n')
        if sys.version_info >= (3, 11):
            assert load_config(path) == {"estimator": "hat", "eta": 0.2}
        else:
            with pytest.raises(ConfigError, match="3.11"):
                load_config(path)

    def test_not_utf8(self, tmp_path):
        # a FormatError, not the codec's UnicodeDecodeError
        cases = [("c.json", b'{"eta": "\xff"}')]
        if sys.version_info >= (3, 11):  # tomllib
            cases.append(("c.toml", b'eta = "\xe2\x80"'))
        for name, raw in cases:
            path = tmp_path / name
            path.write_bytes(raw)
            with pytest.raises(FormatError, match="'utf-8' codec can't decode"):
                load_config(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("a: 1")
        with pytest.raises(ConfigError, match="json"):
            load_config(path)

    def test_fit_config_from_dict(self):
        cfg = fit_config_from_dict(
            {
                "estimator": "hat",
                "eta": 0.2,
                "iters": 50,
                "m1": 10,
                "seed": 3,
                "kernel": {
                    "family": "product",
                    "x_kernel": {"family": "psi_matern", "gamma": 0.02, "m": 1},
                    "y_kernel": {"family": "exponential", "gamma": 1.0},
                },
            }
        )
        assert cfg.estimator == "hat"
        assert isinstance(cfg.kernel, KernelSpec)
        assert cfg.kernel.x_kernel.gamma == 0.02
        for key in ("stepsize", "adagrad_eps"):  # AdaGrad's offset is fixed
            with pytest.raises(ConfigError, match="unknown fit config"):
                fit_config_from_dict({key: 0.1})
        cfg = fit_config_from_dict({"init": [0.0, 1.0]})
        assert cfg.init == (0.0, 1.0) and all(type(v) is float for v in cfg.init)


class TestFitResultJson:
    def test_round_trip(self, tmp_path):
        fam, ds = simulate_dataset("gauss_linear_laplace", 60, seed=8)
        res = fit(fam, ds, FitConfig(estimator="ols"))
        path = tmp_path / "r.json"
        write_fit_result(res, path)
        with open(path) as fh:
            back = json.load(fh)
        assert back["estimator"] == "ols"
        assert np.allclose(back["theta_raw"], res.theta_raw)
        assert back["natural_names"] == list(res.natural_names)
        assert back["error"] is None
        d = fit_result_to_dict(res)
        assert isinstance(d["trace"], list)


FAMILIES = ("gaussian_linear", "logistic", "poisson", "gamma", "heckman", "mixture")


def assert_written_bytes(ds, tmp_path):
    path = tmp_path / f"{ds.kind}.csv"
    write_csv(ds, path)
    assert path.read_bytes() == csv_text(ds)


class TestWriterBytes:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_scenarios(self, name, tmp_path):
        _, ds = simulate_dataset(name, 300, seed=4)
        assert_written_bytes(ds, tmp_path)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_family_draws(self, name, tmp_path):
        family = get_family(name, 3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 3))
        y = family.sample(0.3 * rng.standard_normal(family.raw_dim), x, rng)
        # rescaled rows after the draw, so every exponent range gets written
        x *= 10.0 ** rng.integers(-300, 300, size=(200, 1))
        assert_written_bytes(Dataset(x, y, family.kind), tmp_path)

    def test_awkward_values(self, tmp_path):
        awkward = [-0.0, 1e-300, 2.0**-52, -1.2345678901234567e17, 5e-324, 0.1 + 0.2]
        x = np.array([awkward, awkward[::-1]]).T
        cases = {
            # 2**60 + 1 has no float64; a count must still print every digit
            "count": [0, 7, 2**60 + 1, 3, 0, 12],
            "binary": [0, 1, 1, 0, 1, 0],
            "real": awkward,
            "censored": np.column_stack([awkward, [0, 1, 1, 0, 1, 1]]),
        }
        for kind, y in cases.items():
            assert_written_bytes(Dataset(x, np.array(y), kind), tmp_path)


VALID_PADS = ("", " ", "  ", "\t")
# a pad float() strips and numpy's reader keeps; it makes the file non-ASCII
WIDE_PAD = "\u00a0"
# numbers float() reads that numpy's C parser refuses (1_0, a full-width 1)
# or reads alike
ODD_NUMBERS = ("1_0", "\uff11", "1e-400", "-0.0", "+2", "3.", ".5")
ODD_WHOLE = ("1_0", "\uff11", "1e-400", "2.0")
# tokens or rows the loader must refuse, each with its line number
FAULTY_TOKENS = ("nan", "inf", "-inf", "1e400", "zap", "", "1\x1f", "0x10", "#1")
# line breaks of str.splitlines other than \n and \r\n; numpy's reader
# breaks at none of them but \r, and strips the ASCII ones around a number.
# They are drawn apart, so an ASCII file can hold the ASCII ones.
ASCII_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
UNICODE_BREAKS = ("\x85", "\u2028", "\u2029")
# the ASCII characters where numpy's reader and the line scan part ways:
# numpy strips them around a number, str.splitlines() breaks at \x0b-\x1e
# and float() refuses \x1f
NUMPY_APART = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
# byte runs that are not UTF-8, wherever they land in a file
NOT_UTF8 = (b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80")


@st.composite
def csv_cases(draw):
    """(file bytes, kind argument, strict) for a small dataset CSV that
    mixes blank and whitespace-only lines, CRLF endings and padded
    tokens.  Some files also carry tokens numpy's parser refuses but
    float() reads, some carry faults the loader must name, and some
    carry what only the line scan reads as str.splitlines() does: the
    other line breaks (also beside a number), a byte-order mark, or
    bytes that are not UTF-8."""
    kind = draw(st.sampled_from(["real", "count", "binary", "censored"]), label="kind")
    strict = draw(st.booleans(), label="strict")
    odd = draw(st.booleans(), label="odd tokens")
    faulty = draw(st.booleans(), label="faulty")
    # odd line breaks in one file in four: the ASCII ones, the Unicode ones or both
    odd_breaks = draw(st.sampled_from(
        [()] * 9 + [ASCII_BREAKS, UNICODE_BREAKS, ASCII_BREAKS + UNICODE_BREAKS]), label="odd breaks")
    wide = draw(st.integers(0, 3), label="wide pad") == 0
    pads = VALID_PADS + ((WIDE_PAD,) if wide else ()) + odd_breaks
    breaks = ["\n", "\r\n", *odd_breaks]
    d = draw(st.integers(1, 3), label="d")
    names = [f"x{j}" for j in range(1, d + 1)]
    names += ["y1", "y2"] if kind == "censored" else ["y"]

    def pad(tok):
        return draw(st.sampled_from(pads)) + tok + draw(st.sampled_from(pads))

    def number(whole=False):
        if odd and draw(st.integers(0, 3)) == 0:
            tok = draw(st.sampled_from(ODD_WHOLE if whole else ODD_NUMBERS))
        elif whole:
            tok = str(draw(st.integers(0, 12)))
        else:
            v = draw(st.floats(allow_nan=False, allow_infinity=False))
            tok = draw(st.sampled_from([repr(v), format(v, ".17g"), format(v, ".6g")]))
        return pad(tok)

    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6), label="rows")):
        form = draw(st.sampled_from(["row"] * 5 + ["blank", "spaces"]))
        if form == "blank":
            lines.append("")
        elif form == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t  "])))
        else:
            toks = [number() for _ in range(d)]
            if kind == "censored":
                sel = draw(st.sampled_from(["0", "1", "1.0", "-0.0"] + (["\uff11"] if odd else [])))
                unselected = float(sel) == 0.0
                toks += [pad("0") if unselected and strict else number(), pad(sel)]
            elif kind == "binary":
                toks.append(pad(str(draw(st.integers(0, 1)))))
            else:
                toks.append(number(kind == "count"))
            lines.append(toks)
    rows = [i for i, line in enumerate(lines) if isinstance(line, list)]
    if faulty and rows:
        # one fault in one row, so the first fault is the one placed
        toks = lines[draw(st.sampled_from(rows), label="faulty row")]
        fault = draw(st.sampled_from(["token", "short", "comma", "bad_y", "hash", "apart"]),
                     label="fault")
        if fault == "token":
            toks[draw(st.integers(0, len(toks) - 1))] = pad(draw(st.sampled_from(FAULTY_TOKENS)))
        elif fault == "short":
            toks.pop()
        elif fault == "comma":
            toks.append("")
        elif fault == "hash":
            toks[0] = "# " + toks[0]
        elif fault == "apart":
            # beside a number inside a row, where numpy's reader and the line
            # scan part ways: a chunk check that misses it shows
            toks[draw(st.integers(0, max(len(toks) - 2, 0)))] += draw(st.sampled_from(NUMPY_APART))
        elif kind == "censored" and draw(st.booleans()):
            toks[-2:] = ["1.3", "0"]  # an unselected row with an outcome
        else:
            toks[-1] = {"real": "1e400", "count": "2.5", "binary": "2", "censored": "2"}[kind]
    lines = [",".join(line) if isinstance(line, list) else line for line in lines]
    ends = [draw(st.sampled_from(breaks)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans(), label="drop last newline"):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 7), label="byte-order mark") == 0:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if draw(st.integers(0, 7), label="not UTF-8") == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(NOT_UTF8)) + raw[at:]
    if kind == "censored":
        arg = draw(st.sampled_from([None, "censored"]))
    else:
        arg = draw(st.sampled_from([None, kind])) if kind == "real" else kind
    return raw, arg, strict


class TestLoaderParity:
    """``load_csv`` gives what the per-token ``float()`` scan gives: the
    same arrays and kind, or the same error text with the same line."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(csv_cases())
    # the places numpy's parser and float() part ways, and each row check
    @example((b"x1,y\n1\x1f,2\n", None, True))
    @example((b"x1,y\n1_0,\xef\xbc\x91\n \r\n", "count", True))
    @example((b"x1,y\n1,0\n\n1,2\n", "binary", True))
    @example((b"x1,y\n1,0\n1,-1\n", "count", True))
    @example((b"x1,y\n1,0\n1,0.5\n", "count", True))
    @example((b"x1,y\n1,0\n1,10000000000000000000\n", "count", True))
    @example((b"x1,y1,y2\n1,0,0\n1,1.3,0\n", None, True))
    @example((b"x1,y1,y2\n1,0,0\n1,1.3,0.5\n", None, False))
    @example((b"x1,y\n1,2\n1,nan\n", None, True))
    @example((b"x1,y\n\n  \n", None, True))
    @example((b"x1,x2,y\n1,2\n\n3,4\n", None, True))
    # what the line scan alone reads as str.splitlines() does
    @example((b"x1,y\r1,2\r3,4\r", None, True))
    @example((b"x1,y\r1,2\n3,4\n", None, True))
    @example((b"x1,y\n1,2\r3,4\n", None, True))
    @example((b"x1,y\r\n1,2\r\r\n3,4", None, True))
    @example((b"x1,y\n1\x0b,2\n", None, True))
    @example((b"x1,y\n1\x0c,2\n", None, True))
    @example((b"x1,y\n1\x1c,2\n", None, True))
    @example((b"x1,y\n1\x1d,2\n", None, True))
    @example((b"x1,y\n1\x1e,2\n", None, True))
    @example((b"x1,y\n1,2\x0c\n3,4\x1e5,6\n", None, True))
    @example(("x1,y\n1\x85,2\n".encode(), None, True))
    @example(("x1,y\n1\u2028,2\n".encode(), None, True))
    @example(("x1,y\n1\u2029,2\n".encode(), None, True))
    @example(("\ufeffx1,y\n1,2\n".encode(), None, True))
    # header only: no data rows, and no numpy warning (warnings fail the run)
    @example((b"x1,y\n", None, True))
    @example((b"x1,y1,y2\r\n  \r\n", None, True))
    @example((b"x1,y\n1.0,\xff2.0\n", None, True))
    @example((b"x1,y\n1.0,2.0\n\xc3", None, True))
    @example((b"x1,\xc3y\n1,2\n", None, True))
    def test_matches_line_scan(self, case):
        raw, kind, strict = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "case.csv"
            path.write_bytes(raw)
            want = csv_read(path, kind=kind, strict=strict)
            if isinstance(want, str):
                with pytest.raises(FormatError) as err:
                    load_csv(path, kind=kind, strict=strict)
                assert str(err.value) == want
                return
            got = load_csv(path, kind=kind, strict=strict)
        x, y, want_kind = want
        assert got.kind == want_kind
        assert got.x.shape == x.shape and got.x.tobytes() == x.tobytes()
        if want_kind in ("count", "binary"):
            assert got.y.dtype == np.int64 and np.array_equal(got.y, y)
        else:
            assert got.y.shape == y.shape and got.y.tobytes() == y.tobytes()

    def test_cases_reach_both_outcomes(self):
        # the generator is no good if every file fails, or none does: one
        # search per outcome, so a draw that clusters on some outcomes
        # cannot hide the others
        def outcome(case):
            raw, kind, strict = case
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "case.csv"
                path.write_bytes(raw)
                want = csv_read(path, kind=kind, strict=strict)
            return "error" if isinstance(want, str) else want[2]

        search = settings(derandomize=True, database=None, deadline=None, max_examples=1000,
                          phases=[Phase.generate])
        for want in ("error", "real", "count", "binary", "censored"):
            find(csv_cases(), lambda case: outcome(case) == want, settings=search)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(csv_cases(), st.integers(2, 8))
    # what numpy reads as part of a number, past the first chunk, on a
    # chunk's first byte, on its last, and a character across two chunks
    @example((b"x1,y\n1,2\n3\x1f,4\n", None, True), 5)
    @example((b"x1,y\n1,2\n3\x1f,4\n", None, True), 2)
    @example((b"x1,y\n1,2\n3\x0c,4\n", None, True), 4)
    @example((b"x1,y\n1,2\n3\xa0,4\n", None, True), 5)
    @example(("x1,y\n1,2\n3\u00a0,4\n".encode(), None, True), 6)
    def test_matches_line_scan_in_small_chunks(self, case, chunk):
        # the property above with the load reading chunks of a few bytes, so
        # every byte its check looks for also lands on a chunk's first or last
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK", chunk)
            self.test_matches_line_scan.hypothesis.inner_test(self, case)

    @pytest.mark.parametrize("at", [-1, 0, 4099], ids=["last_of_first", "first_of_second", "later"])
    @pytest.mark.parametrize(
        "mark", [b"\x0c", b"\x1f", "\u00a0".encode(), b"\xa0"],
        ids=["U+000C", "U+001F", "non_ascii_utf8", "not_utf8"],
    )
    def test_past_the_first_chunk(self, mark, at):
        # numpy reads all but the UTF-8 no-break space around a number as
        # the number; the line scan splits the line at U+000C and refuses
        # U+001F and the lone 0xa0 byte, and the check sends each to it
        case = (chunked_csv(mark, dataio._CHUNK + at), None, True)
        self.test_matches_line_scan.hypothesis.inner_test(self, case)


ROW_BYTES = 9 * 23  # nine numbers of 22 characters, each with its comma or newline


def chunked_csv(mark, at):
    """A nine-column file whose body holds ``mark`` right after the first
    number of a row, from byte ``at`` of the body on, and runs on for more
    than one load chunk past that; blank lines align the row."""
    rng = np.random.default_rng(at)
    rows = [",".join(f"{v:+.15e}" for v in r) + "\n"
            for r in rng.standard_normal(((at + dataio._CHUNK) // ROW_BYTES + 1, 9))]
    lead, pad = divmod(at - 22, ROW_BYTES)
    marked = rows[lead][:22].encode() + mark + rows[lead][22:].encode()
    body = "".join(rows[:lead]).encode() + b"\n" * pad + marked + "".join(rows[lead + 1:]).encode()
    assert body.index(mark) == at and len(body) > at + dataio._CHUNK
    return b"x1,x2,x3,x4,x5,x6,x7,x8,y\n" + body


def test_load_peak_memory_bounded(tmp_path):
    # the load streams the file: it holds the parsed array, the returned
    # arrays and one chunk, not the file's bytes, which would bring the
    # peak to about 4.6 times the returned arrays here
    rng = np.random.default_rng(25)
    path = tmp_path / "rows.csv"
    write_csv(Dataset(x=rng.standard_normal((30_000, 8)), y=rng.standard_normal(30_000),
                      kind="real"), path)
    load_csv(path)
    tracemalloc.start()
    try:
        got = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (got.x.nbytes + got.y.nbytes) + dataio._CHUNK
