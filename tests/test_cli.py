import contextlib
import hashlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from tnnflag import audit, linalg, richardson, weyl
from tnnflag.cli import main
from tnnflag.errors import InternalInconsistency


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    code, out, _ = run_err(capsys, *argv)
    return code, out


class TestCells:
    def test_n2(self, capsys):
        code, out = run(capsys, "cells", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert data["top_dimensional_cells"] == 1

    def test_n3(self, capsys):
        code, out = run(capsys, "cells", "--n", "3")
        assert code == 0
        assert json.loads(out)["count"] == 19

    def test_invalid_n(self, capsys, tmp_path):
        code, out = run(capsys, "cells", "--n", "9")
        assert code == 2 and out == ""
        path = tmp_path / "cells.json"
        code, out = run(capsys, "cells", "--n", "9", "--output", str(path))
        assert code == 2 and out == ""
        assert not path.exists()

    # the streamed writer must print what json.dumps prints for the payload
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_streamed_output_matches_json_dumps(self, capsys, tmp_path, n):
        charts = [richardson.build_chart(w, wp) for w, wp in weyl.bruhat_pairs(n)]
        top = max(chart.dim for chart in charts)
        payload = {
            "n": n,
            "cells": [{"w": weyl.perm_to_str(chart.index.w),
                       "wp": weyl.perm_to_str(chart.index.wp),
                       "dim": chart.dim, "shape": chart.shape()}
                      for chart in charts],
            "count": len(charts),
            "top_dimensional_cells": sum(chart.dim == top for chart in charts),
        }
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        code, out = run(capsys, "cells", "--n", str(n))
        assert code == 0 and out == expected
        path = tmp_path / "cells.json"
        code, out = run(capsys, "cells", "--n", str(n), "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == expected

    # digests of the output of the recursive charts that the flat step
    # lists replaced: every chart shape must stay byte-identical
    @pytest.mark.parametrize("n, digest", [
        (4, "7e88253f46dd4c68272fa85f18283a256d882e977d1e4206cab01e083d24dc5b"),
        (5, "d387cf5d87206d6f5f518eb58eb6a274449001773c28e30cf19015ebdd6ec96e"),
        (6, "341b038e78a672d4874d5f10d5683f0b397b1dc7ec928211661609244ca4c7c9"),
    ], ids=["n4", "n5", "n6"])
    def test_pinned_output(self, capsys, n, digest):
        code, out = run(capsys, "cells", "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEval:
    def test_sl2_line(self, capsys):
        code, out = run(capsys, "eval", "--n", "2", "--w", "1,2",
                        "--wp", "2,1", "--params", "1")
        assert code == 0
        data = json.loads(out)
        assert data["borel_rep"] == [["1", "-1"], ["1", "0"]]
        assert data["stratum"] == {"w": "1,2", "wp": "2,1"}

    def test_word_format(self, capsys):
        code, out = run(capsys, "eval", "--n", "3", "--w", "",
                        "--wp", "s1 s2", "--params", "1,2",
                        "--format", "word")
        assert code == 0
        assert json.loads(out)["wp"] == "2,3,1"

    @pytest.mark.parametrize("n, letter", [("3", "s0"), ("3", "s9"), ("4", "s-1")])
    def test_word_letter_out_of_range(self, capsys, n, letter):
        code, out, err = run_err(capsys, "eval", "--n", n, "--format", "word",
                                 "--w", letter, "--wp", "s1")
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    def test_not_comparable(self, capsys):
        # (2,1,3) and (1,3,2) are incomparable in Bruhat order
        code, out, err = run_err(capsys, "eval", "--n", "3", "--w", "2,1,3",
                                 "--wp", "1,3,2")
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1
        assert "Bruhat order" in err

    def test_zero_param(self, capsys):
        code, _ = run(capsys, "eval", "--n", "2", "--w", "1,2",
                      "--wp", "2,1", "--params", "0")
        assert code == 4

    def test_zero_denominator_param(self, capsys):
        code, out, err = run_err(capsys, "eval", "--n", "2", "--w", "1,2",
                                 "--wp", "2,1", "--params", "1/0")
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("params", ["1e2", "1E2", "2.5e-1"])
    def test_exponent_param(self, capsys, params):
        code, out, err = run_err(capsys, "eval", "--n", "2", "--w", "1,2",
                                 "--wp", "2,1", "--params", params)
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("params", ["1_0", "1/1_0", "0.2_5"])
    def test_digit_separator_param(self, capsys, params):
        code, out, err = run_err(capsys, "eval", "--n", "2", "--w", "1,2",
                                 "--wp", "2,1", "--params", params)
        assert code == 5
        assert out == "" and err == f"not an exact rational: {params!r}\n"

    def test_decimal_param(self, capsys):
        code, out = run(capsys, "eval", "--n", "2", "--w", "1,2",
                        "--wp", "2,1", "--params", "0.25")
        assert code == 0
        assert json.loads(out)["params"] == ["1/4"]

    def test_wrong_count(self, capsys):
        code, _ = run(capsys, "eval", "--n", "2", "--w", "1,2",
                      "--wp", "2,1", "--params", "1,2")
        assert code == 3


class TestClassify:
    def test_identity(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[["1","0"],["0","1"]]')
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["w"] == "2,1" and data["wp"] == "2,1"
        assert data["coords"] == [] and data["nonneg"]

    def test_positive_line(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[["1","0"],["1","1"]]')
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        data = json.loads(out)
        assert data == {"w": "1,2", "wp": "2,1", "coords": ["1"],
                        "nonneg": True, "reason": "ok"}

    def test_negative_line(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[["1","0"],["-1","1"]]')
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["coords"] == ["-1"] and not data["nonneg"]

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("not json")
        code, _ = run(capsys, "classify", str(f))
        assert code == 5

    @pytest.mark.parametrize("text", [
        '[["1/0","0"],["0","1"]]',
        "[]",
        "[1,2]",
        '{"borel_rep": 5}',
        '[[null,"0"],["0","1"]]',
        '[[Infinity,"0"],["0","1"]]',
    ])
    def test_malformed_matrix(self, capsys, tmp_path, text):
        f = tmp_path / "m.json"
        f.write_text(text)
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    # booleans and floats are not exact rationals, exponent notation
    # costs time that grows with the exponent, and Fraction reads digit
    # separators only from Python 3.11 on
    @pytest.mark.parametrize("text", [
        "[[true,0],[0,1]]",
        "[[2.0,0],[0,0.5]]",
        '[["1e2","0"],["0","1/100"]]',
        '[["1_0","0"],["0","1/10"]]',
    ], ids=["bool", "float", "exponent", "digit-separator"])
    def test_inexact_entry(self, capsys, tmp_path, text):
        f = tmp_path / "m.json"
        f.write_text(text)
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    def test_entries_with_surrounding_whitespace(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[[" 1 ","0"],["\\t0.5\\n","1.0"]]')
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        assert json.loads(out)["coords"] == ["2"]

    def test_integer_and_decimal_entries(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[[1,0],["0.5","1.0"]]')
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        assert json.loads(out)["coords"] == ["2"]

    def test_rank_bound(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[str(int(i == j)) for j in range(7)]
                                 for i in range(7)]))
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1

    def test_non_det1(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('[["2","0"],["0","1"]]')
        code, _ = run(capsys, "classify", str(f))
        assert code == 6

    def test_singular_message(self, capsys, tmp_path):
        # the singular verdict carries a kernel proof; the exit and the
        # message stay those of a non-det-1 representative
        f = tmp_path / "m.json"
        f.write_text('[["1","2"],["2","4"]]')
        assert run_err(capsys, "classify", str(f)) == (
            6, "", "representative must have determinant 1\n")

    def test_not_in_big_cell(self, capsys, tmp_path):
        # in the open cell of SL_3, but outside the image of its chart
        f = tmp_path / "m.json"
        f.write_text("[[1,1,-1],[0,-1,-1],[-1,-1,0]]")
        code, out = run(capsys, "classify", str(f))
        assert code == 0
        assert json.loads(out) == {"coords": [], "nonneg": False,
                                   "reason": "NotInBigCell", "w": "1,2,3",
                                   "wp": "3,2,1"}

    def test_deeply_nested(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("[" * 100000)
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    def test_oversized_rejected_before_conversion(self, capsys, tmp_path,
                                                  monkeypatch):
        converted = []
        monkeypatch.setattr(linalg, "rat", lambda x: converted.append(x))
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[int(i == j) for j in range(1000)]
                                 for i in range(1000)]))
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 2
        assert out == "" and err == "n must be in 2..6, got 1000\n"
        assert converted == []

    def test_long_row_rejected_before_conversion(self, capsys, tmp_path):
        # converting the million entries first took seconds
        f = tmp_path / "m.json"
        f.write_text(json.dumps([["1"] * 1000000, ["1"]]))
        start = time.perf_counter()
        code, out, err = run_err(capsys, "classify", str(f))
        assert time.perf_counter() - start < 0.5
        assert code == 5
        assert out == "" and err == "matrix must be square\n"

    def test_too_many_rows_is_a_rank_error(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([["x"]] * 7))
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1


class TestAudit:
    def test_clean_run(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _ = run(capsys, "audit", "--n", "2", "--samples", "3",
                      "--seed", "7", "--output", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["decomposition"]["failures"] == []
        assert data["semigroup"]["failures"] == []

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "audit", "--n", "2", "--samples", "3", "--seed", "7",
            "--output", str(f1))
        run(capsys, "audit", "--n", "2", "--samples", "3", "--seed", "7",
            "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_rank_bound(self, capsys):
        code, _ = run(capsys, "audit", "--n", "7")
        assert code == 2

    def test_negative_samples(self, capsys):
        code, out, err = run_err(capsys, "audit", "--n", "2", "--samples", "-3")
        assert code == 5
        assert out == "" and err == "samples must be nonnegative, got -3\n"

    # the audit functions refuse a negative count before their own rank
    # bounds, so this stays a usage error rather than a rank error
    def test_negative_samples_above_the_audit_rank(self, capsys):
        code, out, err = run_err(capsys, "audit", "--n", "5", "--samples", "-3")
        assert code == 5
        assert out == "" and err == "samples must be nonnegative, got -3\n"

    # refused before any sample is drawn, also for a count that would
    # otherwise run until killed
    @pytest.mark.parametrize("samples", ["10001", "99999999999999999999"])
    def test_samples_above_the_bound(self, capsys, monkeypatch, samples):
        def sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(audit, "sample_tnn_flag", sample)
        monkeypatch.setattr(audit, "y_product", sample)
        code, out, err = run_err(capsys, "audit", "--n", "2", "--samples", samples)
        assert code == 5
        assert out == "" and err == f"samples must be at most 10000, got {samples}\n"

    def test_zero_samples(self, capsys):
        code, out = run(capsys, "audit", "--n", "2", "--samples", "0")
        assert code == 0
        data = json.loads(out)
        assert data["semigroup"]["samples_total"] == 0
        assert data["decomposition"]["failures"] == []


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["cells"],
        ["cells", "--n", "x"],
        ["eval", "--n", "3", "--w", "1,2,3", "--wp", "3,2,1",
         "--params", "-1/2,3,1"],
        ["bogus"],
        ["cells", "--n", "2", "extra\nargument"],
        ["eval", "--n", "3", "--w", "1,1,2", "--wp", "3,2,1"],
        ["eval", "--n", "3", "--w", "1,2", "--wp", "3,2,1"],
    ], ids=["missing", "not-int", "negative-params", "command", "newline",
            "not-a-permutation", "wrong-rank"])
    def test_exit_5(self, capsys, argv):
        code, out, err = run_err(capsys, *argv)
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

    def test_negative_params_with_equals(self, capsys):
        code, out = run(capsys, "eval", "--n", "3", "--w", "1,2,3",
                        "--wp", "3,2,1", "--params=-1/2,3,1")
        assert code == 0
        assert json.loads(out)["params"] == ["-1/2", "3", "1"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cells", "-h"])
        assert exc.value.code == 0
        assert "--n" in capsys.readouterr().out


def run_io(argv, stdin=""):
    """main(argv) with stdin, stdout and stderr in memory."""
    saved_stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    """Valid JSON and exit 0, or a documented code with one stderr line."""
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert 2 <= code <= 6, (code, err)
        assert out == ""
        assert err.endswith("\n") and len(err.splitlines()) == 1, err


RATIONAL = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-2, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0.5", "-1.25", "1e2", "", " ", "1/0", "nan", "x"]),
    st.text(max_size=4),
)
CONTRACT = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def perm_text(draw, n, fmt):
    if draw(st.booleans()):
        return draw(st.text(max_size=6))
    if fmt == "word":
        letters = draw(st.lists(st.integers(-1, n), max_size=6))
        return " ".join(f"s{i}" for i in letters)
    return ",".join(map(str, draw(st.permutations(range(1, n + 1)))))


@st.composite
def eval_argv(draw):
    n = draw(st.integers(2, 5))
    fmt = draw(st.sampled_from(["oneline", "word"]))
    dim = 0
    if draw(st.booleans()):
        # a valid pair, so that many examples evaluate a chart
        w, wp = draw(st.sampled_from(weyl.bruhat_pairs(n)))
        dim = weyl.length(wp) - weyl.length(w)
        if fmt == "word":
            w, wp = (" ".join(f"s{i}" for i in weyl.reduced_word(v)) for v in (w, wp))
        else:
            w, wp = weyl.perm_to_str(w), weyl.perm_to_str(wp)
    else:
        w, wp = draw(perm_text(n, fmt)), draw(perm_text(n, fmt))
    small = st.integers(-3, 3).map(str)
    params = draw(st.one_of(st.lists(small, min_size=dim, max_size=dim),
                            st.lists(RATIONAL, max_size=8)).map(",".join)
                  | st.text(max_size=8))
    n_text = draw(st.one_of(st.just(str(n)), st.just(str(n)), st.text(max_size=3)))
    # the bare form takes a leading '-' for an option: a usage error
    params = ["--params=" + params] if draw(st.booleans()) else ["--params", params]
    return ["eval", "--n", n_text, "--w", w, "--wp", wp, "--format", fmt, *params]


@st.composite
def matrix_text(draw):
    kind = draw(st.sampled_from(["text", "entries", "det1"]))
    n = draw(st.integers(1 if kind == "entries" else 2, 4))
    if kind == "text":
        return draw(st.text(max_size=30))
    if kind == "entries":
        entry = st.one_of(st.integers(-3, 3), RATIONAL, st.booleans(),
                          st.none(), st.floats(allow_nan=False, width=16))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=1, max_size=n + 1))
        return json.dumps(rows)
    # lower times upper unitriangular: determinant 1
    small = st.integers(-2, 2)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return json.dumps([[sum(lower[i][k] * upper[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)])


class TestContract:
    """Every input ends in JSON and exit 0, or a documented code and one line."""

    @CONTRACT
    @given(argv=eval_argv())
    def test_eval(self, argv):
        assert_contract(*run_io(argv))

    @CONTRACT
    @given(stdin=matrix_text())
    def test_classify(self, stdin):
        assert_contract(*run_io(["classify", "-"], stdin))

    @CONTRACT
    @given(n=st.one_of(st.integers(-1, 4).map(str), st.text(max_size=3)))
    def test_cells(self, n):
        assert_contract(*run_io(["cells", "--n", n]))


class TestOutputIsJson:
    @pytest.mark.parametrize("argv", [
        ["cells", "--n", "2"],
        ["eval", "--n", "2", "--w", "1,2", "--wp", "2,1", "--params", "1/2"],
    ])
    def test_stdout_valid_json(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        json.loads(out)


class TestInternalError:
    # cells builds its charts through its own table, not build_chart's cache,
    # so the fault goes into the step builder that both share
    def test_exit_7(self, capsys, monkeypatch):
        def broken(*args):
            raise InternalInconsistency("chart contract violated")

        monkeypatch.setattr(richardson, "_chart_step", broken)
        code, out, err = run_err(capsys, "cells", "--n", "2")
        assert code == 7
        assert out == ""
        assert err == "chart contract violated\n"

    def test_failed_check_creates_no_output_file(self, capsys, monkeypatch,
                                                tmp_path):
        # cells builds every chart before it opens the output
        real, built = richardson._chart_step, []

        def fail_on_last(w, wp, chart_of):
            built.append((w, wp))
            if len(built) == len(weyl.bruhat_pairs(3)):
                raise InternalInconsistency("chart contract violated")
            return real(w, wp, chart_of)

        monkeypatch.setattr(richardson, "_chart_step", fail_on_last)
        path = tmp_path / "cells.json"
        code, out, _ = run_err(capsys, "cells", "--n", "3", "--output", str(path))
        assert code == 7 and out == ""
        assert not path.exists()
        assert len(set(built)) == len(built) == len(weyl.bruhat_pairs(3))

    def test_failed_factor_check_exits_7(self, capsys, monkeypatch):
        # an echelon with a 1 below a pivot breaks the triangular left factor
        # of the Bruhat factorization: an internal error, never a verdict
        b = richardson.eval_chart(richardson.build_chart((1, 2, 3), (3, 2, 1)), [1, 2, 3])
        real = linalg.column_echelon

        def below_pivot(g):
            c, w, pivot_product = real(g)
            j = next(j for j, p in enumerate(w) if p < len(g))
            rows = [list(row) for row in c]
            rows[w[j]][j] += 1
            return tuple(map(tuple, rows)), w, pivot_product

        monkeypatch.setattr(linalg, "column_echelon", below_pivot)
        with pytest.raises(InternalInconsistency):
            linalg.bruhat_factor_plus(b.rep)
        with pytest.raises(InternalInconsistency):
            richardson.classify(b)
        code, out, err = run_io(["classify", "-"], json.dumps(linalg.mat_to_json(b.rep)))
        assert code == 7
        assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n")


def eval_classify_transcript(n):
    """stdout of eval on every pair of rank n with fixed mixed-sign
    parameters, each eval output piped into classify."""
    parts = []
    for w, wp in weyl.bruhat_pairs(n):
        dim = weyl.length(wp) - weyl.length(w)
        params = ",".join(f"{'-' if k % 3 == 1 else ''}{k + 2}/{k + 1}"
                          for k in range(dim))
        code, out, err = run_io(["eval", "--n", str(n), "--w", weyl.perm_to_str(w),
                                 "--wp", weyl.perm_to_str(wp), "--params=" + params])
        assert code == 0 and err == "", (w, wp, err)
        code, verdict, err = run_io(["classify", "-"], out)
        assert code == 0 and err == "", (w, wp, err)
        parts += [out, verdict]
    return "".join(parts)


class TestPinnedTranscripts:
    """Digests of CLI stdout on fixed inputs: a refactor keeps every byte."""

    @pytest.mark.parametrize("n, digest", [
        (3, "78fc3b94081665e0c0dd66231cb6971f22e368b61baf3ebb0469b08fde41baf4"),
        (4, "af07a57ef1c54cb8bcd83ee084623ccae625ff662123dd2a6e8539bc6b1b31a0"),
    ], ids=["n3", "n4"])
    def test_eval_classify(self, n, digest):
        out = eval_classify_transcript(n)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_audit(self):
        code, out, err = run_io(["audit", "--n", "3", "--samples", "2", "--seed", "0"])
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c7ce90a7c8ba6de12730f9fccf0d5d3219d5aecdb67b620b311e67c859f0e2c7")
