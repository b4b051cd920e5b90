import hashlib
import json

import pytest

from tnnflag import richardson
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

    def test_invalid_n(self, capsys):
        code, _ = run(capsys, "cells", "--n", "9")
        assert code == 2

    # digests of the output of the recursive charts that the flat step
    # lists replaced: every chart shape must stay byte-identical
    @pytest.mark.parametrize("n, digest", [
        (4, "7e88253f46dd4c68272fa85f18283a256d882e977d1e4206cab01e083d24dc5b"),
        (5, "d387cf5d87206d6f5f518eb58eb6a274449001773c28e30cf19015ebdd6ec96e"),
    ], ids=["n4", "n5"])
    def test_pinned_output(self, capsys, n, digest):
        code, out = run(capsys, "cells", "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_non_integer_rank_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("RTNN_MAX_RANK", "abc")
        code, out, err = run_err(capsys, "cells", "--n", "3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "RTNN_MAX_RANK" in err


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

    # booleans and floats are not exact rationals, and exponent notation
    # costs time that grows with the exponent
    @pytest.mark.parametrize("text", [
        "[[true,0],[0,1]]",
        "[[2.0,0],[0,0.5]]",
        '[["1e2","0"],["0","1/100"]]',
    ], ids=["bool", "float", "exponent"])
    def test_inexact_entry(self, capsys, tmp_path, text):
        f = tmp_path / "m.json"
        f.write_text(text)
        code, out, err = run_err(capsys, "classify", str(f))
        assert code == 5
        assert out == "" and len(err.splitlines()) == 1

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
    def test_exit_7(self, capsys, monkeypatch):
        def broken(*args):
            raise InternalInconsistency("chart contract violated")

        monkeypatch.setattr(richardson, "build_chart", broken)
        code, out, err = run_err(capsys, "cells", "--n", "2")
        assert code == 7
        assert out == ""
        assert err == "chart contract violated\n"
