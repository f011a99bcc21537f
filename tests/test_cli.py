"""End-to-end command-line behavior: output, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from svlie import AlgebraParams, Window, assemble, catalog, solve_h1
from svlie.cli import main
from svlie.derivations import table_to_json

WITT_R = "1 * L[0] (x) L[1]\n-1 * L[1] (x) L[0]\n"
NEG_R = "1 * L[-1] (x) L[2]\n-1 * L[2] (x) L[-1]\n"
# a derivation table whose second entry has the given "gen" text
GEN_TABLE = (
    '{"target": "algebra", "degree": "0", "window": [-4, 4], "values": '
    '[{"gen": "L[0]", "value": "0"}, {"gen": "%s", "value": "0"}]}'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracketCommand:
    def test_spec_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--s", "1/2", "--lambda", "-1", "L[2]", "L[-2]"
        )
        assert code == 0
        assert out.strip() == "-4*L[0] - 1/2*c"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "5", "--json", "L[1]", "M[1]"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["result"] == "-4*M[2]"

    def test_parity_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "1", "L[1]", "Y[1/2]"
        )
        assert code == 2
        assert "parity" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "--s", "0", "--lambda", "0.5", "L[1]", "L[2]"],
            # exponent forms: Fraction reads them, and printing the number
            # they build passes the 4,300-digit limit of str(int)
            ["bracket", "--s", "0", "--lambda", "1e5000", "L[1]", "M[1]"],
            ["h1", "--s", "0", "--lambda", "0", "--degree", "1e-5000", "--window", "4"],
        ],
        ids=["decimal", "exponent-lambda", "exponent-degree"],
    )
    def test_decimal_lambda_rejected(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "rational" in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_negative_fraction_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "-5/3", "L[3]", "M[0]"
        )
        assert code == 0
        assert out.strip() == "5*M[3]"

    def test_negative_fraction_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "h1", "--s", "1/2", "--lambda", "-2", "--window", "8",
            "--degree", "-1/2",
        )
        assert code == 0 and "dim_h1=0" in out

    @pytest.mark.parametrize("command,operands", [
        ("bracket", ["L[1]"]),
        ("bracket", ["L[1]", "L[2]", "L[3]"]),
        ("coboundary", []),
        ("coboundary", ["L[1]", "L[2]"]),
    ])
    def test_wrong_operand_count_is_argparse_usage(self, capsys, tmp_path, command, operands):
        # argparse's nargs rejects the count before any handler runs: a
        # missing operand is reported by the subcommand's parser, a surplus
        # one by the top-level parser
        path = tmp_path / "witt.r"
        path.write_text(WITT_R)
        extra = ["--r", str(path)] if command == "coboundary" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--s", "0", "--lambda", "0", *extra, *operands])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: svlie ")
        assert "error: " in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err

    def test_malformed_element(self, capsys):
        code, _, err = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "1", "L[1/3]", "L[2]"
        )
        assert code == 2
        assert "column" in err


class TestCheckCommands:
    def test_cybe_pass(self, capsys, tmp_path):
        path = tmp_path / "witt.r"
        path.write_text(WITT_R)
        code, out, _ = run_cli(
            capsys, "cybe", "--s", "0", "--lambda", "5", "--r", str(path)
        )
        assert code == 0
        assert "satisfied" in out

    def test_cybe_fail_exits_one(self, capsys, tmp_path):
        path = tmp_path / "neg.r"
        path.write_text(NEG_R)
        code, out, _ = run_cli(
            capsys, "cybe", "--s", "0", "--lambda", "5", "--r", str(path)
        )
        assert code == 1
        assert "violated" in out

    def test_non_skew_warning(self, capsys, tmp_path):
        path = tmp_path / "sym.r"
        path.write_text("1 * L[0] (x) L[1]\n")
        code, _, err = run_cli(
            capsys, "mybe", "--s", "0", "--lambda", "5", "--r", str(path)
        )
        assert "not skew" in err

    def test_jacobi(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobi", "--s", "1/2", "--lambda", "-2", "--window", "8"
        )
        assert code == 0 and "pass" in out

    def test_cojacobi(self, capsys, tmp_path):
        path = tmp_path / "witt.r"
        path.write_text(WITT_R)
        code, out, _ = run_cli(
            capsys, "cojacobi", "--s", "0", "--lambda", "5", "--r", str(path),
            "--window", "6",
        )
        assert code == 0 and "holds" in out

    def test_center(self, capsys):
        code, out, _ = run_cli(
            capsys, "center", "--s", "0", "--lambda", "0", "--window", "8"
        )
        assert code == 0
        assert "M[0]" in out and "c" in out

    def test_missing_r_file(self, capsys, tmp_path):
        path = tmp_path / "nope.r"
        code, _, err = run_cli(capsys, "cybe", "--s", "0", "--lambda", "5", "--r", str(path))
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_r_file_is_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cybe", "--s", "0", "--lambda", "5", "--r", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "Is a directory" in err

    def test_r_file_not_text(self, capsys, tmp_path):
        path = tmp_path / "bytes.r"
        path.write_bytes(b"\xff\xfe1 * L[0] (x) L[1]\n")
        code, _, err = run_cli(capsys, "cybe", "--s", "0", "--lambda", "5", "--r", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot decode '{path}': ")

    @pytest.mark.parametrize("command,extra", [
        ("bracket", ["L[1]", "L[2]"]),
        ("cybe", ["--r", "witt.r"]),
        ("coboundary", ["--r", "witt.r", "L[1]"]),
        ("check-derivation", ["--derivation", "table.json"]),
    ])
    def test_window_flag_is_refused_where_unused(self, capsys, command, extra):
        # these commands read no window, so they take no --window
        with pytest.raises(SystemExit) as exc:
            main([command, "--s", "0", "--lambda", "0", *extra, "--window", "4"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --window 4"
        )

    def test_window_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "jacobi", "--s", "0", "--lambda", "1", "--window", "200"
        )
        assert code == 2 and "window" in err

    @pytest.mark.parametrize("command", ["invariants", "skew-lemma"])
    def test_interior_check_window_floor(self, capsys, command):
        # at (0, 1) both checks report false failures at windows 2-3
        code, out, err = run_cli(
            capsys, command, "--s", "0", "--lambda", "1", "--window", "3"
        )
        assert code == 2 and out == ""
        assert "at least 4" in err and "L[-2..2]" in err
        code, _, _ = run_cli(
            capsys, command, "--s", "0", "--lambda", "1", "--window", "4"
        )
        assert code == 0

    def test_verify_paper_window_floor(self, capsys):
        # criterion 9 fails falsely at windows 1-3, for example (0, -2)
        # reads left 3 against right 2 at window 2
        code, out, err = run_cli(capsys, "verify-paper", "--window", "3")
        assert code == 2 and out == ""
        assert err == (
            "error: verify-paper needs --window at least 4: the interior check "
            "needs at least L[-2..2], got 3\n"
        )

    def test_h1_window_floor(self, capsys):
        # at window 2 the degree-0 tensor square of (0, -2) reads 3 classes;
        # windows 12-20 give the stable 4
        for bound in ("1", "2", "3"):
            code, out, err = run_cli(
                capsys, "h1", "--s", "0", "--lambda", "-2",
                "--target", "tensor-square", "--window", bound,
            )
            assert code == 2 and out == ""
            assert err == (
                "error: h1 needs --window at least 4: the interior check "
                f"needs at least L[-2..2], got {bound}\n"
            )

    def test_coboundary(self, capsys, tmp_path):
        path = tmp_path / "witt.r"
        path.write_text(WITT_R)
        code, out, _ = run_cli(
            capsys, "coboundary", "--s", "1/2", "--lambda", "-1", "--r", str(path),
            "L[1]",
        )
        assert code == 0 and out.strip() == "0"


class TestDerivationCommand:
    def test_tensor_table_file(self, capsys, tmp_path):
        from svlie import parse_element

        p = AlgebraParams("1/2", -2)
        (table,) = catalog(
            p, "tensor-square", Window.symmetric(10),
            params={"l_to_m_n3_left": parse_element("c")},
        )
        path = tmp_path / "tensor_table.json"
        path.write_text(table_to_json(table))
        code, out, _ = run_cli(
            capsys, "check-derivation", "--s", "1/2", "--lambda", "-2",
            "--derivation", str(path),
        )
        assert code == 0 and "pass" in out

    def test_pass_and_fail(self, capsys, tmp_path):
        own = AlgebraParams(0, -2)
        (table,) = catalog(own, "algebra", Window.symmetric(10), params={"l_to_m_n3": 1})
        path = tmp_path / "table.json"
        path.write_text(table_to_json(table))
        code, out, _ = run_cli(
            capsys, "check-derivation", "--s", "0", "--lambda", "-2",
            "--derivation", str(path),
        )
        assert code == 0 and "pass" in out
        code, out, _ = run_cli(
            capsys, "check-derivation", "--s", "0", "--lambda", "-1",
            "--derivation", str(path),
        )
        assert code == 1 and "witness" in out

    @pytest.mark.parametrize(
        "content, reason",
        [
            ('{"target": "algebra", ', "Expecting"),
            ('{"degree": "0", "window": [-4, 4], "values": []}', "missing key 'target'"),
            ('{"target": "algebra", "window": 4, "values": []}', "cannot unpack"),
        ]
        + [
            (
                GEN_TABLE % gen,
                f"values[1]: gen '{gen}' must be a single generator with "
                "coefficient 1",
            )
            for gen in ("L[1] + L[2]", "0", "2*L[1]")
        ]
        + [
            (
                '{"target": "algebra", "window": [-4.5, 4], "values": []}',
                "window bounds must be integers: [-4.5, 4]",
            ),
        ],
    )
    def test_malformed_table(self, capsys, tmp_path, content, reason):
        path = tmp_path / "table.json"
        path.write_text(content)
        code, out, err = run_cli(
            capsys, "check-derivation", "--s", "0", "--lambda", "-2",
            "--derivation", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: malformed derivation table '{path}': ")
        assert reason in err and err.count("\n") == 1

    def test_table_window_beyond_the_cap(self, tmp_path):
        # a window this wide would run for minutes: it is refused before
        # any pair is checked
        path = tmp_path / "table.json"
        path.write_text('{"target": "algebra", "window": [-4, 4000000], "values": []}')
        proc = subprocess.run(
            [sys.executable, "-m", "svlie.cli", "check-derivation", "--s", "0",
             "--lambda", "-2", "--derivation", str(path)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: derivation table window [-4, 4000000] must lie in [-64, 64]\n"
        )

    def test_table_literal_error_keeps_its_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            '{"target": "algebra", "degree": "0", "window": [-4, 4],'
            ' "values": [{"gen": "L[1]", "value": "2 M[1]"}]}'
        )
        code, _, err = run_cli(
            capsys, "check-derivation", "--s", "0", "--lambda", "-2",
            "--derivation", str(path),
        )
        assert code == 2
        assert err == (
            "error: line 1, column 1: expected '*' between coefficient and "
            "generator (at '2 M[1]')\n"
        )


class TestLiteralDigits:
    def test_superscript_digit_is_a_diagnostic(self, capsys):
        code, out, err = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "0", "²*L[0]", "L[1]"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: line 1, column 1: expected a generator "
            "(L[..], M[..], Y[..] or c) (at '²*L[0]')\n"
        )

    def test_overlong_coefficient_is_a_diagnostic(self, capsys):
        code, out, err = run_cli(
            capsys, "bracket", "--s", "0", "--lambda", "0", "1" * 5000 + "*L[0]", "L[1]"
        )
        assert code == 2 and out == ""
        assert err == "error: line 1, column 1: integer has too many digits (at '11111111')\n"

    @pytest.mark.parametrize("command", ["bracket", "coboundary", "cybe"])
    def test_oversized_product_coefficient_is_usage_error(self, capsys, tmp_path, command):
        # each factor is below the parser's digit cap; the printed product,
        # 6,000 digits, is past the limit of str(int)
        big = "1" * 3000
        path = tmp_path / "big.r"
        path.write_text(f"{big} * L[1] (x) M[2]\n")
        argv = {
            "bracket": ["bracket", f"{big}*L[1]", f"{big}*M[1]"],
            "coboundary": ["coboundary", "--r", str(path), f"{big}*L[1]"],
            "cybe": ["cybe", "--r", str(path)],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--s", "0", "--lambda", "0")
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f"{sys.get_int_max_str_digits()}-digit limit" in errors[0]
        assert "Traceback" not in err

    def test_other_value_errors_still_raise(self, monkeypatch):
        from svlie import cli

        def broken(x, y, p):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(cli, "bracket", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            main(["bracket", "--s", "0", "--lambda", "0", "L[1]", "M[1]"])


class TestH1Command:
    def test_algebra_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "h1", "--s", "1/2", "--lambda", "-1", "--window", "12"
        )
        assert code == 0
        assert "dim_h1=2" in out

    def test_tensor_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "h1", "--s", "1/2", "--lambda", "-1", "--window", "12",
            "--target", "tensor-square", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["dim_h1"] == 4
        assert payload["report"]["certified"] is True

    def test_half_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "h1", "--s", "1/2", "--lambda", "-2", "--window", "10",
            "--degree", "1/2",
        )
        assert code == 0 and "dim_h1=0" in out

    @pytest.mark.parametrize("target", ["algebra", "tensor-square"])
    def test_degree_off_the_half_integers_is_usage_error(self, capsys, target):
        code, out, err = run_cli(
            capsys, "h1", "--s", "0", "--lambda", "0", "--window", "4",
            "--target", target, "--degree", "1/3",
        )
        assert (code, out) == (2, "")
        assert err == "error: degree must be an integer or half-integer: 1/3\n"


    @pytest.mark.parametrize(
        "target,solved,rows,unknowns,dim",
        [
            ("algebra", "algebra", 4266, 582, 3),
            ("tensor-square", "center-tensor", 17002, 2316, 12),
        ],
    )
    def test_nonzero_degree_rows_at_window_64(self, capsys, target, solved, rows, unknowns, dim):
        """rows counts the full system although the L[0] rows decide the
        degree, and the count is the same whether or not it is read first."""
        code, out, _ = run_cli(
            capsys, "h1", "--s", "0", "--lambda", "0", "--degree", "1",
            "--window", "64", "--target", target, "--json",
        )
        report = json.loads(out)["report"]
        assert code == 0
        assert (report["rows"], report["unknowns"]) == (rows, unknowns)
        assert (report["dim_der"], report["dim_inn"]) == (dim, dim)
        p, w = AlgebraParams(0, 0), Window.symmetric(64)
        first, second = solve_h1(p, target, 1, w), solve_h1(p, target, 1, w)
        assert first.n_rows == rows
        assert first == second and second.as_dict()["rows"] == rows
        assert first == solve_h1(p, target, 1, w, system=assemble(p, solved, 1, w))


class TestDeterminism:
    def test_json_reports_byte_identical(self, capsys):
        argv = ["h1", "--s", "0", "--lambda", "1", "--window", "10", "--json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_center_json_byte_identical(self, capsys):
        argv = ["center", "--s", "0", "--lambda", "0", "--window", "8", "--json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestInstalledEntryPoint:
    def test_json_byte_identical_across_processes(self):
        # separate interpreters have different hash seeds; reports must
        # not depend on them
        argv = [sys.executable, "-m", "svlie.cli", "h1", "--s", "1/2",
                "--lambda", "-2", "--window", "10", "--target",
                "tensor-square", "--json"]
        outs = [
            subprocess.run(argv, capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1] and outs[0]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svlie.cli", "bracket", "--s", "1/2",
             "--lambda", "-1", "L[2]", "L[-2]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-4*L[0] - 1/2*c"

    def test_unknown_command_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svlie.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
