"""Command-line interface: every subcommand, every exit code, determinism."""

import math

import pytest

import kelvinfn.cli
import kelvinfn.quad
import kelvinfn.verify
from kelvinfn.errors import ConvergenceError, DomainError
from kelvinfn.cli import (MAX_RANGE_POINTS, _TABLE_HEADER, _TABLE_ROW, _fmt, _points, _range_spec,
                          main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_ber_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "ber", "--nu", "0", "--x", "0")
        assert code == 0
        assert out.splitlines()[0].endswith("= 1")

    def test_dber_integer_relation(self, capsys):
        """dber at order 0 equals -(pi/2) bei(1) - ker(1)."""
        code, out, _ = run_cli(capsys, "eval", "dber", "--nu", "0", "--x", "1",
                               "--format", "csv")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[3])
        from kelvinfn.kelvin import kelvin_all
        q = kelvin_all(0.0, 1.0)
        assert value == pytest.approx(-math.pi / 2.0 * q.bei - q.ker, rel=1e-12)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "ker", "--nu", "0", "--x", "0")
        assert code == 2
        assert "DomainError" in err

    def test_gamma_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "ber", "--nu", "200", "--x", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("eval: GammaOverflowError: ")

    def test_power_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "ber", "--nu", "1000", "--x", "20")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("eval: PowerOverflowError: ")

    def test_series_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "ber", "--nu", "0", "--x", "1000")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("eval: SeriesOverflowError: ")

    @pytest.mark.parametrize("fn", ["ber", "dker"])
    def test_non_finite_order_exit_2(self, capsys, fn):
        code, out, err = run_cli(capsys, "eval", fn, "--nu", "nan", "--x", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("eval: DomainError: ")

    def test_unknown_function_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:  # argparse rejects bad choices
            main(["eval", "blah", "--nu", "0", "--x", "1"])
        assert exc.value.code == 2
        assert "argument FN: invalid choice: 'blah'" in capsys.readouterr().err

    @pytest.mark.parametrize("fn", ["bei", "ker", "dkei"])
    def test_method_line(self, capsys, fn):
        """Values and order derivatives alike report the method 'series'."""
        code, out, _ = run_cli(capsys, "eval", fn, "--nu", "0.5", "--x", "2")
        assert code == 0
        assert out.splitlines()[2] == "method = series"
        code, out, _ = run_cli(capsys, "eval", fn, "--nu", "0.5", "--x", "2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].endswith(",series")


class TestTable:
    def test_row_format_cells(self):
        """The one row format writes each cell as _fmt does, special values included."""
        vals = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1e-5)
        assert _TABLE_ROW % vals == ",".join(map(_fmt, vals)) + ",series"

    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--nu", "0", "--x", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nu,x,ber,bei,ker,kei,dber,dbei,dker,dkei,method"
        assert len(lines) == 2

    def test_gamma_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "--nu", "200", "--x", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("table: GammaOverflowError: ")

    @pytest.mark.parametrize("args, error, at", [
        (("--nu", "0", "--x-range=40:1040:1000"), "ConvergenceError", "at x = 40"),
        (("--nu", "0", "--x", "1040"), "SeriesOverflowError", "at x = 1040"),
        (("--nu", "0", "--x-range=-1:1:1"), "DomainError", "x must be positive"),
        (("--nu-range=-200:0:200", "--x-range=1e-3:1:0.5"), "PowerOverflowError",
         "(x/2)^-200 overflows double precision at x = 0.001"),
    ])
    def test_first_failing_row_names_the_error(self, capsys, args, error, at):
        """A failing table names the error of its first failing row, in row
        order: at x = 40 the K sum has no bound, though the series at 1040
        overflows before the K sums run; within one row the series fails
        before K; x = -1 fails before x = 0 and 1; nu = -200 fails at its
        first x."""
        code, out, err = run_cli(capsys, "table", *args)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"table: {error}: ")
        assert at in err

    def test_format_option_removed(self, capsys):
        """table writes CSV only; --format was accepted and ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["table", "--nu", "0", "--x", "1", "--format", "plain"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_grid_rows_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--nu-range", "0:1:0.5",
                               "--x-range", "1:3:1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 9            # header once, 3x3 rows
        nus = [float(l.split(",")[0]) for l in lines[1:]]
        assert nus == sorted(nus)             # nu-major ordering

    def test_x_zero_convention(self, capsys):
        """ber/bei filled, remaining cells empty, note in the method column."""
        code, out, _ = run_cli(capsys, "table", "--nu", "0", "--x", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[2] == "1"
        assert row[4] == "" and row[5] == "" and row[6] == ""
        assert row[10] == "undefined_at_x0"

    def test_x_zero_rows_of_several_orders(self, capsys):
        """At x = 0 alone the plan of the table's orders has an empty grid:
        one undefined_at_x0 row per order."""
        code, out, _ = run_cli(capsys, "table", "--nu-range=-1:1:1", "--x", "0")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[0], r[1], r[10]) for r in rows] == [
            (nu, "0", "undefined_at_x0") for nu in ("-1", "0", "1")]

    def test_invalid_range_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--nu-range", "1:0:0.5",
                               "--x-range", "1:2:1")
        assert code == 2

    @pytest.mark.parametrize("flag, spec", [("--nu-range", "0:inf:1"), ("--x-range", "1:2:inf"),
                                            ("--x-range", "nan:2:1"), ("--x-range", "-inf:2:1"),
                                            ("--nu-range", "0:nan:1")])
    def test_non_finite_range_exit_2(self, capsys, flag, spec):
        """A bound or step that is not finite is a usage error naming its
        flag, not a traceback or a row at x = nan."""
        other = "--x" if flag == "--nu-range" else "--nu"
        code, out, err = run_cli(capsys, "table", f"{flag}={spec}", other, "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"table: DomainError: {flag}: need finite a, b and step")
        with pytest.raises(DomainError, match=flag):
            _range_spec(spec, flag)

    @pytest.mark.parametrize("flag, spec", [("--x-range", "0:1:1e-300"),
                                            ("--x-range", "1:1e300:1e-300"),
                                            ("--nu-range", "0:1e6:1")])
    def test_range_point_count_bounded(self, capsys, flag, spec):
        """A range of more than MAX_RANGE_POINTS points, or of a count that
        overflows, is a usage error naming its flag, refused before a row is
        built (a grid of 1e300 points was still growing after 3 s, and the
        overflowing count was a bare OverflowError with exit 1)."""
        other = "--x" if flag == "--nu-range" else "--nu"
        code, out, err = run_cli(capsys, "table", f"{flag}={spec}", other, "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"table: DomainError: {flag}: more than {MAX_RANGE_POINTS} points")
        assert _range_spec(f"0:{MAX_RANGE_POINTS - 1}:1", flag)[2] == MAX_RANGE_POINTS

    def test_missing_grid_exit_2(self, capsys):
        """A table needs both axes: without one it is a usage error."""
        for argv in ([], ["--nu", "0"], ["--x-range=1:2:1"]):
            with pytest.raises(SystemExit) as exc:
                main(["table", *argv])
            assert exc.value.code == 2
            assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("nus, xs", [("-2:2:0.25", "0:2:0.25"), ("0:1000:1000", "1:2:1"),
                                         ("0:1:1", "40:1040:1000")])
    def test_grid_joins_its_one_order_tables(self, capsys, nus, xs):
        """A table of many orders prints, byte for byte, the table of each
        order alone under one header: rows at x = 0, +-nu sharing K starts
        at |nu|, x across Temme's border at 0.5.  A grid with a
        failing order exits as the first failing order alone does."""
        code, out, err = run_cli(capsys, "table", f"--nu-range={nus}", f"--x-range={xs}")
        want, joined = (0, ""), [_TABLE_HEADER + "\n"]
        for nu in _points(*_range_spec(nus, "--nu-range")):
            c, o, e = run_cli(capsys, "table", f"--nu={nu!r}", f"--x-range={xs}")
            if c != 0:
                want, joined = (c, e), []
                break
            joined += o.splitlines(keepends=True)[1:]
        assert (code, err) == want
        assert out == "".join(joined)

    def test_determinism(self, capsys, tmp_path):
        args = ("table", "--nu-range", "0:2:0.4", "--x-range", "0.5:2:0.75")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        assert main(list(args) + ["--out", str(p1)]) == 0
        assert main(list(args) + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()


class TestVerify:
    def test_reflection_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "reflection")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,nu,x,lhs,rhs,abs_diff,tol,pass"
        assert all(l.endswith(",1") for l in lines[1:])

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit):   # argparse rejects bad choices
            main(["verify", "--suite", "nonsense"])

    def test_theorem5_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "theorem5")
        assert code == 0

    @pytest.mark.parametrize("suite, rows", [("apelblat", 78), ("appendix", 23), ("all", 603)])
    def test_missed_integrals_fail_their_rows(self, capsys, monkeypatch, suite, rows):
        """With no halving of the step, no integral meets its target: verify
        prints every row and exits 1, each row backed by an integral failed
        with abs_diff = inf, and every other row passed."""
        monkeypatch.setattr(kelvinfn.quad, "MAX_DEPTH", 0)
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        cells = [line.split(",") for line in out.splitlines()[1:]]
        integral = ("apelblat_", "appendix_", "convolution_", "theorem5_", "indefinite_")
        assert (code, err, len(cells)) == (1, "", rows)
        assert all((c[5], c[7]) == ("inf", "0") if c[0].startswith(integral) else c[7] == "1"
                   for c in cells)

    def test_missed_closed_form_fails_its_rows(self, capsys, monkeypatch):
        """A Brychkov reference form that raises ConvergenceError at one
        order fails the two rows of each of its points, and no other."""
        real = kelvinfn.verify.dkelvin_bb_brychkov

        def missed(nu, x):
            if nu == 0.3:
                raise ConvergenceError("made to miss")
            return real(nu, x)

        monkeypatch.setattr(kelvinfn.verify, "dkelvin_bb_brychkov", missed)
        code, out, _ = run_cli(capsys, "verify", "--suite", "brychkov")
        cells = [line.split(",") for line in out.splitlines()[1:]]
        failed = [c for c in cells if c[7] == "0"]
        assert code == 1 and len(cells) == 32 and failed
        assert all(float(c[1]) == 0.3 and c[4:6] == ["nan", "inf"] for c in failed)
        assert len(failed) == sum(float(c[1]) == 0.3 for c in cells)

    def test_csv_deterministic(self, capsys, tmp_path):
        p1 = tmp_path / "v1.csv"
        p2 = tmp_path / "v2.csv"
        assert main(["verify", "--suite", "appendix", "--out", str(p1)]) == 0
        assert main(["verify", "--suite", "appendix", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestPlumbing:
    @pytest.mark.parametrize("argv, module, name", [
        (("eval", "bei", "--nu", "0.5", "--x", "1"), kelvinfn.cli, "_eval_ber_bei"),
        (("eval", "dker", "--nu", "0.5", "--x", "1"), kelvinfn.cli, "_plan_rows"),
        (("table", "--nu", "0.5", "--x", "1"), kelvinfn.cli, "_plan_rows"),
        (("verify", "--suite", "brychkov"), kelvinfn.verify, "dkelvin_bb_pos"),
    ], ids=["eval", "eval-derivative", "table", "verify"])
    def test_kelvin_error_exits_2(self, capsys, monkeypatch, argv, module, name):
        """A KelvinError raised inside any command reaches main, which
        prints one line, '<command>: <Type>: <message>', and returns 2."""
        def fail(*args):
            raise DomainError("made to fail")

        monkeypatch.setattr(module, name, fail)
        assert run_cli(capsys, *argv) == (2, "", f"{argv[0]}: DomainError: made to fail\n")

    def test_other_errors_surface(self, capsys, monkeypatch):
        """Only a KelvinError or an OSError is a refusal: any other
        exception, a bare ValueError from a kernel included, is a fault of
        the program and leaves main with its traceback, not as exit 2."""
        def fail(*args):
            raise ValueError("math domain error")

        monkeypatch.setattr(kelvinfn.cli, "_plan_rows", fail)
        with pytest.raises(ValueError, match="math domain error"):
            main(["table", "--nu", "0.5", "--x", "1"])
        assert capsys.readouterr().err == ""

    def test_parser_reused_across_calls(self, capsys):
        """main() keeps one parser per process; a usage error in between
        leaves it as it was."""
        argv = ["table", "--nu-range=-1:1:0.5", "--x", "2"]
        code1, out1, _ = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["table", "--nu", "0", "--x", "2", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parse_range(self):
        assert _points(*_range_spec("1:2:0.5", "t")) == [1.0, 1.5, 2.0]
        assert _points(*_range_spec("3", "t")) == [3.0]
        assert math.copysign(1.0, _points(*_range_spec("-0", "t"))[0]) == -1.0
        with pytest.raises(DomainError):
            _range_spec("1:2:0", "t")
        with pytest.raises(DomainError):
            _range_spec("1:2", "t")
