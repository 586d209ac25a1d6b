"""Tests for the command-line front end.

Covers the range grammar, flag validation, exit codes, the pinned
column schemas, round-trip precision of emitted numbers, and
determinism of the covariance trials.
"""

import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from mpmath import mp, mpf, pi

import casimir_cutoff.cli
import casimir_cutoff.expansion
from casimir_cutoff.cli import COMMANDS, ScanConfig, UsageError, main, parse_args, run
from casimir_cutoff.errors import CasimirError
from casimir_cutoff.expansion import casimir_pressure, energy_laurent
from casimir_cutoff.modesum import CutoffParams, FieldKind, PlateGeometry
from casimir_cutoff.pointwise import energy_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseArgs:
    """Config construction and flag validation."""

    def test_defaults(self):
        cfg = parse_args(["pressure", "--a", "1.0", "--lambda", "0.0", "--field", "em"])
        assert cfg.command == "pressure"
        assert cfg.out_format == "csv"
        assert cfg.precision == 50
        assert cfg.field is FieldKind.ELECTROMAGNETIC
        assert cfg.a_values == (mpf(1),)
        assert cfg.seed == 0

    def test_lambda_domain(self):
        with pytest.raises(UsageError, match="--lambda"):
            parse_args(["energy-sum", "--a", "1", "--lambda", "1.2", "--epsilon", "0.1"])
        with pytest.raises(UsageError, match="--lambda"):
            parse_args(["pressure", "--lambda", "-0.1"])

    def test_range_grammar_grid(self):
        cfg = parse_args(
            ["scan", "--a", "0.5:2.0:4", "--lambda", "0:0.9:10", "--output", "out.csv"]
        )
        assert cfg.a_values == (mpf("0.5"), mpf(1), mpf("1.5"), mpf(2))
        assert len(cfg.lam_values) == 10
        assert cfg.lam_values[0] == 0
        assert abs(cfg.lam_values[-1] - mpf("0.9")) < mpf("1e-45")
        assert abs(cfg.lam_values[1] - mpf("0.1")) < mpf("1e-45")
        assert cfg.output == "out.csv"

    def test_range_grammar_errors(self):
        with pytest.raises(UsageError, match="--a"):
            parse_args(["pressure", "--a", "1:2"])
        with pytest.raises(UsageError, match="count"):
            parse_args(["pressure", "--a", "1:2:0"])
        with pytest.raises(UsageError, match="--a"):
            parse_args(["pressure", "--a", "abc"])
        with pytest.raises(UsageError, match="^--a: count must be an integer$"):
            parse_args(["pressure", "--a", "0:1:x"])

    def test_infinite_range_endpoint_keeps_start(self):
        # The first point is start itself, not start + 0 * inf = NaN.
        cfg = parse_args(["pressure", "--a", "1:inf:2", "--epsilon", "2:-inf:3"])
        assert cfg.a_values == (mpf(1), mpf("inf"))
        # From a finite start an infinite step has no NaN point inside.
        assert cfg.eps_values == (mpf(2), mpf("-inf"), mpf("-inf"))
        assert parse_args(["pressure", "--a", "1:inf:3"]).a_values == (1, mpf("inf"), mpf("inf"))

    def test_infinite_start_reaches_stop(self):
        # -inf + inf is NaN, so an infinite step ends on stop itself.
        cfg = parse_args(["pressure", "--a=-inf:1:2", "--epsilon=-inf:inf:2"])
        assert cfg.a_values == (mpf("-inf"), mpf(1))
        assert cfg.eps_values == (mpf("-inf"), mpf("inf"))
        # A finite step keeps start + i * step, even where it rounds off stop.
        cfg = parse_args(["pressure", "--a", "0.1:1:4"])
        step = (mpf(1) - mpf("0.1")) / 3
        assert cfg.a_values == tuple(mpf("0.1") + i * step for i in range(4))
        assert cfg.a_values[-1] != 1

    def test_single_point_range(self):
        cfg = parse_args(["pressure", "--a", "1:5:1"])
        assert cfg.a_values == (mpf(1),)

    def test_swept_range_may_touch_bad_values(self):
        # Range endpoints are validated per point at run time, not parse time.
        cfg = parse_args(["stress", "--field", "scalar", "--z", "0:0.5:2"])
        assert cfg.z_values == (mpf(0), mpf("0.5"))

    def test_eps_vec_validation(self):
        with pytest.raises(UsageError, match="four"):
            parse_args(["stress", "--eps-vec", "0,0.1,0"])
        with pytest.raises(UsageError, match="z component"):
            parse_args(["stress", "--eps-vec", "0,0.1,0,0.1"])
        with pytest.raises(UsageError, match="--eps-vec"):
            parse_args(["stress", "--eps-vec", "0.2,0.1,0,0"])

    def test_scalar_stress_requires_z(self):
        with pytest.raises(UsageError, match="--z"):
            parse_args(["stress", "--field", "scalar"])

    def test_covariance_rejects_ranges(self):
        with pytest.raises(UsageError, match="single value"):
            parse_args(["covariance", "--a", "1:2:3"])

    def test_precision_floor(self):
        with pytest.raises(UsageError, match="--precision"):
            parse_args(["pressure", "--precision", "10"])

    def test_precision_env_override(self, monkeypatch):
        monkeypatch.setenv("CASIMIR_PRECISION", "60")
        cfg = parse_args(["pressure"])
        assert cfg.precision == 60

    def test_bad_counts(self):
        with pytest.raises(UsageError, match="--n-max"):
            parse_args(["energy-sum", "--n-max", "0"])
        with pytest.raises(UsageError, match="--trials"):
            parse_args(["covariance", "--trials", "0"])
        with pytest.raises(UsageError, match="--order"):
            parse_args(["pressure", "--order", "-1"])


class TestExitCodes:
    """Process-level behaviour of main()."""

    def test_usage_error_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "energy-sum", "--lambda", "1.2")
        assert code == 1
        assert "--lambda" in err
        assert out == ""

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err != ""

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "pressure", "--a", "1", "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: --output: ")
        assert "No such file" in err
        assert not target.exists()

    @pytest.mark.parametrize("where", ["missing", "file", "directory"])
    def test_unwritable_output_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path, where):
        # A target in a missing directory, under a file or that is itself a
        # directory is refused before any grid point runs.
        (tmp_path / "plain").write_text("")
        target = {
            "missing": tmp_path / "missing" / "out.csv",
            "file": tmp_path / "plain" / "out.csv",
            "directory": tmp_path,
        }[where]

        def no_sweep(*args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(casimir_cutoff.cli, "_sweep", no_sweep)
        argv = ("pressure", "--a", "1:2:50", "--lambda", "0:0.9:50", "--output", str(target))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --output: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exists", [False, True])
    def test_output_written_only_after_the_sweep(self, capsys, monkeypatch, tmp_path, exists):
        # The early check neither creates nor truncates the target.
        target = tmp_path / "out.csv"
        if exists:
            target.write_text("old\n")
        sweep = casimir_cutoff.cli._sweep

        def checked(*args):
            if exists:
                assert target.read_text() == "old\n"
            else:
                assert not target.exists()
            return sweep(*args)

        monkeypatch.setattr(casimir_cutoff.cli, "_sweep", checked)
        code, out, _ = run_cli(capsys, "pressure", "--a", "1", "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_text().startswith("a,lambda,field,finite_part,divergent_coeff\n")

    def test_bad_precision_environment_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_PRECISION", "abc")
        code, out, err = run_cli(capsys, "pressure")
        assert (code, out) == (1, "")
        assert err.startswith("error: CASIMIR_PRECISION: ")
        assert "--precision" not in err
        # An explicit flag wins over the variable, and is named when bad.
        assert run_cli(capsys, "pressure", "--precision", "20")[0] == 0
        code, _, err = run_cli(capsys, "pressure", "--precision", "10")
        assert code == 1
        assert err.startswith("error: --precision: ")

    def test_success_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--a", "1", "--lambda", "0")
        assert code == 0
        assert out.startswith("a,lambda,field,finite_part,divergent_coeff\n")

    def test_domain_error_row_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "stress", "--field", "scalar", "--z", "0:0.5:2", "--lambda", "0.5"
        )
        assert code == 2
        header, rows = parse_csv(out)
        assert len(rows) == 2
        # The z = 0 point hits the wall: prefix kept, computed fields empty.
        assert rows[0][3] == "0.0"
        assert all(v == "" for v in rows[0][4:])
        assert all(v != "" for v in rows[1])

    def test_convergence_failure_exits_three(self, capsys):
        # A cutoff this small needs more modes than the extension cap.
        code, out, _ = run_cli(
            capsys, "energy-sum", "--epsilon", "0.0001:0.2:2", "--lambda", "0"
        )
        assert code == 3
        _, rows = parse_csv(out)
        assert all(v == "" for v in rows[0][3:])
        assert all(v != "" for v in rows[1])

    def test_low_precision_energy_sum_exits_zero(self, capsys):
        # The default tolerance follows the working precision (1e-5 at
        # 15 digits), so the sum is certified instead of refused.
        code, out, _ = run_cli(
            capsys, "energy-sum", "--epsilon", "0.01", "--lambda", "0.3",
            "--precision", "15",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        with mp.workdps(30):
            cutoff = CutoffParams(mpf(row["epsilon"]), mpf(row["lambda"]))
            exact = energy_closed_form(PlateGeometry(1), cutoff)
            energy, bound = mpf(row["energy"]), mpf(row["remainder_bound"])
            assert abs(energy - exact) <= bound <= mpf("1e-5") * energy

    def test_tiny_tilted_splitting_covariance_exits_zero(self, capsys):
        # Stress entries near 1e31: the symmetry check is relative to
        # their size, so rounding at the 1e-21 level is no defect.
        code, out, _ = run_cli(
            capsys, "covariance", "--a", "1", "--lambda", "0.5",
            "--eps-vec=0.3e-16,1e-16,0.5e-16,0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20 and all(v != "" for row in rows for v in row)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "flag",
        ["--a=nan", "--lambda=NaN", "--epsilon=0.1:nan:2", "--z=nan",
         "--eps-vec=0,nan,0,0", "--eps-vec=inf,inf,0,0", "--rapidity=nan"],
    )
    def test_nan_is_a_usage_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag.split('=')[0]}: ")

    @pytest.mark.parametrize("command", ["energy-sum", "pressure", "stress"])
    @pytest.mark.parametrize(
        "flag", ["--a=-inf:1:3", "--a=inf:inf:3", "--a=inf:-inf:4", "--epsilon=-inf:-inf:3"]
    )
    def test_nan_grid_point_is_a_usage_error(self, capsys, command, flag):
        # start + i * step is NaN inside these ranges (-inf + inf, or a
        # NaN step): refused as a NaN endpoint is, before any grid point.
        name, text = flag.split("=")
        code, out, err = run_cli(capsys, command, flag)
        assert (code, out) == (1, "")
        assert err == f"error: {name}: range {text!r} has a point that is not a number\n"

    def test_q_rounded_to_one_given_range_exits_three(self, capsys):
        # q = 1 - 1.6e-60 is 1 at 50 digits: the terms do not decay, so no
        # bound is finite and a given --n-max fails to converge too.
        code, out, err = run_cli(
            capsys, "energy-sum", "--epsilon", "1e-60", "--lambda", "0.5", "--n-max", "10"
        )
        assert (code, err) == (3, "")
        assert out == "a,lambda,epsilon,n_max,energy,remainder_bound\n1.0,0.5,1.0e-60,,,\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_that_fills_up_exits_one(self, capsys):
        # /dev/full opens but refuses every write, so the writer's own
        # OSError is turned into a usage error after the sweep.
        code, out, err = run_cli(capsys, "pressure", "--a", "1", "--output", "/dev/full")
        assert (code, out) == (1, "")
        assert err == "error: --output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("epsilon", ["inf", "0.1:inf:2"])
    def test_infinite_epsilon_row_exits_two(self, capsys, epsilon):
        code, out, err = run_cli(capsys, "energy-sum", "--epsilon", epsilon)
        assert code == 2
        assert err == ""
        _, rows = parse_csv(out)
        assert rows[-1] == ["1.0", "0.0", "+inf", "", "", ""]
        assert all(v != "" for row in rows[:-1] for v in row)

    @pytest.mark.parametrize("command", ["energy-expansion", "pressure", "scan"])
    @pytest.mark.parametrize("a", ["inf", "1:inf:2"])
    def test_infinite_separation_row_exits_two(self, capsys, command, a):
        # At a = inf the scale pi/2a is 0, so the expansion has no
        # eps^-4 term: a domain error, not a traceback.
        code, out, err = run_cli(capsys, command, "--a", a)
        assert code == 2
        assert err == ""
        header, rows = parse_csv(out)
        n_inputs = 3 if command == "pressure" else 2
        assert rows[-1][:n_inputs] == ["+inf", "0.0", "em"][:n_inputs]
        assert rows[-1][n_inputs:] == [""] * (len(header) - n_inputs)
        assert all(v != "" for row in rows[:-1] for v in row)

    # 1e400 is a finite mpf but an infinite double; the draws from
    # [-1e308, 1e308] would span an infinite double width.
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "-1e400", "1e308"])
    def test_non_finite_rapidity_is_a_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "covariance", f"--rapidity={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --rapidity: ")

    def test_huge_finite_rapidity_row_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "covariance", "--rapidity=1e300", "--trials", "2")
        assert code == 2
        assert err == ""
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["", ""]

    def test_infinite_covariance_separation_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "covariance", "--a", "inf", "--trials", "3")
        assert code == 2
        assert err == ""
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert all(r[3] == "" for r in rows)

    def test_short_spatial_splitting_exits_zero(self, capsys):
        # The lightlike margin scales with the splitting, so a length of
        # 1e-16 is an ordinary spacelike point.
        code, out, _ = run_cli(capsys, "stress", "--eps-vec=0,1e-16,0,0")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(v != "" for v in rows[0][4:])


# Printed by an earlier release on the same inputs; the covariance path
# may get faster but must not change a digit of Ttt.  The residual and
# trace_residual columns are rounding noise: they move whenever the last
# bits of A or B do, so they pin the current rounding, not a value.
_SPLIT = "--eps-vec=0.01,0.1,0.02,0"
_PINNED = [
    (
        ("covariance", "--a", "1.2", "--lambda", "0.4", _SPLIT, "--rapidity", "2",
         "--trials", "3", "--seed", "7"),
        "residual",
        [
            "2.672764710092195646140536467151481878815e-50",
            "1.603658826055317387684321880290889127289e-50",
            "1.603658826055317387684321880290889127289e-50",
        ],
    ),
    (
        ("covariance", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda",
         "0.4", _SPLIT, "--rapidity", "2", "--trials", "2", "--seed", "7"),
        "residual",
        [
            "3.207317652110634775368643760581778254578e-50",
            "1.069105884036878258456214586860592751526e-50",
        ],
    ),
    (
        ("covariance", "--precision", "200", "--a", "1.2", "--lambda", "0.4", _SPLIT,
         "--rapidity", "2", "--trials", "2", "--seed", "7"),
        "residual",
        [
            "9.798151324726952790108441295360568907696643719631597205725034810858732"
            "84033924969259268235414790155221175817064636613339305226069733261154149"
            "7323197093060823890165469216434417652539635117951e-201",
            "9.798151324726952790108441295360568907696643719631597205725034810858732"
            "84033924969259268235414790155221175817064636613339305226069733261154149"
            "7323197093060823890165469216434417652539635117951e-201",
        ],
    ),
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", _SPLIT),
        "Ttt",
        [
            "1.277512050778533037991943086218231073842",
            "5.202181167312269076207957347498847704476",
        ],
    ),
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", _SPLIT),
        "trace_residual",
        [
            "1.336382355046097823070268233575740939408e-51",
            "1.703887502683774724414591997809069697745e-50",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4",
         _SPLIT),
        "Ttt",
        ["-1.29354499376415834510297216325536890147"],
    ),
]
# The other printed columns of the two stress invocations above: only
# trace_residual may move with the rounding.
_PINNED += [
    (("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", _SPLIT), column, expected)
    for column, expected in (
        ("A", ["0.1070920616437647419578395290785172649231",
               "0.02677301541094118548945988226962931623078"]),
        ("B_finite", ["-0.003212761849312942258735185872355517947693",
                      "-0.00481914277396941338810277880853327692154"]),
        ("B_div_eps2", ["-0.01302083333333333333333333333333333333333",
                        "-0.05208333333333333333333333333333333333333"]),
        ("Tzz", ["-0.08031904623282355646837964680888794869233",
                 "-0.02007976155820588911709491170222198717308"]),
    )
] + [
    (("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4",
      _SPLIT), column, [expected])
    for column, expected in (
        ("A", "0.007932745306945536441321446598408686290601"),
        ("B_finite", "0.0102949897584725178889597854724510957463"),
        ("B_div_eps2", "0.0128205457706798175791125225806107152586"),
        ("Tzz", "-0.00594955898020915233099108494880651471795"),
    )
]


class TestPinnedOutputs:
    """Covariance residuals and stress components, digit for digit."""

    @pytest.mark.parametrize("argv, column, expected", _PINNED)
    def test_column_unchanged(self, capsys, argv, column, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[header.index(column)] for r in rows] == expected


# energy-sum rows printed by the integer-recurrence release of the mode
# sum: the auto path at 50, 100 and 200 digits and given n_max at 50,
# for both fields.  However the sum is formed, no printed digit moves.
_PINNED_ENERGY_SUM = [
    (
        ("--a", "1.2", "--lambda", "0.45", "--epsilon", "0.05:0.2:2"),
        "em",
        [
            "1.2,0.45,0.05,1062,216594.0658845397815771958942818714263804,2.1400749080867"
            "21346450550434902700897024e-25",
            "1.2,0.45,0.2,266,845.3310310151447540575861452285594466223,6.519575973842299"
            "215743850000744689347429e-28",
        ],
    ),
    (
        ("--a", "1.2", "--lambda", "0.45", "--epsilon", "0.05:0.2:2"),
        "scalar",
        [
            "1.2,0.45,0.05,1062,107660.4131699023094455224120874456557421,1.0700374540433"
            "60673180014390139945898172e-25",
            "1.2,0.45,0.2,266,412.718331564328918543237837403497575684,3.2597879869211496"
            "07693795569576755806657e-28",
        ],
    ),
    (
        ("--a", "0.7", "--lambda", "0.3", "--epsilon", "0.1", "--precision", "100"),
        "em",
        [
            "0.7,0.3,0.1,243,4524.8267179527782266809407298203189790945183635539549411440"
            "5572021960370023766366940944178,0.000000000000000000000000003773207889613177"
            "24158047961302678459544271799336284631443397876511852225016896102829175747",
        ],
    ),
    (
        ("--a", "0.7", "--lambda", "0.3", "--epsilon", "0.1", "--precision", "100"),
        "scalar",
        [
            "0.7,0.3,0.1,243,2182.8358874304414454560284832239023085300293589067492461981"
            "9418808035345130171856715966399,0.000000000000000000000000001886603944806588"
            "62079023980651339229772135899668142315721698938255926042870224867821347963",
        ],
    ),
    (
        ("--a", "1.5", "--lambda", "0.8", "--epsilon", "0.2", "--precision", "200"),
        "em",
        [
            "1.5,0.8,0.2,918,14722.121406098716874849514252181422576768832768300129543571"
            "3821895417196015198033954992846941676559445444037319193793113167557939237856"
            "9466097156340665899869536577132211164217478050513747764,0.000000000000000000"
            "0000000138425696152804830248950754296666842381330473598057293905069956641990"
            "8798945351365831103189618814581507830246871380668838860528229474434259092866"
            "691781084561050164451339506097014491463706234",
        ],
    ),
    (
        ("--a", "1.5", "--lambda", "0.8", "--epsilon", "0.2", "--precision", "200"),
        "scalar",
        [
            "1.5,0.8,0.2,918,7351.1135191061149789392018908799291407572626562912862437389"
            "6188576717875090776253930651023441093715439994731328926728328107208997151068"
            "616468090874015876810773105816312223302004193520958901,0.0000000000000000000"
            "0000000692128480764024151244753771483334211906652367990286469525349783209954"
            "3994726756829155515948094072907539151234356903344194302641147372171295464333"
            "45890542280525082225669749312386727051433059",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "1"),
        "em",
        [
            "1.3,0.2,0.003,1,17700988.23598299381823308241698986174994,7731882717.3078935"
            "54590874616368216362629",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "1"),
        "scalar",
        [
            "1.3,0.2,0.003,1,5903180.357030472172655730775670590837295,3865941358.6539467"
            "77295437308184108181315",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "200"),
        "em",
        [
            "1.3,0.2,0.003,200,2577811424.318870950337506365692306019161,5171772281.22500"
            "5598071601333092900205218",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "200"),
        "scalar",
        [
            "1.3,0.2,0.003,200,1285958398.398474450432292372413328669543,2585886140.61250"
            "2799035800666546450102609",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "20000"),
        "em",
        [
            "1.3,0.2,0.003,20000,7749583705.543876548409107698785206224379,1.127994748181"
            "643406007500020946818457683e-36",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "20000"),
        "scalar",
        [
            "1.3,0.2,0.003,20000,3871844539.010977249468093038959778772152,5.636034608929"
            "473670702085123352652590448e-37",
        ],
    ),
]


class TestPinnedEnergySum:
    """energy-sum stdout and exit codes, digit for digit."""

    @pytest.mark.parametrize("args, field, expected", _PINNED_ENERGY_SUM)
    def test_rows_unchanged(self, capsys, args, field, expected):
        code, out, _ = run_cli(capsys, "energy-sum", *args, "--field", field)
        assert code == 0
        assert out.splitlines() == ["a,lambda,epsilon,n_max,energy,remainder_bound"] + expected

    def test_cap_failure_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "energy-sum", "--epsilon", "1e-4", "--lambda", "0")
        assert code == 3
        assert out == "a,lambda,epsilon,n_max,energy,remainder_bound\n1.0,0.0,0.0001,,,\n"

    def test_subnormal_log_q_fails_on_the_cap(self, capsys):
        # At 400 digits log q is a subnormal double, and 1 / (1 - q)
        # overflows one once squared; the float estimate still predicts
        # past the cap, so the point fails with exit 3 and nothing raised.
        argv = ("--precision", "400", "--epsilon", "1e-315", "--lambda", "0.5")
        for field in ("em", "scalar"):
            code, out, err = run_cli(capsys, "energy-sum", *argv, "--field", field)
            assert (code, err) == (3, "")
            assert out == "a,lambda,epsilon,n_max,energy,remainder_bound\n1.0,0.5,1.0e-315,,,\n"


# Whole stdout and exit code of the other sweeps, recorded when each
# subcommand still had its own hand-written runner: failed points
# (empty CSV cells, JSON null), the EM stress "z" cell, JSON objects
# and arrays.  However the sweep is driven, no byte moves.  The JSON
# stress row's trace_residual was re-recorded when the stress
# coefficients came to be rounded once.
_PINNED_SWEEPS = [
    (
        ("energy-expansion", "--a", "0.5:1.5:2", "--lambda", "0:0.6:2"),
        0,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.5,0.0,0.0,0.0,-0.1096622711232150957648276777764016792813,0.0,-0.109662271"
            "1232150957648276777764016792813",
            "0.5,0.6,0.0,-0.1,-0.08597522056060063507962489937669891655651,-0.1,-0.085975"
            "22056060063507962489937669891655651",
            "1.5,0.0,0.0,0.0,-0.004061565597156114657956580658385247380788,0.0,-0.0040615"
            "65597156114657956580658385247380788",
            "1.5,0.6,0.0,-0.03333333333333333333333333333333333333333,-0.0031842674281703"
            "93891837959236174033946537,-0.03333333333333333333333333333333333333333,-0.0"
            "03184267428170393891837959236174033946537",
        ],
    ),
    (
        ("energy-expansion", "--a", "1", "--lambda", "0.4", "--field", "scalar"),
        0,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "1.0,0.4,0.0,-0.01666666666666666666666666666666666666667,-0.0064152428607080"
            "83102242419149919498237954,-0.01666666666666666666666666666666666666667,-0.0"
            "06415242860708083102242419149919498237954",
        ],
    ),
    (
        ("pressure", "--a", "0:1:3", "--lambda", "0.3", "--field", "scalar"),
        2,
        [
            "a,lambda,field,finite_part,divergent_coeff",
            "0.0,0.3,scalar,,",
            "0.5,0.3,scalar,-0.320104169408664864537531991429316501822,-0.05",
            "1.0,0.3,scalar,-0.02000651058804155403359574946433228136388,-0.0125",
        ],
    ),
    (
        ("scan", "--a", "0.8:1.2:2", "--lambda", "0.2", _SPLIT),
        0,
        [
            "a,lambda,c_m2,c_0,finite_part,divergent_coeff,A,B_finite,B_div_eps2",
            "0.8,0.2,-0.02083333333333333333333333333333333333333,-0.02655883128765365600"
            "554420321147228170093,-0.09959561732870121002079076204302105637849,-0.026041"
            "66666666666666666666666666666666667,0.10709206164376474195783952907851726492"
            "31,-0.003212761849312942258735185872355517947693,-0.013020833333333333333333"
            "33333333333333333",
            "1.2,0.2,-0.01388888888888888888888888888888888888889,-0.00786928334448997214"
            "9790875025621416800276,-0.01967320836122493037447718756405354200069,-0.01157"
            "407407407407407407407407407407407407,0.0211539874851880971768571909290898301"
            "0827,-0.0006346196245556429153057157278726949032481,-0.005787037037037037037"
            "037037037037037037037",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--z", "0:0.5:2", "--lambda", "0.5", "--format", "json"),
        2,
        [
            "[",
            "  {",
            "    \"a\": \"1.0\",",
            "    \"lambda\": \"0.5\",",
            "    \"field\": \"scalar\",",
            "    \"z\": \"0.0\",",
            "    \"A\": null,",
            "    \"B_finite\": null,",
            "    \"B_div_eps2\": null,",
            "    \"Ttt\": null,",
            "    \"Tzz\": null,",
            "    \"trace_residual\": null",
            "  },",
            "  {",
            "    \"a\": \"1.0\",",
            "    \"lambda\": \"0.5\",",
            "    \"field\": \"scalar\",",
            "    \"z\": \"0.5\",",
            "    \"A\": \"0.01370778389040188697060345972205020991016\",",
            "    \"B_finite\": \"0.01799146635615247664891704088519090050708\",",
            "    \"B_div_eps2\": \"0.02083333333333333333333333333333333333333\",",
            "    \"Ttt\": \"-2.104751745662086281724901239149036786318\",",
            "    \"Tzz\": \"-0.01028083791780141522795259479153765743262\",",
            "    \"trace_residual\": \"4.238837782411841532551007053373053292183e-51\"",
            "  }",
            "]",
        ],
    ),
    (
        ("stress", "--a", "1.2", "--lambda", "0.4", _SPLIT, "--format", "json"),
        0,
        [
            "{",
            "  \"a\": \"1.2\",",
            "  \"lambda\": \"0.4\",",
            "  \"field\": \"em\",",
            "  \"z\": \"\",",
            "  \"A\": \"0.0158654906138910728826428931968173725812\",",
            "  \"B_finite\": \"-0.001110584342972375101785002523777216080684\",",
            "  \"B_div_eps2\": \"-0.01157407407407407407407407407407407407407\",",
            "  \"Ttt\": \"1.153602095475011623322350604448285350859\",",
            "  \"Tzz\": \"-0.0118991179604183046619821698976130294359\",",
            "  \"trace_residual\": \"4.927909934232485722571614111310544714066e-51\"",
            "}",
        ],
    ),
]


class TestPinnedSweeps:
    """Stdout and exit code of every other subcommand, byte for byte."""

    @pytest.mark.parametrize("argv, expected_code, expected", _PINNED_SWEEPS)
    def test_stdout_unchanged(self, capsys, argv, expected_code, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert out == "".join(line + "\n" for line in expected)


# Every column of the stress and covariance sweeps at splittings with
# exact zeros: the CLI default (0, 0.1, 0, 0), a spatial splitting and
# the covariance axis splitting, at 15 and 50 digits.  The splitting
# path skips products with a zero factor; no printed byte may move,
# rounding-noise columns included.  The coefficient columns at 15 digits
# and the rounding-noise columns were re-recorded when each closed form
# came to be rounded once.
_SPATIAL = "--eps-vec=0,0.07,-0.03,0"
_PINNED_ZERO_SPLITS = [
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", "--precision", "15"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "0.800000000000000044408920985006,0.200000000000000011102230246252,em,,0.107092"
            "061643764710487936042682,-0.00321276184931294176566618503443,-0.01302083333333"
            "33321768510160155,1.27852307977170487340856652736,-0.0803190462328235293965050"
            "80058,6.93889390390722837764769792557e-17",
            "0.800000000000000044408920985006,0.800000000000000044408920985006,em,,0.026773"
            "0154109411741525370587169,-0.00481914277396941134745667056904,-0.0520833333333"
            "333287074040640618,5.20645922225456558862788369879,-0.020079761558205878879679"
            "3180609,9.02056207507939689094200730324e-17",
        ],
    ),
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", "--precision", "50"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "0.8,0.2,em,,0.1070920616437647419578395290785172649231,-0.00321276184931294225"
            "8735185872355517947693,-0.01302083333333333333333333333333333333333,1.27852307"
            "977170509010260863693605953505,-0.08031904623282355646837964680888794869233,1."
            "336382355046097823070268233575740939408e-51",
            "0.8,0.8,em,,0.02677301541094118548945988226962931623078,-0.0048191427739694133"
            "8810277880853327692154,-0.05208333333333333333333333333333333333333,5.20645922"
            "2254567450349071141574459281197,-0.02007976155820588911709491170222198717308,4"
            ".343242653899817924978371759121158053075e-51",
        ],
    ),
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", _SPATIAL, "--precision", "15"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "0.800000000000000044408920985006,0.200000000000000011102230246252,em,,0.107092"
            "061643764710487936042682,-0.00321276184931294176566618503443,-0.01302083333333"
            "33321768510160155,2.22141101080618730279070405231,-0.0803190462328235293965050"
            "80058,9.57567358739197516115382313728e-16",
            "0.800000000000000044408920985006,0.800000000000000044408920985006,em,,0.026773"
            "0154109411741525370587169,-0.00481914277396941134745667056904,-0.0520833333333"
            "333287074040640618,8.97801094639249797069169289898,-0.020079761558205878879679"
            "3180609,7.9797279894933126342948526144e-16",
        ],
    ),
    (
        ("stress", "--a", "0.8", "--lambda", "0.2:0.8:2", _SPATIAL, "--precision", "50"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "0.8,0.2,em,,0.1070920616437647419578395290785172649231,-0.00321276184931294225"
            "8735185872355517947693,-0.01302083333333333333333333333333333333333,2.22141101"
            "0806187848723298292108473328154,-0.08031904623282355646837964680888794869233,4"
            ".009147065138293469210804700727222818223e-51",
            "0.8,0.8,em,,0.02677301541094118548945988226962931623078,-0.0048191427739694133"
            "8810277880853327692154,-0.05208333333333333333333333333333333333333,8.97801094"
            "6392498484831829762264114453611,-0.02007976155820588911709491170222198717308,1"
            ".703887502683774724414591997809069697745e-50",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4", "--precision", "15"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "1.19999999999999995559107901499,0.400000000000000022204460492503,scalar,0.5,0."
            "00793274530694553815790559525567,0.0102949897584725183485865329658,0.012820545"
            "7706798194722486172736,-1.29433275315319051834705987858,-0.0059495589802091540"
            "5211006543595,1.63064006741819866874720901251e-16",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4", "--precision", "50"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "1.2,0.4,scalar,0.5,0.007932745306945536441321446598408686290601,0.010294989758"
            "4725178889597854724510957463,0.0128205457706798175791125225806107152586,-1.294"
            "332753153190659910542405183124793179,-0.00594955898020915233099108494880651471"
            "795,4.593814345470961266804047052916609479214e-52",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4", _SPATIAL, "--precision", "15"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "1.19999999999999995559107901499,0.400000000000000022204460492503,scalar,0.5,0."
            "00793274530694553815790559525567,0.0102949897584725183485865329658,0.012820545"
            "7706798194722486172736,-2.22271710206448780411392363021,-0.0059495589802091540"
            "5211006543595,6.07153216591882483044173568487e-16",
        ],
    ),
    (
        ("stress", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda", "0.4", _SPATIAL, "--precision", "50"),
        [
            "a,lambda,field,z,A,B_finite,B_div_eps2,Ttt,Tzz,trace_residual",
            "1.2,0.4,scalar,0.5,0.007932745306945536441321446598408686290601,0.010294989758"
            "4725178889597854724510957463,0.0128205457706798175791125225806107152586,-2.222"
            "717102064487794949725074813555898112,-0.00594955898020915233099108494880651471"
            "795,1.023167740582168645788174116331426656734e-50",
        ],
    ),
    (
        ("covariance", "--a", "1.2", "--lambda", "0.4", "--eps-vec=0,0.1,0,0", "--rapidity", "2", "--trials", "3", "--seed", "7", "--precision", "15"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.704668940667350529594159525004,0.94781331320260842066005579909,7.03197670"
            "006429505607110027859e-16",
            "1,0.603737892159414979431630854378,0.455130612096153241985518889123,2.22044604"
            "925031308084726333618e-15",
            "2,0.143528017226756787749764043838,2.29769122974357387079180625733,4.440892098"
            "50062616169452667236e-16",
        ],
    ),
    (
        ("covariance", "--a", "1.2", "--lambda", "0.4", "--eps-vec=0,0.1,0,0", "--rapidity", "2", "--trials", "3", "--seed", "7", "--precision", "50"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.7046689406673505295941595250042155385017,0.947813313202608420660055799089"
            "6049886942,1.336382355046097823070268233575740939408e-50",
            "1,0.603737892159414979431630854378454387188,0.45513061209615324198551888912334"
            "10686255,5.34552942018439129228107293430296375763e-51",
            "2,0.1435280172267567877497640438377857208252,2.2976912297435738707918062573298"
            "81191254,1.069105884036878258456214586860592751526e-50",
        ],
    ),
]


# And the whole covariance stdout at the dense (t != 0) splitting at 15
# digits, for both fields; _PINNED covers it at 50 and 200 digits.  The
# residual is rounding noise, so it pins how the splitting is taken
# apart into its length and unit direction, bit for bit.
_COVARIANCE_15 = ("--a", "1.2", "--lambda", "0.4", _SPLIT, "--rapidity", "2",
                  "--trials", "3", "--seed", "7", "--precision", "15")
_PINNED_ZERO_SPLITS += [
    (
        ("covariance", *_COVARIANCE_15),
        [
            "trial,rapidity,angle,residual",
            "0,-0.704668940667350529594159525004,0.94781331320260842066005579909,8.8817841970"
            "0125232338905334473e-16",
            "1,0.603737892159414979431630854378,0.455130612096153241985518889123,6.6613381477"
            "5093924254179000854e-16",
            "2,0.143528017226756787749764043838,2.29769122974357387079180625733,8.88178419700"
            "125232338905334473e-16",
        ],
    ),
    (
        ("covariance", "--field", "scalar", "--z", "0.5", *_COVARIANCE_15),
        [
            "trial,rapidity,angle,residual",
            "0,-0.704668940667350529594159525004,0.94781331320260842066005579909,1.3322676295"
            "5018784850835800171e-15",
            "1,0.603737892159414979431630854378,0.455130612096153241985518889123,6.6613381477"
            "5093924254179000854e-16",
            "2,0.143528017226756787749764043838,2.29769122974357387079180625733,8.88178419700"
            "125232338905334473e-16",
        ],
    ),
]


# The same whole stdout at 50 and 200 digits, three trials, both fields,
# recorded while each trial still built the inverse transform as a
# checked LorentzTransform and summed products as mpf expressions; the
# residuals were re-recorded when the stress coefficients came to be
# rounded once.
_COVARIANCE_DENSE = ("--a", "1.2", "--lambda", "0.4", _SPLIT, "--rapidity", "2",
                     "--trials", "3", "--seed", "7")
_PINNED_ZERO_SPLITS += [
    (
        ("covariance", *_COVARIANCE_DENSE, "--precision", "50"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.7046689406673505295941595250042155385017,0.94781331320260842066005579908960"
            "49886942,2.672764710092195646140536467151481878815e-50",
            "1,0.603737892159414979431630854378454387188,0.4551306120961532419855188891233410"
            "686255,1.603658826055317387684321880290889127289e-50",
            "2,0.1435280172267567877497640438377857208252,2.297691229743573870791806257329881"
            "191254,1.603658826055317387684321880290889127289e-50",
        ],
    ),
    (
        ("covariance", "--field", "scalar", "--z", "0.5", *_COVARIANCE_DENSE, "--precision",
         "50"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.7046689406673505295941595250042155385017,0.94781331320260842066005579908960"
            "49886942,3.207317652110634775368643760581778254578e-50",
            "1,0.603737892159414979431630854378454387188,0.4551306120961532419855188891233410"
            "686255,1.069105884036878258456214586860592751526e-50",
            "2,0.1435280172267567877497640438377857208252,2.297691229743573870791806257329881"
            "191254,1.603658826055317387684321880290889127289e-50",
        ],
    ),
    (
        ("covariance", *_COVARIANCE_DENSE, "--precision", "200"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.704668940667350529594159525004215538501739501953125,0.947813313202608420660"
            "05579908960498869419097900390625,9.798151324726952790108441295360568907696643719"
            "63159720572503481085873284033924969259268235414790155221175817064636613339305226"
            "0697332611541497323197093060823890165469216434417652539635117951e-201",
            "1,0.603737892159414979431630854378454387187957763671875,0.4551306120961532419855"
            "1888912334106862545013427734375,9.7981513247269527901084412953605689076966437196"
            "31597205725034810858732840339249692592682354147901552211758170646366133393052260"
            "697332611541497323197093060823890165469216434417652539635117951e-201",
            "2,0.1435280172267567877497640438377857208251953125,2.297691229743573870791806257"
            "329881191253662109375,3.26605044157565093003614709845352296923221457321053240190"
            "83449369529109467797498975308941180493005174039193902154553777976840868991108705"
            "1383244106569768694129672182307214480588417987837265e-201",
        ],
    ),
    (
        ("covariance", "--field", "scalar", "--z", "0.5", *_COVARIANCE_DENSE, "--precision",
         "200"),
        [
            "trial,rapidity,angle,residual",
            "0,-0.704668940667350529594159525004215538501739501953125,0.947813313202608420660"
            "05579908960498869419097900390625,8.165126103939127325090367746133807423080536433"
            "02633100477086234238227736694937474382723529512325129350979847553863844449421021"
            "7247777176284581102664244217353241804557680362014710449695931626e-201",
            "1,0.603737892159414979431630854378454387187957763671875,0.4551306120961532419855"
            "1888912334106862545013427734375,9.7981513247269527901084412953605689076966437196"
            "31597205725034810858732840339249692592682354147901552211758170646366133393052260"
            "697332611541497323197093060823890165469216434417652539635117951e-201",
            "2,0.1435280172267567877497640438377857208251953125,2.297691229743573870791806257"
            "329881191253662109375,6.53210088315130186007229419690704593846442914642106480381"
            "66898739058218935594997950617882360986010348078387804309107555953681737982217410"
            "27664882131395373882593443646144289611768359756745301e-201",
        ],
    ),
]


class TestPinnedZeroSplits:
    """Stress and covariance stdout at the splittings above, byte for byte."""

    @pytest.mark.parametrize("argv, expected", _PINNED_ZERO_SPLITS)
    def test_stdout_unchanged(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "".join(line + "\n" for line in expected)


class TestSplittingTakenApartOnce:
    """How often each CLI point forms the squared length of a splitting.

    Every squared length on the stress path is ``params._rsquare``, the
    raw Minkowski square of a four-vector; the test counts its calls.
    """

    # EM and scalar stress: the splitting's square once, and the S2
    # structure's own square of the unit direction.  A covariance trial:
    # the back-transformed splitting taken apart and assembled again; the
    # first trial also forms the sweep's one decomposition and its tensor
    # at the unmoved splitting.  scan: the splitting's square only, since
    # it prints no tensor.
    @pytest.mark.parametrize("argv, expected", [
        (("stress", "--a", "0.8:1.2:2", "--lambda", "0:0.4:2", _SPLIT), 2),
        (("stress", "--field", "scalar", "--z", "0.3:0.5:2", "--lambda", "0.4", _SPLIT), 2),
        (("covariance", "--a", "1.2", "--lambda", "0.4", _SPLIT, "--trials", "3"), (4, 2, 2)),
        (("covariance", "--field", "scalar", "--z", "0.5", _SPLIT, "--trials", "3"), (4, 2, 2)),
        (("scan", "--a", "0.8:1.2:2", "--lambda", "0:0.4:2", _SPLIT), 1),
    ])
    def test_mink_dot_calls_per_point(self, monkeypatch, argv, expected):
        counts, _ = self._squares(monkeypatch, argv)
        if isinstance(expected, int):
            expected = (expected,) * len(counts)
        assert counts and tuple(counts) == expected

    @pytest.mark.parametrize("field", [(), ("--field", "scalar", "--z", "0.5")])
    def test_covariance_sweep_forms_one_decomposition(self, monkeypatch, field):
        # A 3-trial sweep forms 8 squares: the unmoved decomposition and
        # its tensor once, and 2 per trial.  The sweep forms no length of
        # its own, since the stress takes lambda, not a cutoff.  The
        # decomposition itself is formed once per sweep.
        import casimir_cutoff.stress

        decompositions = []
        stress_for = casimir_cutoff.stress._stress_for

        def counted(*args):
            decompositions.append(None)
            return stress_for(*args)

        monkeypatch.setattr(casimir_cutoff.stress, "_stress_for", counted)
        argv = ("covariance", *field, "--a", "1.2", "--lambda", "0.4", _SPLIT, "--trials", "3")
        _, total = self._squares(monkeypatch, argv)
        assert (total, len(decompositions)) == (8, 1)

    @staticmethod
    def _squares(monkeypatch, argv) -> tuple[list[int], int]:
        # The squared lengths each point of argv's sweep forms, and those of
        # the whole sweep, grid start included.
        import casimir_cutoff.params
        import casimir_cutoff.stress

        cfg = parse_args(list(argv))
        calls = []
        square = casimir_cutoff.params._rsquare

        def counted(*args):
            calls.append(None)
            return square(*args)

        for module in (casimir_cutoff.params, casimir_cutoff.stress):
            monkeypatch.setattr(module, "_rsquare", counted)
        counts = []
        with mp.workdps(cfg.precision):
            for _, point in casimir_cutoff.cli._SUBCOMMANDS[cfg.command][2](cfg):
                before = len(calls)
                point()
                counts.append(len(calls) - before)
        return counts, len(calls)


class TestStressSeam:
    """The stress points pass a and lambda, and match the public functions.

    ``stress``, ``covariance`` and ``scan`` hand ``stress._stress_for`` a
    checked plate separation and lambda; no point builds a cutoff from
    the splitting's length.
    """

    @pytest.mark.parametrize("argv", [
        ("stress", "--a", "0.8:1.2:2", "--lambda", "0:0.4:2", _SPLIT),
        ("stress", "--field", "scalar", "--z", "0.3:0.5:2", "--lambda", "0.4", _SPLIT),
        ("covariance", "--a", "1.2", "--lambda", "0.4", _SPLIT, "--trials", "3"),
        ("covariance", "--field", "scalar", "--z", "0.5", _SPLIT, "--trials", "3"),
        ("scan", "--a", "0.8:1.2:2", "--lambda", "0:0.4:2", _SPLIT),
    ])
    def test_no_length_and_no_cutoff(self, capsys, monkeypatch, argv):
        import casimir_cutoff.params

        def refuse(*args):
            raise AssertionError("a stress point read the splitting's length or built a cutoff")

        monkeypatch.setattr(casimir_cutoff.params.SeparationVector, "length", property(refuse))
        monkeypatch.setattr(CutoffParams, "__new__", refuse)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows and all(row[-1] for row in rows)

    @pytest.mark.parametrize("dps", [15, 50, 200])
    @pytest.mark.parametrize("argv", [
        ("stress", "--a=-1:2:4", "--lambda", "0:0.9:3", _SPLIT),
        ("stress", "--a", "1.3", "--lambda=-0.5:1:4", "--eps-vec=0,0.07,0,0"),
        ("stress", "--field", "scalar", "--a", "1.3", "--z=-0.1:1.3:5", "--lambda", "0:0.8:3",
         _SPLIT),
        ("stress", "--a", "1:2:2", "--lambda", "0:0.4:2", "--eps-vec=1,1.000000001,0,0"),
    ])
    def test_points_match_the_public_functions(self, argv, dps):
        # Bit for bit, and the same error where a point fails, against
        # em_stress and scalar_stress with CutoffParams(s, lambda).
        from casimir_cutoff.stress import em_stress, scalar_stress

        def outcome(f):
            try:
                values = f()
            except CasimirError as exc:
                return type(exc), str(exc)
            return tuple(v._mpf_ for v in values)

        def library(a, lam, z):
            geom, cutoff = PlateGeometry(a), CutoffParams(cfg.split.length, lam)
            if cfg.field is FieldKind.SCALAR:
                d = scalar_stress(geom, cutoff, cfg.split, z)
            else:
                d = em_stress(geom, cutoff, cfg.split)
            t = d.tensor()
            return d.A, d.B_finite, d.B_divergent_eps2, t[0, 0], t[3, 3], abs(t.trace())

        cfg = parse_args([*argv, "--precision", str(dps)])
        with mp.workdps(cfg.precision):
            points = list(casimir_cutoff.cli._SUBCOMMANDS["stress"][2](cfg))
            for (a, lam, _, z), point in points:
                assert outcome(point) == outcome(lambda: library(a, lam, z))
        assert len(points) >= 4


# Covariance sweeps whose every trial fails: a scalar height on the wall
# and a splitting inside the lightlike margin.  Each row keeps its
# inputs with the residual empty, and the run exits 2.
_COVARIANCE_FAILURES = [
    (
        ("covariance", "--field", "scalar", "--z", "0", "--a", "1", "--trials", "3"),
        [
            "trial,rapidity,angle,residual",
            "0,0.6888437030500962343637638696236535906792,"
            "4.762367968066584467123902868479490280151,",
            "1,-0.1588568383383099913430669403169304132462,"
            "1.626821921223433164982452581170946359634,",
            "2,0.02254944273721704028901058336487039923668,"
            "2.544276222803881992717833782080560922623,",
        ],
    ),
    (
        ("covariance", "--eps-vec=1,1.000000001,0,0", "--precision", "15", "--trials", "3"),
        [
            "trial,rapidity,angle,residual",
            "0,0.688843703050096234363763869624,4.76236796806658446712390286848,",
            "1,-0.158856838338309991343066940317,1.62682192122343316498245258117,",
            "2,0.0225494427372170402890105833649,2.54427622280388199271783378208,",
        ],
    ),
]


class TestCovarianceSweepFailures:
    """A sweep whose shared decomposition fails empties every row and exits 2."""

    @pytest.mark.parametrize("argv, expected", _COVARIANCE_FAILURES, ids=["wall", "lightlike"])
    def test_every_row_empty(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "".join(line + "\n" for line in expected), "")


# One sweep per command, with failed points (empty cells) and single-row
# grids among them.
_EMIT_CASES = [
    ("energy-sum", "--a", "0:1:2", "--epsilon", "0.2", "--n-max", "20"),
    ("energy-sum", "--a", "1", "--epsilon", "0.2", "--n-max", "20"),
    ("energy-expansion", "--a", "0:1:3", "--lambda", "0:0.5:2", "--field", "scalar"),
    ("pressure", "--a", "0:2:3", "--lambda", "0.3"),
    ("pressure", "--a", "1"),
    ("stress", "--field", "scalar", "--a", "1", "--z", "0:1:3", "--lambda", "0.4"),
    ("stress", "--a", "1"),
    ("covariance", "--field", "scalar", "--z", "0", "--a", "1", "--trials", "2"),
    ("covariance", "--a", "1", "--trials", "1"),
    ("scan", "--a", "0:1:2", "--lambda", "0.4", "--precision", "15"),
]


class TestEmit:
    """CSV is joined by hand, with the bytes the csv module writes."""

    def test_every_row_has_two_cells_or_more(self):
        # csv quotes a row whose only cell is empty; no command has one.
        assert all(len(i) + len(o) >= 2 for i, o, _ in casimir_cutoff.cli._SUBCOMMANDS.values())

    @pytest.mark.parametrize("argv", _EMIT_CASES, ids=lambda argv: " ".join(argv))
    def test_csv_matches_csv_writer(self, capsys, tmp_path, argv):
        cfg = parse_args(list(argv))
        inputs, outputs, grid = casimir_cutoff.cli._SUBCOMMANDS[cfg.command]
        header = inputs + outputs
        with mp.workdps(cfg.precision):
            rows, _ = casimir_cutoff.cli._sweep(cfg, len(outputs), grid)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row] for row in rows)
        casimir_cutoff.cli._emit(cfg, header, rows)
        assert capsys.readouterr().out == buf.getvalue()
        target = tmp_path / "out.csv"
        casimir_cutoff.cli._emit(cfg._replace(output=str(target)), header, rows)
        assert target.read_text() == buf.getvalue()

    @pytest.mark.parametrize("argv", _EMIT_CASES, ids=lambda argv: " ".join(argv))
    def test_json_carries_the_csv_cells(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        header, rows = parse_csv(out)
        # A failed point's outputs are null in JSON; an input is never null,
        # though the EM stress prints its z as an empty string.
        width = len(casimir_cutoff.cli._SUBCOMMANDS[argv[0]][0])
        objects = [dict(zip(header, row[:width] + [v or None for v in row[width:]]))
                   for row in rows]
        assert json_code == code
        assert json_out == json.dumps(objects[0] if len(objects) == 1 else objects, indent=2) + "\n"


class TestCovarianceTrialChecks:
    """Metric checks per CLI covariance trial."""

    # rotation_xy, boost and their composition, each checked once; the
    # splitting is moved back by g L^T g without building a transform.
    @pytest.mark.parametrize("field", [(), ("--field", "scalar", "--z", "0.5")])
    def test_three_metric_checks_per_trial(self, monkeypatch, field):
        import casimir_cutoff.minkowski

        cfg = parse_args(["covariance", *field, "--a", "1.2", "--lambda", "0.4", _SPLIT,
                          "--rapidity", "2", "--trials", "3", "--seed", "7"])
        calls = []
        check = casimir_cutoff.minkowski._check_metric

        def counted(*args):
            calls.append(None)
            return check(*args)

        monkeypatch.setattr(casimir_cutoff.minkowski, "_check_metric", counted)
        counts = []
        with mp.workdps(cfg.precision):
            for _, point in casimir_cutoff.cli._SUBCOMMANDS[cfg.command][2](cfg):
                calls.clear()
                point()
                counts.append(len(calls))
        assert counts == [3, 3, 3]


# Whole stdout and exit code of energy-expansion and scan at 15 and 200
# digits, both fields, lambda from 0 to 0.999, a separation of 0 (exit-2
# rows) and one JSON run.  Recorded while both subcommands still read
# their coefficients from a built and subtracted Laurent window, and
# re-recorded at 15 digits when each closed form came to be rounded once.
_PINNED_ENERGY_ROUTE = [
    (
        ("energy-expansion", "--a", "0:1:3", "--lambda", "0:0.999:3", "--precision",
         "15"),
        2,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.0,0.0,,,,,",
            "0.0,0.49949999999999999955591079015,,,,,",
            "0.0,0.9989999999999999991118215803,,,,,",
            "0.5,0.0,0.0,0.0,-0.109662271123215096513270339074,0.0,-0.109662271123215096513"
            "270339074",
            "0.5,0.49949999999999999955591079015,0.0,-0.0832500000000000045519144009631,-0."
            "0959955694748405308214245224008,-0.0832500000000000045519144009631,-0.09599556"
            "94748405308214245224008",
            "0.5,0.9989999999999999991118215803,0.0,-0.166500000000000009103828801926,-0.00"
            "0328657936218547071845902385334,-0.166500000000000009103828801926,-0.000328657"
            "936218547071845902385334",
            "1.0,0.0,0.0,0.0,-0.0137077838904018870641587923842,0.0,-0.01370778389040188706"
            "41587923842",
            "1.0,0.49949999999999999955591079015,0.0,-0.0416250000000000022759572004816,-0."
            "0119994461843550663526780653001,-0.0416250000000000022759572004816,-0.01199944"
            "61843550663526780653001",
            "1.0,0.9989999999999999991118215803,0.0,-0.0832500000000000045519144009631,-0.0"
            "000410822420273183839807377981668,-0.0832500000000000045519144009631,-0.000041"
            "0822420273183839807377981668",
        ],
    ),
    (
        ("energy-expansion", "--a", "0:1:3", "--lambda", "0:0.999:3", "--field",
         "scalar", "--precision", "15"),
        2,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.0,0.0,,,,,",
            "0.0,0.49949999999999999955591079015,,,,,",
            "0.0,0.9989999999999999991118215803,,,,,",
            "0.5,0.0,0.0,0.0,-0.0548311355616075482566351695368,0.0,-0.05483113556160754825"
            "66351695368",
            "0.5,0.49949999999999999955591079015,0.0,-0.0416250000000000022759572004816,-0."
            "0479977847374202654107122612004,-0.0416250000000000022759572004816,-0.04799778"
            "47374202654107122612004",
            "0.5,0.9989999999999999991118215803,0.0,-0.0832500000000000045519144009631,-0.0"
            "00164328968109273535922951192667,-0.0832500000000000045519144009631,-0.0001643"
            "28968109273535922951192667",
            "1.0,0.0,0.0,0.0,-0.0068538919452009435320793961921,0.0,-0.00685389194520094353"
            "20793961921",
            "1.0,0.49949999999999999955591079015,0.0,-0.0208125000000000011379786002408,-0."
            "00599972309217753317633903265005,-0.0208125000000000011379786002408,-0.0059997"
            "2309217753317633903265005",
            "1.0,0.9989999999999999991118215803,0.0,-0.0416250000000000022759572004816,-0.0"
            "000205411210136591919903688990834,-0.0416250000000000022759572004816,-0.000020"
            "5411210136591919903688990834",
        ],
    ),
    (
        ("energy-expansion", "--a", "0:1:2", "--lambda", "0:0.999:2", "--precision",
         "200"),
        2,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.0,0.0,,,,,",
            "0.0,0.999,,,,,",
            "1.0,0.0,0.0,0.0,-0.01370778389040188697060345972205020991015791584338998698112"
            "965191141672892002667394861357417183132254420003599135280992233023937239170839"
            "823279252455275721897359777757806468837579375839060117,0.0,-0.0137077838904018"
            "869706034597220502099101579158433899869811296519114167289200266739486135741718"
            "313225442000359913528099223302393723917083982327925245527572189735977775780646"
            "8837579375839060117",
            "1.0,0.999,0.0,-0.08325,-0.0000410822420273183456527855393904442011509531839405"
            "556343724325479081678479900488618506688304065526454962900520661203626900336497"
            "2929732246121207742887713793802109151299923744912694226969039009,-0.08325,-0.0"
            "000410822420273183456527855393904442011509531839405556343724325479081678479900"
            "488618506688304065526454962900520661203626900336497292973224612120774288771379"
            "3802109151299923744912694226969039009",
        ],
    ),
    (
        ("energy-expansion", "--a", "0:1:2", "--lambda", "0:0.999:2", "--field",
         "scalar", "--precision", "200"),
        2,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.0,0.0,,,,,",
            "0.0,0.999,,,,,",
            "1.0,0.0,0.0,0.0,-0.00685389194520094348530172986102510495507895792169499349056"
            "482595570836446001333697430678708591566127210001799567640496116511968619585419"
            "9116396262276378609486798888789032344187896879195300584,0.0,-0.006853891945200"
            "943485301729861025104955078957921694993490564825955708364460013336974306787085"
            "915661272100017995676404961165119686195854199116396262276378609486798888789032"
            "344187896879195300584",
            "1.0,0.999,0.0,-0.041625,-0.000020541121013659172826392769695222100575476591970"
            "277817186216273954083923995024430925334415203276322748145026033060181345016824"
            "86464866123060603871443856896901054575649961872456347113484519504,-0.041625,-0"
            ".00002054112101365917282639276969522210057547659197027781718621627395408392399"
            "502443092533441520327632274814502603306018134501682486464866123060603871443856"
            "896901054575649961872456347113484519504",
        ],
    ),
    (
        ("scan", "--a", "0:1:3", "--lambda", "0:0.999:3", "--precision", "15"),
        2,
        [
            "a,lambda,c_m2,c_0,finite_part,divergent_coeff,A,B_finite,B_div_eps2",
            "0.0,0.0,,,,,,,",
            "0.0,0.49949999999999999955591079015,,,,,,,",
            "0.0,0.9989999999999999991118215803,,,,,,,",
            "0.5,0.0,0.0,-0.109662271123215096513270339074,-0.65797362673929060683519765007"
            "1,0.0,0.877298168985720772106162712589,0.0,0.0",
            "0.5,0.49949999999999999955591079015,-0.0832500000000000045519144009631,-0.0959"
            "955694748405308214245224008,-0.575973416849043129417395903147,-0.1665000000000"
            "00009103828801926,0.439087733577353256375630508046,-0.041109602777671373774470"
            "708895,-0.0832500000000000045519144009631",
            "0.5,0.9989999999999999991118215803,-0.166500000000000009103828801926,-0.000328"
            "657936218547071845902385334,-0.00197194761731128232265519706345,-0.33300000000"
            "0000018207657603853,0.000877298168985721563140067758013,-0.0002189956650953318"
            "76453393915583,-0.166500000000000009103828801926",
            "1.0,0.0,0.0,-0.0137077838904018870641587923842,-0.0411233516712056629271998531"
            "294,0.0,0.0548311355616075482566351695368,0.0,0.0",
            "1.0,0.49949999999999999955591079015,-0.0416250000000000022759572004816,-0.0119"
            "994461843550663526780653001,-0.0359983385530651955885872439467,-0.041625000000"
            "0000022759572004816,0.0274429833485845785234769067529,-0.002569350173604460860"
            "90441930594,-0.0208125000000000011379786002408",
            "1.0,0.9989999999999999991118215803,-0.0832500000000000045519144009631,-0.00004"
            "10822420273183839807377981668,-0.000123246726081955145165949816466,-0.08325000"
            "00000000045519144009631,0.0000548311355616075976962542348758,-0.00001368722906"
            "84582422783371197239,-0.0416250000000000022759572004816",
        ],
    ),
    (
        ("scan", "--a", "0:1:2", "--lambda", "0:0.999:2", "--precision", "200"),
        2,
        [
            "a,lambda,c_m2,c_0,finite_part,divergent_coeff,A,B_finite,B_div_eps2",
            "0.0,0.0,,,,,,,",
            "0.0,0.999,,,,,,,",
            "1.0,0.0,0.0,-0.013707783890401886970603459722050209910157915843389986981129651"
            "911416728920026673948613574171831322544200035991352809922330239372391708398232"
            "79252455275721897359777757806468837579375839060117,-0.041123351671205660911810"
            "379166150629730473747530169960943388955734250186760080021845840722515493967632"
            "600107974058429766990718117175125194698377573658271656920793332734194065127381"
            "2751718035,0.0,0.0548311355616075478824138388882008396406316633735599479245186"
            "076456669156801066957944542966873252901768001439654112396893209574895668335929"
            "3117009821102887589439111031225875350317503356240467,0.0,0.0",
            "1.0,0.999,-0.08325,-0.00004108224202731834565278553939044420115095318394055563"
            "437243254790816784799004886185066883040655264549629005206612036269003364972929"
            "732246121207742887713793802109151299923744912694226969039009,-0.00012324672608"
            "195503695835661817133260345285955182166690311729764372450354397014658555200649"
            "121965793648887015619836108807010094918789196738363623228663141381406327453899"
            "77123473808268090711703,-0.08325,0.0000548311355616075478824138388882008396406"
            "316633735599479245186076456669156801066957944542966873252901768001439654112396"
            "8932095748956683359293117009821102887589439111031225875350317503356240467,-0.0"
            "000136872290684582293410910398341969956203976340485828236956514479983755595350"
            "110939510276281173606614760450080373837763838517051784528070314896424521621903"
            "5952374686771058638037557425564989446,-0.041625",
        ],
    ),
    (
        ("scan", "--a", "1", "--lambda", "0:0.999:2", "--format", "json", "--precision",
         "15"),
        0,
        [
            "[",
            "  {",
            '    "a": "1.0",',
            '    "lambda": "0.0",',
            '    "c_m2": "0.0",',
            "    \"c_0\": \"-0.0137077838904018870641587923842\",",
            "    \"finite_part\": \"-0.0411233516712056629271998531294\",",
            '    "divergent_coeff": "0.0",',
            "    \"A\": \"0.0548311355616075482566351695368\",",
            '    "B_finite": "0.0",',
            '    "B_div_eps2": "0.0"',
            "  },",
            "  {",
            '    "a": "1.0",',
            '    "lambda": "0.9989999999999999991118215803",',
            '    "c_m2": "-0.0832500000000000045519144009631",',
            "    \"c_0\": \"-0.0000410822420273183839807377981668\",",
            "    \"finite_part\": \"-0.000123246726081955145165949816466\",",
            '    "divergent_coeff": "-0.0832500000000000045519144009631",',
            "    \"A\": \"0.0000548311355616075976962542348758\",",
            "    \"B_finite\": \"-0.0000136872290684582422783371197239\",",
            "    \"B_div_eps2\": \"-0.0416250000000000022759572004816\"",
            "  }",
            "]",
        ],
    ),

]


class TestPinnedEnergyRoute:
    """energy-expansion and scan stdout, byte for byte, at 15 and 200 digits."""

    @pytest.mark.parametrize("argv, expected_code, expected", _PINNED_ENERGY_ROUTE)
    def test_stdout_unchanged(self, capsys, argv, expected_code, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert out == "".join(line + "\n" for line in expected)


class TestRoundedOnce:
    """Printed closed forms that one rounding of the exact value makes equal."""

    @pytest.mark.parametrize("dps", ["15", "50", "200"])
    @pytest.mark.parametrize("field", ["em", "scalar"])
    def test_energy_coefficients_equal_their_references(self, capsys, dps, field):
        # c_m2 = -lambda/12a and c_0 = -(1 - lambda^3) pi^2/720a^3 are the
        # same exact values as the transcribed c_m2_ref and c_0_ref, so they
        # print the same digits, up to lambda = 0.999999 where 1 - lambda^3
        # cancels.
        code, out, _ = run_cli(
            capsys, "energy-expansion", "--a", "1e-3:1e3:4", "--lambda", "0:0.999999:5",
            "--field", field, "--precision", dps,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 20
        for row in rows:
            cell = dict(zip(header, row))
            assert (cell["c_m2"], cell["c_0"]) == (cell["c_m2_ref"], cell["c_0_ref"]), row

    @pytest.mark.parametrize("dps", ["15", "50", "200"])
    @pytest.mark.parametrize(
        "a, fraction", [(1.0, 2.0**-40), (1.0, 0.375), (2.5, 2.0**-30)],
        ids=["1-2^-40", "1-0.375", "2.5-2^-30"],
    )
    def test_scalar_stress_is_the_same_at_mirror_heights(self, capsys, dps, a, fraction):
        # sin(pi z/a) is taken from the nearer wall, and a - z is exact, so
        # the heights z and a - z give the same bits in every column after z.
        # Both heights are exact binary values, printed in full.
        z = a * fraction
        cells = []
        for height in (z, a - z):
            code, out, _ = run_cli(
                capsys, "stress", "--field", "scalar", "--a", str(a), "--lambda", "0.5",
                "--z", str(Decimal(height)), "--precision", dps,
            )
            assert code == 0
            cells.append(parse_csv(out)[1][0][4:])
        assert cells[0] == cells[1]


class TestOutputs:
    """Schemas, values, and round-trip precision."""

    def test_order_is_an_unrecognised_flag(self, capsys):
        # No command reads a series order, so the CLI has no --order flag.
        code, out, err = run_cli(capsys, "energy-expansion", "--a", "1", "--order", "4")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --order 4" in err

    def test_pressure_json_object(self, capsys):
        code, out, _ = run_cli(
            capsys, "pressure", "--a", "1", "--lambda", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, dict)
        assert abs(mpf(payload["finite_part"]) + pi**2 / 240) < mpf("1e-30")
        assert abs(mpf(payload["divergent_coeff"])) < mpf("1e-30")
        assert abs(mpf(payload["finite_part"]) + mpf("0.04112335")) < mpf("1e-8")

    def test_pressure_json_array_for_grids(self, capsys):
        code, out, _ = run_cli(
            capsys, "pressure", "--a", "1:2:2", "--lambda", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 2

    def test_stress_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "stress", "--a", "1", "--lambda", "0", "--eps-vec", "0,0.1,0,0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "a", "lambda", "field", "z",
            "A", "B_finite", "B_div_eps2", "Ttt", "Tzz", "trace_residual",
        ]
        row = dict(zip(header, rows[0]))
        assert abs(mpf(row["A"]) - pi**2 / 180) < mpf("1e-30")
        assert abs(mpf(row["A"]) - mpf("0.05483114")) < mpf("1e-8")
        assert abs(mpf(row["B_finite"])) < mpf("1e-30")
        assert abs(mpf(row["B_div_eps2"])) < mpf("1e-30")
        assert abs(mpf(row["Tzz"]) + pi**2 / 240) < mpf("1e-30")
        assert mpf(row["trace_residual"]) < mpf("1e-28")

    def test_energy_sum_row_consistent_with_module(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy-sum", "--a", "1", "--lambda", "0.5", "--epsilon", "0.1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["a", "lambda", "epsilon", "n_max", "energy", "remainder_bound"]
        row = dict(zip(header, rows[0]))
        exact = energy_closed_form(PlateGeometry(1), CutoffParams(mpf("0.1"), mpf("0.5")))
        assert abs(mpf(row["energy"]) - exact) <= mpf(row["remainder_bound"]) + mpf("1e-35")
        assert int(row["n_max"]) >= 1

    def test_energy_expansion_matches_references(self, capsys):
        code, out, _ = run_cli(capsys, "energy-expansion", "--a", "1", "--lambda", "0.3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["a", "lambda", "c_m4", "c_m2", "c_0", "c_m2_ref", "c_0_ref"]
        row = dict(zip(header, rows[0]))
        assert abs(mpf(row["c_m4"])) < mpf("1e-30")
        assert abs(mpf(row["c_m2"]) - mpf(row["c_m2_ref"])) < mpf("1e-30")
        assert abs(mpf(row["c_0"]) - mpf(row["c_0_ref"])) < mpf("1e-30")

    def test_scalar_expansion_references_halved(self, capsys):
        _, em_out, _ = run_cli(capsys, "energy-expansion", "--a", "1", "--lambda", "0.4")
        _, sc_out, _ = run_cli(
            capsys, "energy-expansion", "--a", "1", "--lambda", "0.4", "--field", "scalar"
        )
        header, rows = parse_csv(sc_out)
        sc_row = dict(zip(header, rows[0]))
        em_header, em_rows = parse_csv(em_out)
        em_row = dict(zip(em_header, em_rows[0]))
        assert abs(mpf(sc_row["c_0_ref"]) - mpf(em_row["c_0_ref"]) / 2) < mpf("1e-40")
        assert abs(mpf(sc_row["c_0"]) - mpf(sc_row["c_0_ref"])) < mpf("1e-30")

    def test_round_trip_digits(self, capsys):
        # Emitted numbers re-parse to the module value to well past 30
        # significant digits.
        code, out, _ = run_cli(capsys, "pressure", "--a", "1.5", "--lambda", "0.7")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        exact = casimir_pressure(mpf("1.5"), mpf("0.7"))
        assert abs(mpf(row["finite_part"]) - exact.finite_part) < mpf("1e-35") * abs(
            exact.finite_part
        )
        assert abs(mpf(row["divergent_coeff"]) - exact.divergent_coeff) < mpf(
            "1e-35"
        ) * abs(exact.divergent_coeff)

    def test_scan_grid_shape(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys,
            "scan", "--a", "0.5:2.0:4", "--lambda", "0:0.9:10",
            "--output", str(out_file),
        )
        assert code == 0
        assert out == ""
        text = out_file.read_text()
        header, rows = parse_csv(text)
        assert header == [
            "a", "lambda", "c_m2", "c_0", "finite_part", "divergent_coeff",
            "A", "B_finite", "B_div_eps2",
        ]
        assert len(rows) == 40

    def test_scan_builds_one_expansion_per_point(self, capsys, monkeypatch):
        # The energy and pressure columns share one evaluation of the two
        # reported coefficients per point, and no Laurent window is built.
        args = ("scan", "--a", "0.5:1.5:2", "--lambda", "0:0.6:3")
        _, before, _ = run_cli(capsys, *args)
        evaluations, builds = [], []
        reported = casimir_cutoff.expansion._reported_coefficients

        def counted(*a, **kw):
            evaluations.append(a)
            return reported(*a, **kw)

        def built(*a, **kw):
            builds.append(a)
            return energy_laurent(*a, **kw)

        # scan reads both from the expansion module when it runs.
        monkeypatch.setattr(casimir_cutoff.expansion, "_reported_coefficients", counted)
        monkeypatch.setattr(casimir_cutoff.expansion, "energy_laurent", built)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert len(evaluations) == 6
        assert builds == []
        assert out == before
        header, rows = parse_csv(out)
        for row in (dict(zip(header, r)) for r in rows):
            a = mpf(row["a"])
            p = casimir_pressure(a, mpf(row["lambda"]))
            assert abs(mpf(row["finite_part"]) - p.finite_part) < mpf("1e-35")
            assert abs(mpf(row["divergent_coeff"]) - p.divergent_coeff) < mpf("1e-35")
            assert abs(mpf(row["finite_part"]) - 3 * mpf(row["c_0"]) / a) < mpf("1e-35")
            assert abs(mpf(row["divergent_coeff"]) - mpf(row["c_m2"]) / a) < mpf("1e-35")

    def test_energy_routes_build_no_window(self, capsys, monkeypatch):
        # energy-expansion and scan print the same without the window
        # route: none of its functions is called.
        grid = ("--a", "0:1:3", "--lambda", "0:0.999:3")
        runs = [("scan", *grid)] + [
            ("energy-expansion", *grid, "--field", field) for field in ("em", "scalar")
        ]

        def window_route(*a, **kw):
            raise AssertionError("the CLI built a Laurent window")

        with monkeypatch.context() as patched:
            for name in ("energy_laurent", "subtract_outer"):
                patched.setattr(casimir_cutoff.expansion, name, window_route)
            without = [run_cli(capsys, *argv)[:2] for argv in runs]
        assert without == [run_cli(capsys, *argv)[:2] for argv in runs]
        assert {code for code, _ in without} == {2}

    def test_covariance_residuals_and_determinism(self, capsys):
        args = (
            "covariance", "--a", "1", "--lambda", "0.5", "--rapidity", "1.0",
            "--trials", "5", "--seed", "42",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header, rows = parse_csv(out1)
        assert header == ["trial", "rapidity", "angle", "residual"]
        assert len(rows) == 5
        assert all(mpf(r[3]) <= mpf("1e-25") for r in rows)
        _, out3, _ = run_cli(capsys, *args[:-1], "7")
        assert out3 != out1

    def test_covariance_scalar_field(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "covariance", "--field", "scalar", "--z", "0.3", "--lambda", "0.4",
            "--trials", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(mpf(r[3]) <= mpf("1e-25") for r in rows)

    def test_precision_flag_changes_digit_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "pressure", "--a", "1", "--lambda", "0.3", "--precision", "80"
        )
        assert code == 0
        _, rows = parse_csv(out)
        finite = rows[0][3]
        mantissa = finite.lstrip("-0.").replace(".", "")
        assert len(mantissa) >= 60


class TestPrecisionScope:
    """The working precision applies inside a call and is never left set."""

    def test_import_leaves_precision_alone(self):
        env = {k: v for k, v in os.environ.items() if k != "CASIMIR_PRECISION"}
        env["PYTHONPATH"] = str(Path(casimir_cutoff.cli.__file__).parents[1])
        probe = "import casimir_cutoff, mpmath; print(mpmath.mp.dps)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "15\n"

    def test_main_restores_caller_precision(self, capsys):
        args = ("pressure", "--lambda", "0.3", "--precision", "80")
        _, expected, _ = run_cli(capsys, *args)
        with mp.workdps(20):
            code, out, _ = run_cli(capsys, *args)
            assert mp.dps == 20
        assert code == 0
        assert out == expected
        assert mp.dps == 50

    def test_parse_args_values_at_requested_precision(self):
        cfg = parse_args(["pressure", "--a", "0.1", "--lambda", "0:0.3:4", "--precision", "80"])
        assert mp.dps == 50
        assert cfg.precision == 80
        assert cfg.a_values[0] != mpf("0.1")
        with mp.workdps(80):
            assert cfg.a_values == (mpf("0.1"),)
            assert cfg.lam_values[1] == mpf("0.3") / 3


class TestRunConfigDirectly:
    """run() with a hand-built config."""

    def test_json_null_for_failed_points(self, capsys):
        cfg = parse_args(
            ["stress", "--field", "scalar", "--z", "0:0.5:2", "--lambda", "0.5",
             "--format", "json"]
        )
        code = run(cfg)
        out = capsys.readouterr().out
        assert code == 2
        payload = json.loads(out)
        assert payload[0]["A"] is None
        assert payload[1]["A"] is not None
