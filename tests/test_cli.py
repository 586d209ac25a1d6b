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
from pathlib import Path

import pytest
from mpmath import mp, mpf, pi

import casimir_cutoff.cli
import casimir_cutoff.expansion
from casimir_cutoff.cli import COMMANDS, ScanConfig, UsageError, main, parse_args, run
from casimir_cutoff.expansion import casimir_pressure, energy_laurent
from casimir_cutoff.modesum import (
    CutoffParams,
    FieldKind,
    PlateGeometry,
    energy_closed_form,
)


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

    def test_infinite_range_endpoint_keeps_start(self):
        # The first point is start itself, not start + 0 * inf = NaN.
        cfg = parse_args(["pressure", "--a", "1:inf:2", "--epsilon", "2:-inf:3"])
        assert cfg.a_values == (mpf(1), mpf("inf"))
        assert cfg.eps_values[:2] == (mpf(2), mpf("-inf"))

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
         "--eps-vec=0,nan,0,0", "--rapidity=nan"],
    )
    def test_nan_is_a_usage_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag.split('=')[0]}: ")

    @pytest.mark.parametrize("epsilon", ["inf", "0.1:inf:2"])
    def test_infinite_epsilon_row_exits_two(self, capsys, epsilon):
        code, out, err = run_cli(capsys, "energy-sum", "--epsilon", epsilon)
        assert code == 2
        assert err == ""
        _, rows = parse_csv(out)
        assert rows[-1] == ["1.0", "0.0", "+inf", "", "", ""]
        assert all(v != "" for row in rows[:-1] for v in row)

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_rapidity_is_a_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "covariance", f"--rapidity={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --rapidity: ")

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
# may get faster but must not change a digit.
_SPLIT = "--eps-vec=0.01,0.1,0.02,0"
_PINNED = [
    (
        ("covariance", "--a", "1.2", "--lambda", "0.4", _SPLIT, "--rapidity", "2",
         "--trials", "3", "--seed", "7"),
        "residual",
        [
            "3.207317652110634775368643760581778254578e-50",
            "8.018294130276586938421609401454445636446e-51",
            "1.603658826055317387684321880290889127289e-50",
        ],
    ),
    (
        ("covariance", "--field", "scalar", "--a", "1.2", "--z", "0.5", "--lambda",
         "0.4", _SPLIT, "--rapidity", "2", "--trials", "2", "--seed", "7"),
        "residual",
        [
            "2.672764710092195646140536467151481878815e-50",
            "5.34552942018439129228107293430296375763e-51",
        ],
    ),
    (
        ("covariance", "--precision", "200", "--a", "1.2", "--lambda", "0.4", _SPLIT,
         "--rapidity", "2", "--trials", "2", "--seed", "7"),
        "residual",
        [
            "8.165126103939127325090367746133807423080536433026331004770862342382277"
            "366949374743827235295123251293509798475538638444494210217247777176284"
            "581102664244217353241804557680362014710449695931626e-201",
            "6.532100883151301860072294196907045938464429146421064803816689873905821"
            "893559499795061788236098601034807838780430910755595368173798221741027"
            "664882131395373882593443646144289611768359756745301e-201",
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
            "1.002286766284573367302701175181805704556e-51",
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
            "1.2,0.45,0.05,1062,216594.0658845397815771958942818714263804,2.1411612385113"
            "51641801650935581790818176e-25",
            "1.2,0.45,0.2,266,845.3310310151447540575861452285594466223,6.522318302498951"
            "894896262778423770689283e-28",
        ],
    ),
    (
        ("--a", "1.2", "--lambda", "0.45", "--epsilon", "0.05:0.2:2"),
        "scalar",
        [
            "1.2,0.45,0.05,1062,107660.4131699023094455224120874456557421,1.0705806192556"
            "75820855564640479490858748e-25",
            "1.2,0.45,0.2,266,412.718331564328918543237837403497575684,3.2611591512494759"
            "47270001958416296477584e-28",
        ],
    ),
    (
        ("--a", "0.7", "--lambda", "0.3", "--epsilon", "0.1", "--precision", "100"),
        "em",
        [
            "0.7,0.3,0.1,243,4524.8267179527782266809407298203189790945183635539549411440"
            "5572021960370023766366940944178,0.000000000000000000000000003774934901936956"
            "14866942476933255214406219048566437926569452656690329084484422853506024452",
        ],
    ),
    (
        ("--a", "0.7", "--lambda", "0.3", "--epsilon", "0.1", "--precision", "100"),
        "scalar",
        [
            "0.7,0.3,0.1,243,2182.8358874304414454560284832239023085300293589067492461981"
            "9418808035345130171856715966399,0.000000000000000000000000001887467450968478"
            "07433471238466627607203109524283218963284726328345164472603988243159772316",
        ],
    ),
    (
        ("--a", "1.5", "--lambda", "0.8", "--epsilon", "0.2", "--precision", "200"),
        "em",
        [
            "1.5,0.8,0.2,918,14722.121406098716874849514252181422576768832768300129543571"
            "3821895417196015198033954992846941676559445444037319193793113167557939237856"
            "9466097156340665899869536577132211164217478050513747764,0.000000000000000000"
            "0000000138478766283088848312895274155212212899587649900830149157627044272675"
            "3179021055931429371249332862950553456969043500763208217007414766076485683888"
            "129037304199917597134921209971093639222192825",
        ],
    ),
    (
        ("--a", "1.5", "--lambda", "0.8", "--epsilon", "0.2", "--precision", "200"),
        "scalar",
        [
            "1.5,0.8,0.2,918,7351.1135191061149789392018908799291407572626562912862437389"
            "6188576717875090776253930651023441093715439994731328926728328107208997151068"
            "616468090874015876810773105816312223302004193520958901,0.0000000000000000000"
            "0000000692393831415444241564476370776061064497938249504150745788135221363376"
            "5895105279657146856246664314752767284845217503816041085037073830382428419440"
            "645186520999587985674606012494263009306763541",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "1"),
        "em",
        [
            "1.3,0.2,0.003,1,17700988.23598299381823308241698986174994,+inf",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "1"),
        "scalar",
        [
            "1.3,0.2,0.003,1,5903180.357030472172655730775670590837295,+inf",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "200"),
        "em",
        [
            "1.3,0.2,0.003,200,2577811424.318870950337506365692306019161,+inf",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "200"),
        "scalar",
        [
            "1.3,0.2,0.003,200,1285958398.398474450432292372413328669543,+inf",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "20000"),
        "em",
        [
            "1.3,0.2,0.003,20000,7749583705.543876548409107698785206224379,1.128019553730"
            "489655665545901180915659891e-36",
        ],
    ),
    (
        ("--a", "1.3", "--lambda", "0.2", "--epsilon", "0.003", "--n-max", "20000"),
        "scalar",
        [
            "1.3,0.2,0.003,20000,3871844539.010977249468093038959778772152,5.636158636673"
            "70491899231452452313860149e-37",
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


# Whole stdout and exit code of the other sweeps, recorded when each
# subcommand still had its own hand-written runner: failed points
# (empty CSV cells, JSON null), the EM stress "z" cell, JSON objects
# and arrays.  However the sweep is driven, no byte moves.
_PINNED_SWEEPS = [
    (
        ("energy-expansion", "--a", "0.5:1.5:2", "--lambda", "0:0.6:2"),
        0,
        [
            "a,lambda,c_m4,c_m2,c_0,c_m2_ref,c_0_ref",
            "0.5,0.0,0.0,3.340955887615244557675670583939352348519e-52,-0.109662271123215"
            "0957648276777764016792813,0.0,-0.1096622711232150957648276777764016792813",
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
        ("energy-expansion", "--a", "1", "--lambda", "0.4", "--field", "scalar",
         "--order", "6"),
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


class TestOutputs:
    """Schemas, values, and round-trip precision."""

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
        # The energy and pressure columns share one subtracted expansion.
        args = ("scan", "--a", "0.5:1.5:2", "--lambda", "0:0.6:3")
        _, before, _ = run_cli(capsys, *args)
        builds = []

        def counted(*a, **kw):
            builds.append(a)
            return energy_laurent(*a, **kw)

        for module in (casimir_cutoff.cli, casimir_cutoff.expansion):
            monkeypatch.setattr(module, "energy_laurent", counted)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert len(builds) == 6
        assert out == before
        header, rows = parse_csv(out)
        for row in (dict(zip(header, r)) for r in rows):
            p = casimir_pressure(mpf(row["a"]), mpf(row["lambda"]))
            assert abs(mpf(row["finite_part"]) - p.finite_part) < mpf("1e-35")
            assert abs(mpf(row["divergent_coeff"]) - p.divergent_coeff) < mpf("1e-35")

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
