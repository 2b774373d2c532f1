"""Tests for the command-line interface."""

import csv
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from etmass import cli
from etmass.padic import GuardError, LocalField


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli.main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------


def test_parse_local_expr_basics():
    F = LocalField(5, 1, 1)
    assert F.val(cli.parse_local_expr(F, "pi")) == 1
    assert F.val(cli.parse_local_expr(F, "u")) == 0
    assert F.val(cli.parse_local_expr(F, "pi**3 * u")) == 3
    assert F.val(cli.parse_local_expr(F, "1/pi")) == -1
    assert F.val(cli.parse_local_expr(F, "-(2 + 5)")) == 0
    x = cli.parse_local_expr(F, "2*pi - pi")
    assert F.is_zero(F.add(x, F.neg(F.pi())))


def test_parse_local_expr_rejections():
    F = LocalField(3, 1, 1)
    for bad in ["rho", "pi**(1/2)", "pi //", "2.5", "pi % 2", "__import__('os')"]:
        with pytest.raises(ValueError):
            cli.parse_local_expr(F, bad)


def test_parse_local_expr_takes_powers_in_the_field():
    # the base is coerced before the power, so 3**(10**6) never builds
    # the integer 3^(10^6), and 3**-40 inverts before it multiplies
    F = LocalField(2, 1, 1)
    got, want = cli.parse_local_expr(F, "3**(10**6)"), F.power(F.from_int(3), 10**6)
    assert (got.data, got.prec, got.exact) == (want.data, want.prec, want.exact)
    G = LocalField(3, 1, 1)
    assert G.val(cli.parse_local_expr(G, "3**-40")) == -40
    assert G.val(cli.parse_local_expr(G, "pi**(2**3 - 5)")) == 3
    with pytest.raises(ValueError, match="exponent too large"):
        cli.parse_local_expr(F, "3**10**10**10")
    for bad in ("1/0", "pi/0", "pi/(0*pi)", "2**(1/0)", "2**(0**-1)"):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            cli.parse_local_expr(F, bad)
    with pytest.raises(ZeroDivisionError):
        cli.parse_local_expr(F, "0**(1 - 2)")


def test_parse_rational_gens():
    assert cli.parse_rational_gens("") == ()
    assert cli.parse_rational_gens(" -1, 4/9 ") == (Fraction(-1), Fraction(4, 9))
    with pytest.raises(ValueError):
        cli.parse_rational_gens("1/0")
    with pytest.raises(ValueError):
        cli.parse_rational_gens("x")


def test_split_label():
    assert cli.split_label("(2^2) D4") == ("(2^2)", "D4")
    assert cli.split_label("(1^2 1^2) C2") == ("(1^2 1^2)", "C2")
    assert cli.split_label("(2 2)") == ("(2 2)", "")
    assert cli.split_label("epi") == ("epi", "")


def test_decimal_str():
    assert cli.decimal_str(Fraction(1, 3), 4, up=False) == "0.3333"
    assert cli.decimal_str(Fraction(1, 3), 4, up=True) == "0.3334"
    assert cli.decimal_str(Fraction(1, 2), 2, up=False) == "0.50"
    assert cli.decimal_str(Fraction(1, 2), 2, up=True) == "0.50"


def test_decimal_str_keeps_context_precision():
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        assert cli.decimal_str(Fraction(1, 7), 40, up=False) == "0.1428571428571428571428571428571428571428"
        assert cli.decimal_str(Fraction(1, 7), 40, up=True) == "0.1428571428571428571428571428571428571429"
        assert decimal.getcontext().prec == 28


def _decimal_reference(x, digits, up):
    """x rounded at ``digits`` places by ``Decimal``, toward +inf with
    ``up``, else toward -inf.

    The quotient is rounded in the same direction at more places than
    the quantum 10^-digits, and rounding it again in that direction at
    the coarser quantum gives what rounding x once would."""
    rounding = decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR
    with decimal.localcontext() as ctx:
        ctx.prec = digits + len(str(x.numerator)) + 2 * len(str(x.denominator)) + 10
        ctx.rounding = rounding
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        return str(+d.quantize(decimal.Decimal(1).scaleb(-digits)))


@pytest.mark.parametrize(
    "x,digits,want",
    [
        (Fraction(0), 0, "0"),
        (Fraction(0), 6, "0.000000"),
        (Fraction(0), 30, "0E-30"),
        (Fraction(1), 0, "1"),
        (Fraction(1), 6, "1.000000"),
        (Fraction(1), 30, "1." + "0" * 30),
        # exact ties go to the even neighbour
        (Fraction(1, 2), 0, "0"),
        (Fraction(3, 2), 0, "2"),
        (Fraction(-5, 2), 0, "-2"),
        (Fraction(1, 8), 2, "0.12"),
        (Fraction(3, 8), 2, "0.38"),
        # just off a tie
        (Fraction(1, 8) + Fraction(1, 10**40), 2, "0.13"),
        (Fraction(3, 8) - Fraction(1, 10**40), 2, "0.37"),
        # below 10^-digits: zero, without a sign
        (Fraction(1, 10**8), 6, "0.000000"),
        (Fraction(-1, 3 * 10**40), 30, "0E-30"),
        (Fraction(-1, 10**7), 6, "0.000000"),
        # printed as Decimal prints them
        (Fraction(1, 10**7), 30, "1.00000000000000000000000E-7"),
        (Fraction(12345, 100), -2, "1E+2"),
    ],
)
def test_decimal_str_edge_values(x, digits, want):
    # ``want`` is x rounded half to even: the directed roundings bracket
    # x, one quantum apart unless x is on the grid, and the nearest
    # rounding is one of them
    down = cli.decimal_str(x, digits, up=False)
    up = cli.decimal_str(x, digits, up=True)
    assert down == _decimal_reference(x, digits, up=False)
    assert up == _decimal_reference(x, digits, up=True)
    assert Fraction(down) <= x <= Fraction(up)
    assert Fraction(up) - Fraction(down) == (0 if Fraction(down) == x else Fraction(10) ** -digits)
    assert want in (down, up)


@pytest.mark.parametrize(
    "x,digits,down,up",
    [
        (Fraction(1, 2), 0, "0", "1"),
        (Fraction(-5, 2), 0, "-3", "-2"),
        (Fraction(3, 8), 2, "0.37", "0.38"),
        (Fraction(-1, 10**7), 6, "-0.000001", "0.000000"),
        (Fraction(-1, 3 * 10**40), 30, "-1E-30", "0E-30"),
        (Fraction(12345, 100), -2, "1E+2", "2E+2"),
    ],
)
def test_decimal_str_directed(x, digits, down, up):
    assert cli.decimal_str(x, digits, up=False) == down
    assert cli.decimal_str(x, digits, up=True) == up


_tie = st.builds(
    lambda k, digits, sign: (Fraction(sign * (2 * k + 1), 2 * 10**digits), digits),
    st.integers(0, 10**20),
    st.integers(0, 40),
    st.sampled_from((1, -1)),
)
_any = st.tuples(
    st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60)),
    st.integers(0, 40),
)
_tiny = st.builds(
    lambda num, digits, extra: (Fraction(num, 10 ** (digits + extra)), digits),
    st.integers(-(10**6), 10**6),
    st.integers(0, 40),
    st.integers(7, 30),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_any, _tie, _tiny))
def test_decimal_str_matches_a_decimal_reference(case):
    x, digits = case
    with decimal.localcontext() as ctx:
        # the result reads nothing from the ambient context
        ctx.prec = 3
        ctx.rounding = decimal.ROUND_DOWN
        got = [cli.decimal_str(x, digits, up=up) for up in (False, True)]
    assert got == [_decimal_reference(x, digits, up=up) for up in (False, True)]


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------


def test_mass_quartic_json(runner):
    res = invoke(runner, "mass", "--p", "2", "--n", "4", "--gens", "-1,2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["premass"] == {"num": 12829, "den": 8192}
    pm = Fraction(12829, 8192)
    assert Fraction(out["mass"]["num"], out["mass"]["den"]) == pm / 2
    labels = {(row["symbol"], row["group"]) for row in out["breakdown"]}
    assert ("(2^2)", "D4") in labels and ("epi", "") in labels


def test_mass_symbol_filter(runner):
    res = invoke(
        runner, "mass", "--p", "2", "--n", "4", "--gens", "-1", "--symbol", "(2^2)"
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    vals = {row["group"]: row["value"] for row in out["breakdown"]}
    assert vals == {"C4": "1/256", "V4": "1/256", "D4": "5/64"}
    assert out["premass"] == {"num": 11, "den": 128}


def test_mass_symbol_filter_with_two_digit_numbers(runner):
    # the printed symbols of n = 11 select their own summands: "(11)" is
    # matched as printed, "11" as printed once in parentheses, and "1^11"
    # parses with e = 11
    cases = [
        ("(11)", "(11)", "1/11"),
        ("11", "(11)", "1/11"),
        ("(1^11)", "(1^11)", "1/1024"),
        ("1^11", "(1^11)", "1/1024"),
    ]
    for symbol, printed, value in cases:
        res = invoke(runner, "mass", "--p", "2", "--n", "11", "--symbol", symbol)
        assert res.exit_code == 0, symbol
        out = json.loads(res.output)
        assert out["breakdown"] == [{"symbol": printed, "group": "", "value": value}]
    # text that is no printed symbol, even in parentheses, is parsed
    res = invoke(runner, "mass", "--p", "2", "--n", "4", "--symbol", "22")
    assert res.exit_code == 0
    assert [row["symbol"] for row in json.loads(res.output)["breakdown"]] == ["(2 2)"]


def test_mass_prime_degree_json(runner):
    res = invoke(runner, "mass", "--p", "2", "--n", "2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["premass"] == {"num": 3, "den": 2}
    assert out["mass"] == {"num": 3, "den": 4}


def test_mass_expression_gens(runner):
    res = invoke(runner, "mass", "--p", "5", "--n", "3", "--gens", "pi*u,u**2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["premass"]["den"] > 0


def test_mass_csv(runner):
    res = invoke(runner, "mass", "--p", "3", "--n", "3", "--format", "csv")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["symbol", "group", "value"]
    assert ["(3)", "", "1/3"] in rows
    assert ["epi", "", "2/3"] in rows


def test_mass_validation_errors(runner):
    # 6 is neither 4 nor prime
    res = invoke(runner, "mass", "--p", "2", "--n", "6")
    assert res.exit_code == 2
    res = invoke(runner, "mass", "--p", "2", "--n", "4", "--gens", "0")
    assert res.exit_code == 2
    assert "generator '0'" in res.stderr
    res = invoke(runner, "mass", "--p", "2", "--n", "4", "--symbol", "(7)")
    assert res.exit_code == 2
    # zero or precision-exhausting generators
    for p, n, gens in [
        ("2", "3", "pi-pi"),
        ("2", "4", "pi-pi"),
        ("2", "3", "pi**100000"),
        ("2", "3", "1/0"),
        ("2", "4", "pi/0"),
        ("3", "3", "1/3**40"),
    ]:
        res = invoke(runner, "mass", "--p", p, "--n", n, "--gens", gens)
        assert res.exit_code == 2, gens
        assert res.stderr.startswith("error:"), gens
        assert repr(gens) in res.stderr, res.stderr
    # the failing generator of a list is the one named
    res = invoke(runner, "mass", "--p", "2", "--n", "3", "--gens", "-1, 1/0")
    assert res.exit_code == 2
    assert "'1/0'" in res.stderr and "'-1'" not in res.stderr


def test_mass_zero_divisor_message(runner):
    res = invoke(runner, "mass", "--p", "2", "--n", "4", "--gens", "1/0")
    assert res.exit_code == 2
    assert res.stderr == "error: generator '1/0': division by zero\n"


@pytest.mark.parametrize(
    "p,n,gens,digest",
    [
        ("2", "4", "", "6724c1598e21a520b07c15a7679333f265216cbd4b94287616f8f340ce696936"),
        ("2", "4", "-1", "bf0b73a013d81b64ecc4b14ed7cde939d3e50b4255ba84e926556b389c611a5f"),
        ("2", "4", "-1,2", "6deb11dc6f354a96e3810df76e44150fcd8c1809bd33e70a6fb081b4b8ef04f8"),
        ("2", "4", "5", "b1a6dcfb5171b58f795847fb5a11ef1474b3f72539ada71d8f959a89c9d4ce97"),
        ("2", "4", "pi,u", "e0d4ba5bd2da24e3383822d69270b5496fef692d3bcabc7d8964eb381f2c3c76"),
        ("2", "4", "2**3,(1/2)**-2", "e0d4ba5bd2da24e3383822d69270b5496fef692d3bcabc7d8964eb381f2c3c76"),
        ("2", "4", "(-1)*(5+2*pi)**4,3**-1", "04f63c522ee580efc92b4aaccad69ce45368928bf64f71191e96fa52294d51e8"),
        ("5", "3", "pi*u,u**2", "d226e7b84adab3d0caf5008aacce108d11fa12e4b09d9c39e15eee1860ca78ba"),
        ("3", "3", "(2/5)**3,pi**-2", "9c43c463b3cd32a10405f1f7b4e7f863fb2d2cede337042188bfc78af1e71042"),
    ],
)
def test_mass_output_bytes_of_generator_sets(runner, p, n, gens, digest):
    # SHA-256 of the whole stdout, recorded when rational powers were
    # still taken over Q before coercion
    res = invoke(runner, "mass", "--p", p, "--n", n, "--gens", gens)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args,premass",
    [
        (("--e", "10"), Fraction(17, 8)),  # 1 + 1/q + 2/q^2 + 1/q^3
        (("--e", "6", "--gens", "-1"), Fraction(4672798160891, 2199023255552)),
    ],
)
def test_mass_quartic_over_large_ramified_bases(runner, args, premass):
    # both once exited 2 at default precision: a lossy negative shift
    # left the unramified quadratic's t without digits (e = 10), and the
    # omega route read a digit past its precision (e = 6)
    res = invoke(runner, "mass", "--p", "2", "--n", "4", *args)
    assert res.exit_code == 0, res.stderr
    got = json.loads(res.stdout)["premass"]
    assert Fraction(got["num"], got["den"]) == premass


def test_mass_guard_maps_to_exit_3(runner, monkeypatch):
    def boom(*a, **k):
        raise GuardError("too big")

    monkeypatch.setattr(cli.mq, "premass4", boom)
    res = invoke(runner, "mass", "--p", "2", "--n", "4")
    assert res.exit_code == 3


def test_mass_huge_prime_exits_2_promptly():
    # beyond the proven Miller-Rabin bound the primality check refuses
    # at once, where trial division up to sqrt(p) would outlast the timeout
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    args = ["mass", "--p", "1000000000000000000000000000057", "--n", "3"]
    res = subprocess.run(
        [sys.executable, "-m", "etmass.cli", *args],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert res.returncode == 2
    assert "3317044064679887385961981" in res.stderr


def test_mass_thirteen_digit_prime_output(runner):
    # SHA-256 of the whole stdout, recorded with the trial-division check
    res = invoke(runner, "mass", "--p", "1000000000039", "--n", "3", "--gens", "2")
    assert res.exit_code == 0
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == "28a4d64da734f99a926adedc3093ca3c186052e0a3d45f04b53c37a37d7083c3"


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_json_schema(runner):
    res = invoke(runner, "density", "--n", "3", "--gens", "", "--prime-bound", "50")
    assert res.exit_code == 0
    out = json.loads(res.output)
    coeff = out["coefficient"]
    lo = Fraction(coeff["lo"])
    hi = Fraction(coeff["hi"])
    assert 0 < lo <= hi
    assert abs(Fraction(coeff["lo_decimal"]) - lo) < Fraction(1, 10**5)
    assert out["proportion"]["lo"] == "1/1"
    assert out["per_prime"][0] == {"p": 2, "mass": "7/8"}
    assert [row["p"] for row in out["per_prime"]] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]


def test_density_digits_option(runner):
    res = invoke(
        runner, "density", "--n", "4", "--prime-bound", "30", "--digits", "3"
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert len(out["coefficient"]["lo_decimal"].split(".")[1]) == 3


def test_density_validation_errors(runner):
    # bound below the tail constant
    res = invoke(runner, "density", "--n", "4", "--prime-bound", "10")
    assert res.exit_code == 2
    res = invoke(runner, "density", "--n", "3", "--gens", "0", "--prime-bound", "50")
    assert res.exit_code == 2
    # a generator with a prime factor far above the bound is refused
    # without factoring it
    big = "1000000000000000000000000000057"
    res = invoke(runner, "density", "--n", "3", "--gens", big, "--prime-bound", "1000")
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and big in res.stderr


@pytest.mark.parametrize(
    "n,gens,reduced", [("3", 7**60, 1), ("3", 3**61, 3), ("4", 7**60, 1), ("4", 2**81, 2)]
)
def test_density_huge_valuations(runner, n, gens, reduced):
    # valuations far beyond the working precision, at a tame and at the
    # wild prime: the generator differs from ``reduced`` by an n-th power
    res = invoke(runner, "density", "--n", n, "--gens", str(gens), "--prime-bound", "1000")
    assert res.exit_code == 0, res.stderr
    want = invoke(runner, "density", "--n", n, "--gens", str(reduced), "--prime-bound", "1000")
    assert json.loads(res.stdout)["per_prime"] == json.loads(want.stdout)["per_prime"]


@pytest.mark.parametrize(
    "args",
    [
        ("--n", "3", "--gens", "", "--prime-bound", "20000"),
        ("--n", "5", "--gens", "-2/3,11/7", "--prime-bound", "3000"),
        ("--n", "3", "--gens", "", "--prime-bound", "30011"),
        ("--n", "3", "--gens", "", "--prime-bound", "50"),
        ("--n", "4", "--prime-bound", "30", "--digits", "3"),
        ("--n", "4", "--gens", "-1", "--prime-bound", "1000", "--digits", "12"),
        ("--n", "3", "--gens", str(7**60), "--prime-bound", "1000"),
        ("--n", "4", "--gens", str(2**81), "--prime-bound", "1000", "--digits", "0"),
    ],
    ids=lambda args: "-".join(a for a in args if not a.startswith("--")),
)
def test_density_decimals_contain_the_interval(runner, args):
    # the lower end is printed rounded down and the upper end up, so the
    # printed pair contains the exact interval
    res = invoke(runner, "density", *args)
    assert res.exit_code == 0, res.stderr
    out = json.loads(res.stdout)
    for key in ("coefficient", "proportion"):
        block = out[key]
        assert Fraction(block["lo_decimal"]) <= Fraction(block["lo"]), (key, block["lo_decimal"])
        assert Fraction(block["hi_decimal"]) >= Fraction(block["hi"]), (key, block["hi_decimal"])


@pytest.mark.parametrize(
    "args,digest",
    [
        (
            ("--n", "3", "--gens", "", "--prime-bound", "20000"),
            "04d7db0e0c71f5c3e7c372a8ddd02190d2f73613baada4ba95668a36c61efac5",
        ),
        (
            ("--n", "5", "--gens", "-2/3,11/7", "--prime-bound", "3000"),
            "af129b4d80fdca63ac4776e57ce94e1851c5d741fa8a6ae73abffe47a45b3b62",
        ),
    ],
    ids=["n3-plain", "n5-gens"],
)
def test_density_golden_output(runner, args, digest):
    # SHA-256 of the whole stdout, recorded from the sequential product
    res = invoke(runner, "density", *args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_quartic(runner):
    res = invoke(runner, "tables", "--p", "2", "--n", "4")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["symbol", "group", "disc_val", "count"]
    counts = {(r[0], r[1], int(r[2])): int(r[3]) for r in rows[1:]}
    # seven ramified quadratics of Q_2 give 6 diagonal L x L algebras
    # at disc valuations 4 and 6
    assert counts[("(1^2 1^2)", "C2", 4)] == 2
    assert counts[("(1^2 1^2)", "C2", 6)] == 4
    total_by_group = {}
    for (sym, grp, _m), c in counts.items():
        if sym in ("(2^2)", "(1^4)"):
            total_by_group[grp] = total_by_group.get(grp, 0) + c
    # the twelfth C4 field is the unramified quartic, symbol (4)
    assert total_by_group == {"C4": 11, "V4": 7, "D4": 36}


def test_tables_group_filter(runner):
    res = invoke(runner, "tables", "--p", "2", "--n", "4", "--group", "D4")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert all(r[1] == "D4" for r in rows[1:])
    assert sum(int(r[3]) for r in rows[1:]) == 36


def test_tables_prime_degree(runner):
    res = invoke(runner, "tables", "--p", "3", "--n", "3")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    counts = {int(r[2]): int(r[3]) for r in rows[1:]}
    # the three cyclic totally ramified cubics of Q_3 all have v(disc) = 4;
    # the non-Galois cubics are outside the cyclic tables
    assert counts == {4: 3}
    assert all(r[0] == "(1^3)" and r[1] == "Cp" for r in rows[1:])


def test_tables_validation(runner):
    res = invoke(runner, "tables", "--p", "3", "--n", "4")
    assert res.exit_code == 2
    res = invoke(runner, "tables", "--p", "2", "--n", "5")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["serre", "oracle", "quartic"])
def test_check_suites_pass(runner, suite):
    res = invoke(runner, "check", "--suite", suite)
    assert res.exit_code == 0
    assert "ok" in res.output and "FAIL" not in res.output


def test_check_identity_with_case_cap(runner):
    res = invoke(runner, "check", "--suite", "identity", "--cases", "20")
    assert res.exit_code == 0


def test_check_failure_exit_code(runner, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "serre", lambda: (False, "forced"))
    res = invoke(runner, "check", "--suite", "serre")
    assert res.exit_code == 1
    assert "FAIL" in res.output


# ---------------------------------------------------------------------------
# fuzzing the mass command
# ---------------------------------------------------------------------------


_ATOMS = st.one_of(st.integers(-40, 40).map(str), st.sampled_from(["pi", "u"]))

_EXPRS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from(["+", "-", "*", "/"]), inner),
        st.builds("({})**{}".format, inner, st.integers(-50, 50)),
    ),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    ef=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    n=st.integers(1, 6),
    gens=st.lists(_EXPRS, max_size=2),
)
def test_mass_fuzz_exits_cleanly(p, ef, n, gens):
    e, f = ef
    args = ["mass", "--p", str(p), "--e", str(e), "--f", str(f), "--n", str(n), "--gens", ",".join(gens)]
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
