"""Tests for the command-line interface."""

import csv
import io
import json
from fractions import Fraction

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
    assert cli.decimal_str(Fraction(1, 3), 4) == "0.3333"
    assert cli.decimal_str(Fraction(1, 2), 2) == "0.50"


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
        ("3", "3", "3**-40"),
    ]:
        res = invoke(runner, "mass", "--p", p, "--n", n, "--gens", gens)
        assert res.exit_code == 2, gens
        assert res.stderr.startswith("error:"), gens
        assert repr(gens) in res.stderr, res.stderr
    # the failing generator of a list is the one named
    res = invoke(runner, "mass", "--p", "2", "--n", "3", "--gens", "-1, 1/0")
    assert res.exit_code == 2
    assert "'1/0'" in res.stderr and "'-1'" not in res.stderr


def test_mass_guard_maps_to_exit_3(runner, monkeypatch):
    def boom(*a, **k):
        raise GuardError("too big")

    monkeypatch.setattr(cli.mq, "premass4", boom)
    res = invoke(runner, "mass", "--p", "2", "--n", "4")
    assert res.exit_code == 3


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
    res = invoke(runner, "check", "--suite", "identity", "--max-size", "20")
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
