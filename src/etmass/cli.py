"""Command-line interface.

Four subcommands: ``mass`` (one local pre-mass/mass with breakdown),
``density`` (Euler-product interval over Q), ``tables`` (per-symbol
extension counts by discriminant valuation), and ``check`` (built-in
consistency suites).  Exit codes: 0 success, 2 validation error,
3 resource guard exceeded, 1 failed check suite.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import click

from . import density as dens
from . import massprime as mp
from . import massquartic as mq
from . import oracle as orc
from .padic import INF, Elt, GuardError, LocalField, PrecisionError, quad_extend


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


# Bound on the bits of a rational power inside an exponent, the one
# place where the parser itself raises a rational to a power.
_MAX_EXPONENT_BITS = 1 << 16


def parse_local_expr(F, text: str):
    """Evaluate an arithmetic expression in F.

    Allowed: integers, ``pi`` (a uniformizer), ``u`` (a fixed
    non-residue unit), ``+ - * / **`` and parentheses; exponents must
    be integers.  Returns an element of F.  A power is taken in F, on
    the base coerced into F, so ``3**(2**25)`` costs 27 products in F
    and never builds the integer 3^(2^25).  The exponent itself is
    evaluated over the rationals.
    """

    def exponent(node):
        n = ev(node, rational=True)
        if not isinstance(n, Fraction) or n.denominator != 1:
            raise ValueError("exponents must be integers")
        return int(n)

    def ev(node, rational=False):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return F.pi()
            if node.id == "u":
                return F.ugen()
            raise ValueError(f"unknown name {node.id!r} (only pi, u)")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand, rational)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            n = exponent(node.right)
            a = ev(node.left, rational)
            if not (rational and isinstance(a, Fraction)):
                return F.power(F.coerce(a), n)
            if a == 0 and n < 0:
                raise ZeroDivisionError("division by zero")
            if abs(n) * max(a.numerator.bit_length(), a.denominator.bit_length()) > _MAX_EXPONENT_BITS:
                raise ValueError("exponent too large")
            return a**n
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left, rational), ev(node.right, rational)
            if isinstance(a, Fraction) != isinstance(b, Fraction):
                # promote the rational side into the field
                if isinstance(a, Fraction):
                    a = F.coerce(a)
                else:
                    b = F.coerce(b)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                if b.exact if isinstance(b, Elt) else b == 0:
                    raise ZeroDivisionError("division by zero")
                return a / b
            raise ValueError(f"unsupported operator in {text!r}")
        raise ValueError(f"unsupported syntax in {text!r}")

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression {text!r}: {exc}") from None
    return F.coerce(ev(tree.body))


def parse_local_gens(F, text: str):
    """Comma-separated generators, each nonzero with a known valuation.

    A failing generator raises ValueError naming it.
    """
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        try:
            x = parse_local_expr(F, tok)
            if F.val(x) == INF:
                raise ValueError("must be nonzero")
        except (PrecisionError, ZeroDivisionError, ValueError) as exc:
            raise ValueError(f"generator {tok.strip()!r}: {exc}") from None
        out.append(x)
    return tuple(out)


def parse_rational_gens(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational list {text!r}: {exc}") from None


def frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, digits: int, up: bool) -> str:
    """``x`` rounded to ``digits`` decimal places, toward -inf, or toward
    +inf with ``up``, printed as ``Decimal`` prints a number with that
    exponent: a lower end rounded down and an upper end up contain the
    exact interval.

    The rounding is one floor division of x * 10^digits, in time linear
    in the size of x; only the rounded integer becomes a ``Decimal``, so
    the process-wide Decimal context is neither read nor changed.
    """
    scaled = x * Fraction(10) ** digits
    q = math.ceil(scaled) if up else math.floor(scaled)
    return str(Decimal(f"{q}E{-digits}"))


_GROUP_NAMES = {"C4", "V4", "D4", "C2", "A4/S4"}


def split_label(label: str):
    """Split a breakdown label into (symbol, group)."""
    head, _, tail = label.rpartition(" ")
    if head and tail in _GROUP_NAMES:
        return head, tail
    return label, ""


def _validate(cond, message):
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# the command group
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Exact local masses and densities of S_n number fields."""
    # exact Euler products over thousands of primes have huge numerators
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(50_000_000)


def _run(fn):
    """Execute a command body with the documented exit-code mapping."""
    try:
        fn()
    except GuardError as exc:
        click.echo(f"guard exceeded: {exc}", err=True)
        sys.exit(3)
    except (ValueError, NotImplementedError, PrecisionError, ZeroDivisionError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.option("--p", type=int, required=True, help="residue characteristic")
@click.option("--e", type=int, default=1, show_default=True)
@click.option("--f", type=int, default=1, show_default=True)
@click.option("--n", type=int, required=True, help="degree (4 or a prime)")
@click.option("--gens", default="", help="comma-separated expressions in pi, u, ints")
@click.option("--symbol", default=None, help="restrict to one splitting symbol")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def mass(p, e, f, n, gens, symbol, fmt):
    """Pre-mass and mass of degree-n etale algebras with prescribed norms."""

    def body():
        F = LocalField(p, e, f)
        elems = parse_local_gens(F, gens)
        if n == 4:
            report = mq.premass4(F, elems)
        else:
            report = mp.premass_ell_total(F, n, elems)
        parts = report.parts
        if symbol is not None:
            # a printed symbol is matched as it stands or in parentheses:
            # "11" and "(11)" are one field of residue degree 11, which
            # parse_symbol reads as two
            printed = {split_label(k)[0] for k, _ in parts}
            want = next((s for s in (symbol, f"({symbol.strip('()')})") if s in printed), symbol)
            if want not in printed and symbol.strip("()")[:1].isdigit():
                want = str(mp.parse_symbol(symbol))
            parts = tuple(kv for kv in parts if split_label(kv[0])[0] == want)
            _validate(parts, f"no summand with symbol {symbol!r}")
        premass = sum((v for _, v in parts), Fraction(0))
        total_mass = Fraction(F.q - 1, F.q) * premass
        breakdown = [
            {"symbol": split_label(k)[0], "group": split_label(k)[1], "value": frac_str(v)}
            for k, v in parts
        ]
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "premass": frac_json(premass),
                        "mass": frac_json(total_mass),
                        "breakdown": breakdown,
                    },
                    indent=2,
                )
            )
        else:
            w = csv.writer(sys.stdout)
            w.writerow(["symbol", "group", "value"])
            for row in breakdown:
                w.writerow([row["symbol"], row["group"], row["value"]])

    _run(body)


@main.command()
@click.option("--n", type=click.Choice(["3", "4", "5"]), required=True)
@click.option("--gens", default="", help="comma-separated nonzero rationals")
@click.option("--prime-bound", "bound", type=int, required=True)
@click.option("--digits", type=int, default=6, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def density(n, gens, bound, digits, fmt):
    """Rigorous interval for the density of S_n fields over Q."""

    def body():
        spec = dens.GlobalSpec(int(n), parse_rational_gens(gens), bound)
        di = dens.euler_density(spec)
        out = {
            "coefficient": {
                "lo": frac_str(di.coeff_lo),
                "hi": frac_str(di.coeff_hi),
                "lo_decimal": decimal_str(di.coeff_lo, digits, up=False),
                "hi_decimal": decimal_str(di.coeff_hi, digits, up=True),
            },
            "proportion": {
                "lo": frac_str(di.prop_lo),
                "hi": frac_str(di.prop_hi),
                "lo_decimal": decimal_str(di.prop_lo, digits, up=False),
                "hi_decimal": decimal_str(di.prop_hi, digits, up=True),
            },
            "per_prime": [
                {"p": p, "mass": frac_str(m)} for p, m in di.per_prime
            ],
        }
        click.echo(json.dumps(out, indent=2))

    _run(body)


@main.command()
@click.option("--p", type=int, required=True)
@click.option("--e", type=int, default=1, show_default=True)
@click.option("--f", type=int, default=1, show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--group", type=click.Choice(["C4", "V4", "D4", "C2", "Cp"]), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv")
def tables(p, e, f, n, group, fmt):
    """Counts of extensions by (symbol, group, disc valuation)."""

    def body():
        F = LocalField(p, e, f)
        rows = []
        if n == 4:
            _validate(p == 2, "quartic tables require a 2-adic base field")
            for sym, counts in (
                ("(1^2 1^2)", mq.counts_1212(F)),
                ("(2^2)", mq.counts_22(F)),
                ("(1^4)", mq.counts_14(F)),
            ):
                for (grp, m), cnt in sorted(counts.items()):
                    rows.append((sym, grp, m, cnt))
        elif n == F.p:
            grp = "C2" if F.p == 2 else "Cp"
            top = (F.p - 1) * ((F.p * F.e) // (F.p - 1) + 1)
            for m in range(1, top + 1):
                cnt = mp.count_Cp(F, m)
                if cnt:
                    rows.append((f"(1^{F.p})", grp, m, cnt))
        else:
            _validate(False, "tables support n = 4 over 2-adic fields or n = p")
        if group is not None:
            rows = [r for r in rows if r[1] == group]
        w = csv.writer(sys.stdout)
        w.writerow(["symbol", "group", "disc_val", "count"])
        for r in rows:
            w.writerow(r)

    _run(body)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _suite_serre():
    q2 = LocalField(2, 1, 1)
    q3 = LocalField(3, 1, 1)
    fields = [
        q2,
        q3,
        LocalField(5, 1, 1),
        quad_extend(q2, q2.from_int(-1)),
        quad_extend(q2, q2.from_int(5)),
        quad_extend(q3, q3.pi()),
    ]
    for F in fields:
        want = Fraction(1, F.q ** (F.p - 1))
        formula = mp.premass_ell_total(F, F.p).part(f"(1^{F.p})")
        oracle = orc.wild_premass(F)
        if formula != want or oracle != want:
            return False, f"Serre mismatch over {F!r}"
    return True, f"{len(fields)} base fields"


def _suite_identity(cases):
    rng = random.Random(7)
    for _ in range(cases):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        t = rng.randint(2, 40)
        q = Fraction(1)
        while q == 1:
            q = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if not mp.identity_check(p, q, t):
            return False, f"identity fails at {(p, q, t)}"
    return True, f"{cases} random (p, q, t)"


def _suite_oracle():
    F = LocalField(2, 1, 1)
    recs = orc.enum_quartic_towers(F)
    by_group = {}
    for (sym, grp, dv), cnt in orc.tally_towers(recs).items():
        by_group[grp] = by_group.get(grp, 0) + cnt
    if by_group != {"C4": 12, "V4": 7, "D4": 36}:
        return False, f"tower census {by_group}"
    for F2 in (LocalField(3, 1, 1), LocalField(5, 1, 1)):
        if orc.cp_premass_from_characters(F2) != mp.premass_Cp_wild(F2):
            return False, f"character premass over {F2!r}"
    return True, "tower census and character premasses"


def _suite_quartic():
    F = LocalField(2, 1, 1)
    groups = [(), (-1,), (2,), (5,), (-1, 2)]
    for ints in groups:
        gens = tuple(F.from_int(a) for a in ints)
        recs = orc.enum_quartic_towers(F, gens=list(gens))
        tal = orc.tally_towers(recs, pred=lambda r: all(r.norm_flags))
        # the tower oracle sees the diagonal (1^2 1^2) algebras L x L as
        # towers over each ramified quadratic; compare the field symbols
        want = {
            (sym, grp, m): cnt
            for sym, counts in (("(2^2)", mq.counts_22(F, gens)), ("(1^4)", mq.counts_14(F, gens)))
            for (grp, m), cnt in counts.items()
            if cnt
        }
        got = {k: v for k, v in tal.items() if k[0] in ("(2^2)", "(1^4)")}
        if want != got:
            return False, f"count mismatch for gens {ints}: {want} vs {got}"
    return True, f"{len(groups)} constraint groups over Q_2"


_SUITES = {
    "serre": _suite_serre,
    "identity": _suite_identity,
    "oracle": _suite_oracle,
    "quartic": _suite_quartic,
}


@main.command()
@click.option(
    "--suite",
    type=click.Choice(["serre", "identity", "oracle", "quartic", "all"]),
    default="all",
    show_default=True,
)
@click.option(
    "--cases",
    type=click.IntRange(min=1),
    default=200,
    show_default=True,
    help="number of random (p, q, t) cases in the identity suite",
)
def check(suite, cases):
    """Run built-in consistency suites."""
    names = list(_SUITES) if suite == "all" else [suite]
    guard = []

    def body():
        for name in names:
            fn = _SUITES[name]
            ok, detail = fn(cases=cases) if name == "identity" else fn()
            status = "ok" if ok else "FAIL"
            click.echo(f"{name}: {status} ({detail})")
            if not ok:
                guard.append(name)

    _run(body)
    if guard:
        sys.exit(1)


if __name__ == "__main__":
    main()
