"""The benchmark's workloads: seeded inputs, the unit of work, and checks.

Each workload turns a seed into a list of units of plain data (base
field shapes ``(p, e, f)``, generator expressions in the CLI grammar,
rationals and prime bounds); the library receives nothing else.  One
pass runs every unit once.  ``check`` tests one output with code that
does not share the formula under test; ``extra_checks`` are the
costlier cross-checks, run once after the timed passes.

The seed picks concrete inputs, but the shape of a pass is fixed: where
the cost of a unit depends strongly on what the seed could pick (the
quartic constraint class, the base of a wild enumeration), the class is
fixed by the workload and the seed picks a representative of it.
Otherwise two seeds would time different amounts of work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import etmass.cli as cli
from etmass import density, massprime, massquartic, oracle, padic, unitgroups

LocalField = padic.LocalField


def _fourth_power_rep(rng, cls):
    """Each generator of ``cls`` times a seeded 2-adic unit to the fourth.

    Multiplying by fourth powers keeps the subgroup modulo fourth
    powers, so the exact quartic answer is that of the class.
    """
    return ",".join(
        f"({g})*({rng.randrange(1, 64, 2)}+{rng.randrange(8)}*pi)**4"
        for g in cls.split(",")
        if g
    )


def _partitions(d, m):
    """Partitions of d into at most m parts."""
    if d == 0:
        return 1
    if m == 0:
        return 0
    return _partitions(d, m - 1) + (_partitions(d - m, m) if d >= m else 0)


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


@lru_cache(maxsize=None)
def _zeta3_enclosure():
    """A rational interval around 1/(3 zeta(3)), the density of cubic fields."""
    import mpmath

    with mpmath.workprec(200):
        man, exp = (1 / (3 * mpmath.zeta(3))).man_exp
    mid = Fraction(man) * Fraction(2) ** exp
    eps = Fraction(1, 2**150)
    return mid - eps, mid + eps


class Workload:
    def extra_checks(self, units, outs):
        """Yield (label, ok) for cross-checks too costly to run per pass."""
        return ()


def _euler_density(unit):
    n, gens, bound = unit
    return density.euler_density(density.GlobalSpec(n, tuple(Fraction(g) for g in gens), bound))


class Quartic2Adic(Workload):
    """``premass4`` over 2-adic bases, a fresh ``LocalField`` per call."""

    BASES = {
        "full": [((1, 1), c) for c in ("", "-1", "-1,2", "5", "pi,u")]
        + [((1, 2), c) for c in ("", "-1", "2")]
        + [((2, 1), c) for c in ("", "-1,2")]
        + [((3, 1), "pi")],
        "tiny": [((1, 1), c) for c in ("", "-1,2", "5")],
    }
    PIN = Fraction(12829, 8192)  # README: premass4(Q2, (-1, 2)).total

    def units(self, rng, size):
        return [(ef, cls, _fourth_power_rep(rng, cls)) for ef, cls in self.BASES[size]]

    def run(self, unit):
        (e, f), _cls, expr = unit
        F = LocalField(2, e, f)
        return massquartic.premass4(F, cli.parse_local_gens(F, expr)).parts

    def check(self, unit, out):
        (e, f), cls, _expr = unit
        q = 2**f
        total = sum((v for _, v in out), Fraction(0))
        full = sum(Fraction(_partitions(d, 4 - d), q**d) for d in range(5))
        if not cls and total != full:
            return f"unconstrained total {total} != {full}"
        if not 0 < total <= full:
            return f"constrained total {total} outside (0, {full}]"
        if (e, f) == (1, 1) and cls == "-1,2" and total != self.PIN:
            return f"README pin {total} != {self.PIN}"
        return None

    def extra_checks(self, units, outs):
        # brute and subspace norm-class counts agree; the brute guard
        # allows every base here, run time limits this to [F:Q_2] <= 2
        for unit, out in zip(units, outs):
            (e, f), cls, expr = unit
            if not cls or e * f > 2 or out is None:
                continue
            totals = []
            for algo in ("brute", "subspace"):
                F = LocalField(2, e, f)
                totals.append(massquartic.premass4(F, cli.parse_local_gens(F, expr), algo=algo).total)
            want = sum((v for _, v in out), Fraction(0))
            yield f"brute/subspace {unit}", totals == [want, want]


class DensityLocal(Workload):
    """``euler_density`` at n = 3, 4, 5 with seeded rational generators."""

    BOUND = {"full": 12000, "tiny": 200}
    # One constraint class per degree.  Freely drawn generators moved a
    # pass's cost by about 8% between seeds (special ones such as -4 or
    # 25/4 take other paths); the seed instead multiplies each generator
    # by the n-th power of a seeded rational, which leaves every local
    # mass unchanged.
    CLASSES = {3: ("19/7",), 4: ("-10/3",), 5: ("-2/3", "11/7")}

    def units(self, rng, size):
        bound = self.BOUND[size] + rng.randrange(self.BOUND[size] // 100)
        return [
            (n, tuple(str(Fraction(g) * Fraction(rng.randrange(1, 10), rng.randrange(1, 10)) ** n)
                      for g in cls), bound)
            for n, cls in self.CLASSES.items()
        ]

    def run(self, unit):
        return _euler_density(unit)

    def check(self, unit, out):
        n, gens, bound = unit
        if not 0 < out.coeff_lo < out.coeff_hi:
            return "empty or non-positive coefficient interval"
        primes = [p for p, _ in out.per_prime]
        if primes != [p for p in range(2, bound + 1) if _is_prime(p)]:
            return "per-prime factors do not cover the primes up to the bound"
        # Where every generator is a unit and an n-th power residue mod
        # p, with p prime to n, Hensel makes it an n-th power in Q_p, so
        # a norm from every algebra: the local mass is the unconstrained
        # one, written here from Serre's mass formula.
        gens = [Fraction(g) for g in gens]
        for p, m in out.per_prime:
            if n % p == 0 or any(g.numerator % p == 0 or g.denominator % p == 0 for g in gens):
                continue
            e = (p - 1) // gcd(n, p - 1)
            if all(pow(g.numerator * pow(g.denominator, -1, p), e, p) == 1 for g in gens):
                full = Fraction(p - 1, p) * sum(Fraction(_partitions(d, n - d), p**d) for d in range(n))
                if m != full:
                    return f"local mass at {p} is {m}, want the unconstrained {full}"
        # a constrained count is at most the unconstrained one
        if n == 3 and out.coeff_lo > _zeta3_enclosure()[1]:
            return "cubic lower bound above 1/(3 zeta(3))"
        return None


class DensityProduct(Workload):
    """``euler_density`` with no generators: the sieve and the exact product."""

    BOUND = {"full": 100000, "tiny": 2000}

    def units(self, rng, size):
        return [(3, (), self.BOUND[size] + rng.randrange(self.BOUND[size] // 200))]

    def run(self, unit):
        return _euler_density(unit)

    def check(self, unit, out):
        lo, hi = _zeta3_enclosure()
        if not out.coeff_lo <= lo < hi <= out.coeff_hi:
            return "interval misses 1/(3 zeta(3))"
        if out.prop_lo != 1 or out.prop_hi != 1:
            return "unconstrained proportion is not exactly 1"
        return None


class CheckOracle(Workload):
    """The comparisons of ``etmass check``, with seeded groups and fields."""

    CENSUS = {"full": ("-1", "5", "-1,2"), "tiny": ("5",)}
    SERRE = {"full": ((2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 1, 2), (3, 2, 1)), "tiny": ((2, 1, 1),)}
    QUAD2 = ("-1", "3", "5", "7", "2", "-2", "6", "10")  # non-squares in Q_2
    CHARS = {"full": ((3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 1, 2), (3, 2, 1), (5, 2, 1)),
             "tiny": ((3, 1, 1),)}
    CHAR_GENS = ("pi", "u", "1+pi", "(1+pi)*u", "2", "pi*u**2")

    def units(self, rng, size):
        out = [("census", (2, 1, 1), _fourth_power_rep(rng, c)) for c in self.CENSUS[size]]
        out += [("serre", pef, None) for pef in self.SERRE[size]]
        # quadratic extensions: of Q_2 by a seeded non-square, and
        # (full size) of Q_3 by a seeded uniformizer
        for c in rng.sample(self.QUAD2, 2 if size == "full" else 1):
            out.append(("serre", (2, 1, 1), f"({c})*{rng.randrange(1, 64, 2)}**2"))
        if size == "full":
            k = rng.choice((1, 2, 4, 5, 7, 8))
            out.append(("serre", (3, 1, 1), f"({rng.choice(('pi', '-pi'))})*{k}**2"))
        for pef in self.CHARS[size]:
            gens = rng.sample(self.CHAR_GENS, rng.randrange(1, 3))
            out.append(("chars", pef, ",".join(gens)))
        return out

    def run(self, unit):
        kind, (p, e, f), expr = unit
        F = LocalField(p, e, f)
        if kind == "census":
            gens = cli.parse_local_gens(F, expr)
            recs = oracle.enum_quartic_towers(F, gens=list(gens))
            got = oracle.tally_towers(recs, pred=lambda r: all(r.norm_flags))
            want = {}
            for sym, counts in (("(2^2)", massquartic.counts_22(F, gens)),
                                ("(1^4)", massquartic.counts_14(F, gens))):
                want.update({(sym, g, m): c for (g, m), c in counts.items() if c})
            # the tower oracle sees the diagonal (1^2 1^2) algebras as
            # towers too; compare the field-like symbols, as `check` does
            got = {k: v for k, v in got.items() if k[0] in ("(2^2)", "(1^4)")}
            return sorted(want.items()), sorted(got.items())
        if kind == "serre":
            if expr is not None:
                F = padic.quad_extend(F, cli.parse_local_expr(F, expr))
            formula = massprime.premass_ell_total(F, F.p).part(f"(1^{F.p})")
            return formula, oracle.wild_premass(F), Fraction(1, F.q ** (F.p - 1))
        gens = cli.parse_local_gens(F, expr)
        recs = oracle.enum_cp_characters(F, gens)
        chars = oracle.cp_premass_from_characters(F, [r for r in recs if all(r.norm_flags)])
        return chars, massprime.premass_Cp_wild(F, unitgroups.filtration_profile(F, gens, F.p))

    def check(self, unit, out):
        if any(v != out[0] for v in out[1:]):
            return f"{unit[0]} mismatch: {out}"
        return None


WORKLOADS = {
    "quartic-2adic": Quartic2Adic(),
    "density-local": DensityLocal(),
    "density-product": DensityProduct(),
    "check-oracle": CheckOracle(),
}


def make_units(workload, seed, size):
    return WORKLOADS[workload].units(random.Random(f"{workload}:{seed}"), size)


def encode(obj):
    """A canonical text form of an exact output, for the digest.

    Integers are written in hex, which needs no int-to-decimal
    conversion limit however long the exact product gets.
    """
    if isinstance(obj, bool):
        return "T" if obj else "F"
    if isinstance(obj, int):
        return format(obj, "x")
    if isinstance(obj, Fraction):
        return f"{obj.numerator:x}/{obj.denominator:x}"
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, density.DensityInterval):
        return encode((obj.coeff_lo, obj.coeff_hi, obj.prop_lo, obj.prop_hi, obj.per_prime))
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(encode(x) for x in obj) + ")"
    raise TypeError(f"cannot encode {type(obj).__name__}")
