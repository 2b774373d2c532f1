"""Pre-masses of degree-ell etale algebras, for ell prime.

The pre-mass of a set S of etale algebras is the sum of
1/(#Aut * q^{v(disc)}) over its members.  This module provides the
combinatorial layer (splitting symbols and their exact pre-masses), the
counts of wildly ramified cyclic degree-p extensions by discriminant
valuation with an optional norm constraint, and the assembled total for
a prime degree: the sum of an unramified part, a totally ramified part,
a surjective-reduction constant, and the middle discriminant layers.

All arithmetic is exact: counts are integers and every mass is a
``Fraction``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .unitgroups import (
    FiltrationProfile,
    c_alpha,
    ceil_frac,
    contains_mu_p,
    filtration_profile,
)
from .padic import INF, is_prime


# ---------------------------------------------------------------------------
# partitions and splitting symbols
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(d: int, m: int) -> int:
    """Number of partitions of d into at most m nonnegative parts."""
    if d < 0 or m < 0:
        raise ValueError("d and m must be nonnegative")
    if d == 0:
        return 1
    if m == 0:
        return 0
    return partition_count(d, m - 1) + partition_count(d - m, m) if d >= m else (
        partition_count(d, m - 1)
    )


@dataclass(frozen=True)
class SplittingSymbol:
    """The splitting type of an etale algebra over a local field.

    ``pairs`` is the multiset of (e_i, f_i), one pair per field factor,
    stored sorted; the algebra has degree sum(e_i f_i), discriminant
    exponent d = sum(f_i (e_i - 1)), and automorphism count
    prod(f_i) times the number of permutations of identical factors.
    """

    pairs: tuple

    def __post_init__(self):
        if not self.pairs or any(e < 1 or f < 1 for e, f in self.pairs):
            raise ValueError("pairs must be nonempty with e, f >= 1")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @property
    def aut(self) -> int:
        n = 1
        for mult in Counter(self.pairs).values():
            n *= factorial(mult)
        for _, f in self.pairs:
            n *= f
        return n

    def __str__(self):
        bits = []
        for e, f in self.pairs:
            bits.append(f"{f}^{e}" if e > 1 else f"{f}")
        return "(" + " ".join(bits) + ")"


def parse_symbol(text: str) -> SplittingSymbol:
    """Parse a symbol such as ``(1^2 2)``, ``1^3,1``, or ``22``.

    Each token is a residue degree, optionally followed by ``^`` and a
    ramification index; parentheses, commas, and spaces are cosmetic.
    """
    s = text.strip().strip("()").replace(",", " ")
    pairs = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if not ch.isdigit():
            raise ValueError(f"bad symbol {text!r}")
        f = int(ch)
        i += 1
        e = 1
        if i < len(s) and s[i] == "^":
            if i + 1 >= len(s) or not s[i + 1].isdigit():
                raise ValueError(f"bad symbol {text!r}")
            e = int(s[i + 1])
            i += 2
        pairs.append((e, f))
    if not pairs:
        raise ValueError(f"bad symbol {text!r}")
    return SplittingSymbol(tuple(pairs))


def disc_layer_premass(n: int, d: int, q: int) -> Fraction:
    """Pre-mass of all degree-n algebras with discriminant exponent d."""
    return Fraction(partition_count(d, n - d), q**d)


# ---------------------------------------------------------------------------
# the helper functions A and B
# ---------------------------------------------------------------------------


def helper_AB(p: int, q, t: int):
    """The pair (A(t), B(t)) of geometric-sum helpers, exactly.

    q may be any positive rational; t must be at least 2.  These carry
    the two congruence-class subsums of
    sum over 1 <= c <= t, c != 1 mod p of q^{-(p-2)c - floor((c-2)/p)}.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    q = Fraction(q)
    if p == 2:
        half = t // 2
        A = q ** (1 - half) * (q**half - 1) / (q - 1)
        return A, Fraction(0)
    A = (
        q ** (-p * (p - 2))
        * ((q ** ((p - 1) * (p - 2)) - 1) / (q ** (p - 2) - 1))
        * ((q ** (-((p - 1) ** 2) * (t // p)) - 1) / (q ** (-((p - 1) ** 2)) - 1))
    )
    B = (
        q ** (-(t // p))
        * (q ** (-(p - 2) * (t + 1)) - q ** (-(p - 2) * ((t // p) * p + 2)))
        / (q ** (-(p - 2)) - 1)
    )
    return A, B


def identity_check(p: int, q, t: int) -> bool:
    """Exact check of the indicator identity expressing the c-sum via A, B."""
    q = Fraction(q)
    lhs = sum(
        (
            q ** (-(p - 2) * c - (c - 2) // p)
            for c in range(1, t + 1)
            if c % p != 1
        ),
        Fraction(0),
    )
    A, B = helper_AB(p, q, t)
    rhs = (A if t >= p else 0) + (B if t % p not in (0, 1) else 0)
    return lhs == rhs


# ---------------------------------------------------------------------------
# wildly ramified cyclic degree-p extensions
# ---------------------------------------------------------------------------


def count_Cp(F, m: int, profile: FiltrationProfile | None = None) -> int:
    """Number of cyclic degree-p extensions of F with v(disc) = m.

    With a ``profile`` (the filtration of a subgroup Abar of the p-th
    power classes), counts only the extensions whose norm group contains
    every generator.  The count is supported on m = (p-1)c with c up to
    pe/(p-1) + 1; the top value occurs only when F contains the p-th
    roots of unity.
    """
    p, q, e = F.p, F.q, F.e
    if profile is not None and profile.n != p:
        raise ValueError("profile must be a p-th power-class profile")
    if m <= 0 or m % (p - 1):
        return 0
    c = m // (p - 1)
    if (p * e) % (p - 1) == 0 and c == (p * e) // (p - 1) + 1:
        if not contains_mu_p(F):
            return 0
        if profile is None:
            return p * q**e
        if profile.size_at((p * e) // (p - 1)) != 1:
            return 0
        val = Fraction(p * q**e, profile.group_size)
    else:
        if c % p == 1 or c > ceil_frac(p * e, p - 1):
            return 0
        power = q ** (c - 2 - (c - 2) // p)
        if profile is None:
            val = Fraction(p * (q - 1), p - 1) * power
        else:
            layer = q * profile.size_at(c) - profile.size_at(c - 1)
            val = Fraction(p, (p - 1) * profile.group_size) * power * layer
    assert val.denominator == 1, (F, m, val)
    return int(val)


def premass_Cp_wild(F, profile: FiltrationProfile | None = None) -> Fraction:
    """Pre-mass of the cyclic totally (wildly) ramified degree-p extensions.

    Closed form via the A/B helpers; with a ``profile``, the constrained
    version summing only extensions whose norms contain the subgroup.
    Equals sum over m of count_Cp(F, m, profile) / (p q^m).
    """
    p, e = F.p, F.e
    if profile is not None and profile.n != p:
        raise ValueError("profile must be a p-th power-class profile")
    q = Fraction(F.q)
    t = ceil_frac(p * e, p - 1)
    if profile is None:
        A, B = helper_AB(p, q, t)
        main = (
            Fraction(F.q - 1, p - 1)
            / q**2
            * ((A if e >= p - 1 else 0) + (B if e % (p - 1) else 0))
        )
        mu = q ** (-(p - 1) * (e + 1)) if contains_mu_p(F) else Fraction(0)
        return main + mu
    total = Fraction(0)
    if contains_mu_p(F) and profile.size_at((p * e) // (p - 1)) == 1:
        total += q ** (-(p - 1) * (e + 1)) / profile.group_size
    layer_sum = sum(
        (
            (F.q * profile.size_at(c) - profile.size_at(c - 1))
            * q ** (-(p - 2) * c - (c - 2) // p)
            for c in range(1, t + 1)
            if c % p != 1
        ),
        Fraction(0),
    )
    total += layer_sum / ((p - 1) * profile.group_size * q**2)
    return total


def closed_form_alpha(F, alpha) -> Fraction:
    """Constrained wild pre-mass for a single generator, in closed form.

    Returns the pre-mass of the cyclic totally ramified degree-p
    extensions admitting alpha as a norm, evaluated without summing over
    discriminant layers.  A p-th power constrains nothing; an element of
    valuation prime to p cuts the unconstrained value by p.

    This is the paper's single-generator closed form.  The library sums
    layers with :func:`premass_Cp_wild` instead, and the tests
    cross-check the two on seeded generators over several wild bases.
    """
    p, e = F.p, F.e
    q = Fraction(F.q)
    alpha = F.coerce(alpha)
    c, _ = c_alpha(F, alpha)
    if c == -1:
        return premass_Cp_wild(F) / p
    if c is INF:
        return premass_Cp_wild(F)
    bound = Fraction(p * e, p - 1)
    t = ceil_frac(p * e, p - 1)
    lead = Fraction(F.q - 1, p - 1) / q**2
    total = Fraction(0)
    if c >= p:
        total += lead * helper_AB(p, q, c)[0]
    if c % p not in (0, 1):
        total += lead * helper_AB(p, q, c)[1]
    if c < bound:
        total += (
            Fraction(F.q - p, p - 1)
            / p
            * q ** (-2 - (p - 2) * (c + 1) - c // p)
        )
    if c < bound - 1:
        a_top = helper_AB(p, q, t)[0] if e >= p - 1 else Fraction(0)
        a_c = helper_AB(p, q, c + 1)[0] if c >= p - 1 else Fraction(0)
        total += lead / p * (a_top - a_c)
        if e % (p - 1):
            total += lead / p * helper_AB(p, q, t)[1]
        if c % p not in (0, p - 1):
            total -= lead / p * helper_AB(p, q, c + 1)[1]
    if c < bound and contains_mu_p(F):
        total += q ** (-(p - 1) * (e + 1)) / p
    return total


# ---------------------------------------------------------------------------
# the total pre-mass in prime degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassReport:
    """A pre-mass broken into labeled summands."""

    parts: tuple  # of (label, Fraction)

    @property
    def total(self) -> Fraction:
        return sum((v for _, v in self.parts), Fraction(0))

    def part(self, label: str) -> Fraction:
        for k, v in self.parts:
            if k == label:
                return v
        raise KeyError(label)


def premass_ell_total(F, ell: int, gens=()) -> MassReport:
    """Pre-mass of degree-ell etale algebras whose norms contain <gens>.

    Four labeled summands: the unramified field, the totally ramified
    fields, the algebras with a surjective reduction map (a constant
    1 - 1/ell), and the middle discriminant layers (unconstrained, since
    those algebras split enough to have full norm groups).
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    q = Fraction(F.q)
    prof = filtration_profile(F, gens, ell)
    # a class of valuation prime to ell (size_at(0) < group_size) is a
    # norm from no unramified field
    part_unram = Fraction(1, ell) if prof.size_at(0) == prof.group_size else Fraction(0)
    if ell == F.p:
        part_ram = q ** (1 - ell) - premass_Cp_wild(F) + premass_Cp_wild(F, prof)
    elif (F.q - 1) % ell != 0 or prof.is_trivial():
        part_ram = q ** (1 - ell)
    elif prof.group_size == ell and prof.size_at(0) == 1:
        # Abar is one line, through a class of valuation prime to ell
        part_ram = q ** (1 - ell) / ell
    else:
        part_ram = Fraction(0)
    layers = sum(
        (disc_layer_premass(ell, d, F.q) for d in range(1, ell - 1)), Fraction(0)
    )
    return MassReport(
        parts=(
            (f"({ell})", part_unram),
            (f"(1^{ell})", part_ram),
            ("epi", Fraction(ell - 1, ell)),
            ("layers", layers),
        )
    )
