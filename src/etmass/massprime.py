"""Pre-masses of degree-ell etale algebras, for ell prime.

The pre-mass of a set S of etale algebras is the sum of
1/(#Aut * q^{v(disc)}) over its members.  This module provides the
combinatorial layer (splitting symbols and their exact pre-masses), the
counts of wildly ramified cyclic degree-p extensions by discriminant
valuation with an optional norm constraint, and the assembled total for
a prime degree: the sum of an unramified part, a totally ramified part,
a surjective-reduction constant, and the middle discriminant layers.

Those four parts are written once, as the rows of :func:`tame_rows`:
integer coefficients of q^(ell-1) .. q^0 over ell * q^(ell-1), keyed
on whether every generator's valuation is divisible by ell and on the
totally ramified key of the rank rule :func:`tame_ram`.
:func:`premass_ell_total` evaluates them at q, with the wild term in
place of the totally ramified row when ell = p, and
``density._tame_numerator`` sums them for its tame Euler factors.

The cyclic counts are class-group indices.  By local class field theory
the cyclic degree-p extensions of conductor at most c whose norm groups
contain A are cut out by the characters of F^x/(A U^(c) F^{x p}), whose
order is ``quotient_size(F, c)`` |Abar cap U^(c)| / |Abar|, read off
A's filtration profile.  :func:`count_Cp` is a difference of two such
indices (:func:`char_count`) at every level, and :func:`premass_Cp_wild`
sums its counts.

All arithmetic is exact: counts are integers and every mass is a
``Fraction``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .unitgroups import FiltrationProfile, filtration_profile, quotient_size
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

    Each token is a one-digit residue degree, optionally followed by
    ``^`` and a ramification index of any number of digits; parentheses,
    commas, and spaces are cosmetic.
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
            j = i + 1
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError(f"bad symbol {text!r}")
            e = int(s[i + 1 : j])
            i = j
        pairs.append((e, f))
    if not pairs:
        raise ValueError(f"bad symbol {text!r}")
    return SplittingSymbol(tuple(pairs))


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


def char_count(F, c: int, profile: FiltrationProfile | None = None) -> int:
    """N(c) = |F^x / (A U^(c) F^{x p})|: the characters of F^x/F^{x p}
    of conductor at most c that are trivial on A, where the image of A
    in F^x/U^(c)F^{x p} has order |Abar| / |Abar cap U^(c)|.  At p = 2
    they are the quadratic characters that every quartic count reads.
    ``profile`` is A's filtration (``ValueError`` unless n = p); ``None``
    is A = 1."""
    if profile is None:
        return quotient_size(F, c)
    if profile.n != F.p:
        raise ValueError("profile must be a p-th power-class profile")
    return quotient_size(F, c) * profile.size_at(c) // profile.group_size


def count_Cp(F, m: int, profile: FiltrationProfile | None = None) -> int:
    """Number of cyclic degree-p extensions of F with v(disc) = m.

    With a ``profile`` (the filtration of a subgroup Abar of the p-th
    power classes), counts only the extensions whose norm group contains
    every generator; ``None`` is the trivial group.  By local class
    field theory such an extension of conductor c has v(disc) = (p-1)c
    and is cut out by the p - 1 characters of order p of F^x/F^{x p}
    with conductor c that are trivial on A, so the count at m = (p-1)c
    is (N(c) - N(c-1)) / (p-1), N the index of :func:`char_count`.
    It vanishes unless c <= pe/(p-1) with c != 1 mod p, or c is the top
    value pe/(p-1) + 1 and F contains mu_p.
    """
    p = F.p
    if m <= 0 or m % (p - 1):
        return 0
    c = m // (p - 1)
    count, rem = divmod(char_count(F, c, profile) - char_count(F, c - 1, profile), p - 1)
    assert rem == 0, (F, m)
    return count


def premass_Cp_wild(F, profile: FiltrationProfile | None = None) -> Fraction:
    """Pre-mass of the cyclic totally (wildly) ramified degree-p extensions
    whose norm groups contain Abar (every one when ``profile`` is None):
    the sum over m of count_Cp(F, m, profile) / (p q^m), taken up to the
    top conductor pe/(p-1) + 1 over one denominator.
    """
    p, q = F.p, F.q
    top = (p - 1) * (p * F.e // (p - 1) + 1)
    num = sum(count_Cp(F, m, profile) * q ** (top - m) for m in range(p - 1, top + 1, p - 1))
    return Fraction(num, p * q**top)


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


def horner(coeffs, q: int) -> int:
    """The integer polynomial with ``coeffs`` (highest power first) at q."""
    total = 0
    for c in coeffs:
        total = total * q + c
    return total


def tame_ram(ell: int, q: int, pairs, power, one) -> int:
    """The (1^ell) key of :func:`tame_rows` for a prime ell != p: ell, 1
    or 0 for a totally ramified pre-mass of q^(1-ell), q^(1-ell)/ell or 0.

    ``pairs`` holds one (a, chi) per generator: a = v mod ell and chi
    the ell-th power residue symbol of its unit part, which
    ``power(chi, k)`` raises to the k-th power; ``one`` is the trivial
    symbol.  If ell does not divide q - 1 the one totally ramified field
    has no proper abelian subfield, so its norm group is F^x.  Else
    there are ell cyclic ones of pre-mass q^(1-ell)/ell each, their norm
    groups the lines of F^x/F^{x ell} = (Z/ell)^2 other than the units'.
    All contain Abar when it is trivial, one when it is one line through
    a class of valuation prime to ell, none otherwise.  Classes are
    (a, log chi): two are dependent exactly when chi_j^(a_i) == chi_i^(a_j).
    """
    if (q - 1) % ell or all(a == 0 and chi == one for a, chi in pairs):
        return ell
    if any(a for a, _ in pairs) and all(
        power(cj, ai) == power(ci, aj) for (ai, ci), (aj, cj) in combinations(pairs, 2)
    ):
        return 1
    return 0


@lru_cache(maxsize=None)
def tame_rows(ell: int, unram: bool, ram: int) -> tuple:
    """The pre-mass of degree-ell etale algebras, ell a prime, as labelled
    rows over ell * q^(ell-1): (label, coefficients of q^(ell-1) .. q^0).

    - (ell): the unramified field, 1/ell when ``unram`` (every
      generator's valuation is divisible by ell), else 0;
    - (1^ell): the totally ramified fields, ram/(ell q^(ell-1));
    - epi: the algebras with a surjective reduction map, (ell - 1)/ell;
    - layers: Part(d, ell-d)/q^d for 0 < d < ell - 1, unconstrained,
      since those algebras split enough to have full norm groups.
    """
    zeros = (0,) * (ell - 1)
    return (
        (f"({ell})", (int(unram), *zeros)),
        (f"(1^{ell})", (*zeros, ram)),
        ("epi", (ell - 1, *zeros)),
        ("layers", (0, *(ell * partition_count(d, ell - d) for d in range(1, ell - 1)), 0)),
    )


def premass_ell_total(F, ell: int, gens=()) -> MassReport:
    """Pre-mass of degree-ell etale algebras whose norms contain <gens>.

    The four rows of :func:`tame_rows` at q.  When ell = p the (1^ell)
    row is wild: Serre's unconstrained q^(1-ell), less the cyclic
    extensions :func:`premass_Cp_wild` counts, plus those of them whose
    norm groups contain every generator.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    q = F.q
    if ell == F.p:
        prof = filtration_profile(F, gens, ell)
        unram, ram = prof.size_at(0) == prof.group_size, ell
    else:
        k, r = divmod(q - 1, ell)
        pairs = []
        for g in gens:
            g = F.coerce(g)
            v = F.val(g)
            if v is INF:
                raise ValueError("alpha must be nonzero")
            u = F.shift(g, -v) if v else g
            pairs.append((v % ell, F.rf.one if r else F.rf.pow(F.residue(u), k)))
        unram = not any(a for a, _ in pairs)
        ram = tame_ram(ell, q, pairs, F.rf.pow, F.rf.one)
    den = ell * q ** (ell - 1)
    parts = [(label, Fraction(horner(c, q), den)) for label, c in tame_rows(ell, unram, ram)]
    if ell == F.p:
        label, serre = parts[1]
        parts[1] = (label, serre - premass_Cp_wild(F) + premass_Cp_wild(F, prof))
    return MassReport(tuple(parts))
