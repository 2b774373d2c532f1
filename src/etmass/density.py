"""Euler-product densities of S_n number fields (n = 3, 4, 5).

Assembles the exact per-prime local masses into a rigorous two-sided
rational interval for the density coefficient

    lim N(X; A) / X  =  1/2 * (archimedean mass) * prod_p m_{A,p},

where A is the subgroup of Q^x generated by the given rationals and
m_{A,p} = ((q-1)/q) * premass of the degree-n etale algebras over Q_p
whose norm groups contain A.  Primes up to the bound B are computed
exactly; the tail p > B is enclosed using the engineering bound

    |m_{A,p} - 1| <= C_n / p^2   for p > B,

with C_n = 4(n-1) * max_d Part(d, n-d).  The constant is deliberately
loose; the doubling property (the interval for 2B is contained in the
interval for B) is what certifies the enclosures in practice, and it
holds exactly for these bounds because
sum_{p>B} p^{-2} <= sum_{m>B} 1/(m(m-1)) = 1/B telescopes.

The proportion lim N(X; A)/N(X) is enclosed via the product of the
per-prime ratios m_{A,p}/m_p, each of which lies in (0, 1].

The local masses come from two paths.  At a tame prime p, one not
dividing n, ``tame_local_mass`` evaluates the closed forms from
integers alone: each generator's valuation, p mod n and the
power-residue symbols of its unit part.  Only at the wild primes p | n
(3 for n = 3, 2 for n = 4, 5 for n = 5) does ``local_mass`` build Q_p
and run the local pre-mass machinery.

The finite products are exact: ``exact_product`` multiplies the
factors in runs of 64 and the runs in a balanced tree, so the big gcds
fall on operands of equal size rather than on one ever-growing running
product.  Each factor comes with a radical, an integer that every prime
of its denominator divides; a run is cancelled once through the
product of its radicals, and a merge cancels each numerator against
the other side's denominator through that side's radical.  A mass
whose denominator divides c * p^n (c = 3, 8, 5 for n = 3, 4, 5) comes
with the radical p * gcd(denominator, c), a third to a fifth the size
of its denominator; a wild mass with generators and every ratio come
with their own denominators.  No final gcd runs, and the result is the
same reduced ``Fraction`` a sequential product gives.
``euler_density`` builds each triple from the integers it holds: the
full factor's numerator is -1 mod p, so that factor is reduced as it
stands, and a tame mass costs one small gcd with its scale * p^n and
one ``pow`` per generator num/den, on num * den^(n-1).

The returned ``DensityInterval`` checks its ends' order exactly, but
reads it off their floats whenever those differ, so certifying an
interval whose ends have hundreds of thousands of bits multiplies no
two of them.

Everything is a ``Fraction``; decimal rendering is display-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import factorial, gcd, prod

from .massprime import partition_count, premass_ell_total
from .massquartic import premass4, tame_coefficients
from .padic import LocalField, PrecisionError, is_prime, trial_divide


SUPPORTED_DEGREES = (3, 4, 5)


# ---------------------------------------------------------------------------
# small number-theory helpers over the rationals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def primes_up_to(bound: int) -> tuple:
    """All primes <= bound, by sieve.

    The last few bounds are memoised: a run repeats its one bound, and a
    long-running process that sweeps bounds keeps at most eight tuples.
    """
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for m in range(2, int(bound**0.5) + 1):
        if flags[m]:
            flags[m * m :: m] = bytearray(len(flags[m * m :: m]))
    return tuple(m for m in range(2, bound + 1) if flags[m])


def _require_prime(p: int) -> None:
    """Raise ``ValueError`` unless p is a prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")


def rational_valuation(r: Fraction, p: int) -> int:
    """The exact p-adic valuation of a nonzero rational, p a prime."""
    _require_prime(p)
    if r == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_nth_power_rational(r: Fraction, n: int) -> bool:
    """Whether r is an n-th power in Q^x (exact)."""
    r = Fraction(r)
    if r == 0:
        return False
    if r < 0:
        if n % 2 == 0:
            return False
        return is_nth_power_rational(-r, n)

    def _root_ok(m: int) -> bool:
        if m < 2:
            return True
        # exact floor n-th root by integer Newton iteration
        x = 1 << -(-m.bit_length() // n)
        while True:
            y = ((n - 1) * x + m // x ** (n - 1)) // n
            if y >= x:
                break
            x = y
        return x**n == m

    return _root_ok(r.numerator) and _root_ok(r.denominator)


# ---------------------------------------------------------------------------
# spec and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalSpec:
    """A global counting problem over Q.

    ``n`` is the field degree, ``gens`` the rationals generating the
    prescribed norm subgroup, and ``prime_bound`` the cutoff B: primes
    p <= B get exact local masses, the rest are enclosed by the tail
    bound.  The base field is Q (one real place, residue 1 at s = 1).
    """

    n: int
    gens: tuple
    prime_bound: int

    def __post_init__(self):
        if self.n not in SUPPORTED_DEGREES:
            raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}")
        gens = tuple(Fraction(g) for g in self.gens)
        if any(g == 0 for g in gens):
            raise ValueError("generators must be nonzero")
        object.__setattr__(self, "gens", gens)
        # Only primes up to the bound are tried: a cofactor left over is
        # prime when it is below (B+1)^2 and otherwise has a prime factor
        # above B, either way a prime the bound must clear.
        bound = self.prime_bound
        bad = set()
        for g in gens:
            for m in (g.numerator, g.denominator):
                found, rest = trial_divide(m, bound)
                bad |= found
                if rest >= (bound + 1) ** 2:
                    raise ValueError(
                        f"generator {g} has a prime factor above the prime bound {bound}"
                    )
                if rest > 1:
                    bad.add(rest)
        floor = max([self.n] + sorted(bad)) + 1
        if self.prime_bound < floor:
            raise ValueError(
                f"prime_bound must be at least {floor} for these generators"
            )


@dataclass(frozen=True)
class DensityInterval:
    """Exact rational enclosures of the density and the proportion.

    ``coeff_lo <= lim N(X;A)/X <= coeff_hi`` and
    ``prop_lo <= lim N(X;A)/N(X) <= prop_hi``; ``per_prime`` lists the
    exact local mass factors (p, m_{A,p}) for p up to the bound.
    ``prop_hi == 1`` exactly when every computed local mass equals the
    full mass and the archimedean factor is unconstrained.

    Construction checks ``0 <= coeff_lo <= coeff_hi`` and
    ``0 <= prop_lo <= prop_hi <= 1`` exactly and raises ``ValueError``
    when either fails.  The ends can be fractions of hundreds of
    thousands of bits, so ``lo <= hi`` is decided by ``_ordered``:
    from the ends' floats when those differ, by the exact comparison
    otherwise.
    """

    coeff_lo: Fraction
    coeff_hi: Fraction
    prop_lo: Fraction
    prop_hi: Fraction
    per_prime: tuple

    def __post_init__(self):
        if not (0 <= self.coeff_lo and _ordered(self.coeff_lo, self.coeff_hi)):
            raise ValueError("bad coefficient interval")
        if not (0 <= self.prop_lo and _ordered(self.prop_lo, self.prop_hi) and self.prop_hi <= 1):
            raise ValueError("bad proportion interval")


def _ordered(lo, hi) -> bool:
    """Whether lo <= hi, exactly, with no product of the two ends.

    ``float()`` of a ``Fraction`` is the true division of its numerator
    by its denominator, which CPython rounds correctly in time linear in
    their size.  Correct rounding is monotone: lo <= hi implies
    float(lo) <= float(hi).  So float(lo) < float(hi) proves lo < hi,
    and float(lo) > float(hi) proves lo > hi.  Only when the floats are
    equal, or when either end overflows a float, is the exact
    comparison run; it cross-multiplies the ends.
    """
    try:
        flo, fhi = float(lo), float(hi)
    except OverflowError:
        return lo <= hi
    if flo != fhi:
        return flo < fhi
    return lo <= hi


# ---------------------------------------------------------------------------
# archimedean and per-prime factors
# ---------------------------------------------------------------------------


def archimedean_mass(n: int, all_positive: bool = True, place: str = "real") -> Fraction:
    """Mass of the degree-n etale algebras over R or C meeting A.

    Over C every algebra C^n works: 1/n!.  Over R the algebras are
    R^{n-2s} x C^s; each contributes 1/(s!(n-2s)!2^s), and a negative
    generator needs at least one real factor, which only matters for
    even n (it excludes s = n/2).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if place == "complex":
        return Fraction(1, factorial(n))
    if place != "real":
        raise ValueError(f"unknown place {place!r}")
    top = n // 2 if all_positive else -(-n // 2) - 1
    return sum(
        (
            Fraction(1, factorial(s) * factorial(n - 2 * s) * 2**s)
            for s in range(top + 1)
        ),
        Fraction(0),
    )


def local_profile_at_prime(gens, p: int):
    """Embed rational generators into Q_p exactly.

    Returns (F, embedded) where F is the local field Q_p and each
    generator is mapped with its exact valuation, read off from the
    factorization of numerator and denominator.
    """
    gens = tuple(Fraction(g) for g in gens)
    if any(g == 0 for g in gens):
        raise ValueError("generators must be nonzero")
    F = LocalField(p, 1, 1)
    embedded = []
    for g in gens:
        v = rational_valuation(g, p)
        try:
            x = F.from_rational(g)
            ok = F.val(x) == v
        except PrecisionError:
            ok = False
        if not ok:
            raise ValueError(f"generator {g} exceeds the working precision at {p}")
        embedded.append(x)
    return F, tuple(embedded)


def _full_numerator(n: int, p: int) -> int:
    """The numerator of ``full_local_factor(n, p)`` over p^n."""
    if n == 3:
        return p**3 - 1
    if n == 4:
        return p**4 + p**2 - p - 1
    if n == 5:
        return p**5 + p**3 - p - 1
    raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}")


def full_local_factor(n: int, p: int) -> Fraction:
    """The unconstrained (full-norm-group) local mass factor at p.

    1 - p^-3, 1 + p^-2 - p^-3 - p^-4 and 1 + p^-2 - p^-4 - p^-5 for
    n = 3, 4, 5, over p^n; each numerator is -1 mod p, so the fraction
    is already reduced and is built without a gcd.
    """
    _require_prime(p)
    return _fraction_from_coprime(_full_numerator(n, p), p**n)


def local_mass(n: int, p: int, gens=()) -> Fraction:
    """The exact local mass m_{A,p} = ((q-1)/q) * premass at p.

    The general path, valid at every prime: it builds Q_p, embeds the
    generators and runs the local pre-mass formulas.  ``euler_density``
    uses it only at the wild primes p | n and takes ``tame_local_mass``
    elsewhere.  Each generator is first divided by the n-th power
    p^(n*floor(v/n)), which is a norm from every degree-n algebra, so
    the embedded valuations lie in [0, n) however large the input's.
    """
    _require_prime(p)
    if not gens:
        return full_local_factor(n, p)
    gens = tuple(Fraction(g) for g in gens)
    gens = tuple(g / Fraction(p) ** (n * (rational_valuation(g, p) // n)) for g in gens)
    F, embedded = local_profile_at_prime(gens, p)
    if n == 4:
        pre = premass4(F, embedded).total
    else:
        pre = premass_ell_total(F, n, embedded).total
    return Fraction(p - 1, p) * pre


def _tame_rank_case(pairs, p: int) -> int:
    """How <gens> sits in Q_p^x / Q_p^{x ell}, for a prime ell | p - 1.

    ``pairs`` holds one (a, chi) per generator: a = v mod ell and chi
    the ell-th power residue symbol u^((p-1)/ell) mod p of its unit part
    u, so its class is the vector (a, log chi).  Two classes are
    dependent exactly when chi_j^(a_i) == chi_i^(a_j) mod p.  Returns 0
    when every class is trivial, 1 when the classes span one line
    through a class of valuation prime to ell (the filtration profile
    has group size ell and a trivial level 0), and 2 otherwise.
    """
    if all(a == 0 and chi == 1 for a, chi in pairs):
        return 0
    if any(a for a, _ in pairs) and all(
        pow(cj, ai, p) == pow(ci, aj, p) for (ai, ci), (aj, cj) in combinations(pairs, 2)
    ):
        return 1
    return 2


def tame_local_mass(n: int, p: int, gens=()) -> Fraction:
    """The local mass m_{A,p} at a prime p not dividing n, from integers.

    Equal to ``local_mass(n, p, gens)``, but no local field is built.
    Write each generator as p^v * u with u a p-adic unit; the mass
    depends only on each v mod n, on p mod n and on the power-residue
    symbols of u mod p.  The pre-mass is summed as one integer
    numerator over ell * p^(ell-1) for n = ell = 3, 5 and over 8 * p^3
    for n = 4, and the mass is returned as a single ``Fraction``.
    """
    if n not in SUPPORTED_DEGREES:
        raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}")
    _require_prime(p)
    if n % p == 0:
        raise ValueError(f"{p} divides the degree {n}: the mass there is wild")
    gens = tuple(Fraction(g) for g in gens)
    if any(g == 0 for g in gens):
        raise ValueError("generators must be nonzero")
    if not gens:
        return full_local_factor(n, p)
    return Fraction(_tame_numerator(n, p, _tame_gens(n, gens)), _tame_scale(n) * p**n)


def _tame_scale(n: int) -> int:
    """c with ``_tame_numerator`` counted over c * p^n: 8 for n = 4, else n."""
    return 8 if n == 4 else n


def _tame_gens(n: int, gens) -> list:
    """num * den^(n-1) for each generator num/den, as ``_tame_numerator`` reads it."""
    return [g.numerator * g.denominator ** (n - 1) for g in gens]


@lru_cache(maxsize=None)
def _tame_layers(ell: int) -> tuple:
    """Coefficients of q^(ell-1) .. q^0 in the epimorphism and layer terms of
    the tame numerator: ell - 1, ell * Part(d, ell-d) for 0 < d < ell-1, 0."""
    return (ell - 1, *(ell * partition_count(d, ell - d) for d in range(1, ell - 1)), 0)


def _tame_numerator(n: int, q: int, gens) -> int:
    """``tame_local_mass`` times ``_tame_scale(n) * q^n``, an integer, for a
    prime q not dividing n, on ``_tame_gens`` integers G = q^v * u, whose
    v mod n and symbol of u are the generator's (see ``euler_density``):
    one ``pow`` each, none when gcd(n, q - 1) = 1."""
    h = gcd(n, q - 1)
    e = (q - 1) // h
    classes = []  # (v mod n, symbol)
    for G in gens:
        v = 0
        while G % q == 0:
            G //= q
            v += 1
        classes.append((v % n, pow(G, e, q) if h > 1 else 1))
    if n == 4:
        # (v mod 4, dlog u mod h), the dlog read off against whichever
        # primitive 4th root of unity is the smaller residue
        images = frozenset(
            (a, 0 if chi == 1 else h // 2 if chi == q - 1 else 1 if chi < q - chi else 3)
            for a, chi in classes
        )
        k1212, k22, k14 = tame_coefficients(images, h)
        # over 8 q^3: epi, (4), (2 2), (1^2 1^2), (2^2), (1^4)
        total = (
            q * (5 * q * q + 8 * q + 8)
            + (2 * q**3 if all(a == 0 for a, _ in images) else 0)
            + (q**3 if all(a % 2 == 0 for a, _ in images) else 0)
            + (k1212 + k22) * q
            + k14
        )
        return (q - 1) * total
    ell = n
    total = 0
    for c in _tame_layers(ell):
        total = total * q + c
    # totally ramified: when h = 1 every unit is an ell-th power,
    # q^(1-ell); else the rank case gives q^(1-ell), q^(1-ell)/ell or 0
    total += ell if h == 1 else (ell, 1, 0)[_tame_rank_case(classes, q)]
    if not any(a for a, _ in classes):
        total += q ** (ell - 1)  # unramified
    return (q - 1) * total


@lru_cache(maxsize=None)
def tail_constant(n: int) -> int:
    """C_n = 4(n-1) * max_d Part(d, n-d), the loose tail bound constant."""
    return 4 * (n - 1) * max(partition_count(d, n - d) for d in range(n + 1))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _fraction_from_coprime(numerator: int, denominator: int) -> Fraction:
    """The ``Fraction`` numerator/denominator, for coprime integers with
    denominator > 0, built without the gcd ``Fraction()`` would take.

    The only place the library sets ``Fraction``'s ``_numerator`` and
    ``_denominator`` slots; the tests check that its output behaves as
    ``Fraction(numerator, denominator)`` does.
    """
    out = object.__new__(Fraction)
    out._numerator = numerator
    out._denominator = denominator
    return out


def _cancel(num: int, den: int, radical: int):
    """num and den divided by their gcd, where every prime of den divides
    ``radical``: only the primes of gcd(num, radical) are tried."""
    h = gcd(num, radical)
    while h > 1:
        h = gcd(h, den)
        num //= h
        den //= h
        h = gcd(num, h)
    return num, den


_RUN = 64  # leaves per run of ``exact_product``


def exact_product(factors) -> Fraction:
    """The exact product of (numerator, denominator, radical) triples.

    Each triple is a reduced fraction numerator/denominator, with
    denominator > 0, and a radical: any integer that every prime of the
    denominator divides (the denominator itself always is one).  The
    leaves are taken in runs of R = ``_RUN`` = 64: a run multiplies its
    numerators, denominators and radicals, and one ``_cancel`` through
    the run's radical reduces it.  R = 32 to 128 timed alike on the
    ``density-local`` and ``density-product`` inputs (Python 3.11, 2-core
    Xeon); R = 8 and 256 were slower, R = 1024 by about 30%.  The runs are
    multiplied in a balanced tree, a binary-counter stack of (partial
    product, run count): the top two entries merge while they cover
    equally many runs.  A merge cancels each side's numerator against
    the other side's denominator through the other side's radical, then
    multiplies numerators, denominators and radicals; the merged pair is
    coprime again, so the result is the reduced product with no gcd of
    its own (``Fraction(0)`` when a factor is zero).
    """

    def merge(a, b):
        n1, d1, r1 = a
        n2, d2, r2 = b
        n1, d2 = _cancel(n1, d2, r2)
        n2, d1 = _cancel(n2, d1, r1)
        return n1 * n2, d1 * d2, r1 * r2

    stack = []
    it = iter(factors)
    for run in iter(lambda: list(islice(it, _RUN)), []):
        num, den, rad = map(prod, zip(*run))
        x = (*_cancel(num, den, rad), rad)
        count = 1
        while stack and stack[-1][1] == count:
            x = merge(stack.pop()[0], x)
            count *= 2
        stack.append((x, count))
    out = (1, 1, 1)
    for x, _ in reversed(stack):
        out = merge(x, out)
    num, den, _ = out
    return _fraction_from_coprime(num, den) if num else Fraction(0)


def euler_density(spec: GlobalSpec) -> DensityInterval:
    """Enclose the density coefficient and the proportion for ``spec``.

    Each local mass at p <= B is exact: the integer numerator behind
    ``tame_local_mass`` at p prime to n, ``local_mass`` (a
    ``LocalField`` per call) at p | n.  Each generator num/den is read
    once as G = num * den^(n-1) = (num/den) * den^n, an n-th power times
    num/den, so at every tame p it has num/den's valuation mod n and
    n-th power residue symbol, one ``pow``; p is stripped from G alone.
    At a tame prime the mass and the
    full factor are integer numerators over the same denominator, so
    the mass and the ratio are reduced by one small-integer gcd each,
    and no ``Fraction`` is divided; such a mass, and a full factor, is
    built by ``_fraction_from_coprime``.  The finite product over
    p <= B is exact.  Each mass enters ``exact_product`` with the radical
    p * gcd(denominator, scale) when its denominator divides
    scale * p^n, and with its own denominator otherwise (a wild mass
    with generators; every ratio); the product takes them in runs of 64.
    The tail multiplier lies in [1 - C_n/B, 1/(1 - C_n/B)] since each
    omitted factor is within C_n/p^2 of 1 and sum_{p>B} p^{-2} <= 1/B;
    the tail of the ratio product lies in [1 - C_n/B, 1] since each
    ratio is in (0, 1].
    """
    n, bound = spec.n, spec.prime_bound
    c_n = tail_constant(n)
    if bound <= c_n:
        raise ValueError(
            f"prime bound {bound} is below the tail guard C_{n} = {c_n}"
        )
    tame_gens = _tame_gens(n, spec.gens)
    per_prime = []
    ratios = []  # (numerator, denominator, radical) of each ratio other than 1
    scale = _tame_scale(n)

    def masses():
        # The per-prime loop: it yields each mass's triple to
        # exact_product as it goes, so no list of triples is held beside
        # per_prime, and it fills per_prime and ratios on the way.
        for p in primes_up_to(bound):
            den = p**n
            if not spec.gens:
                num = _full_numerator(n, p)  # -1 mod p: prime to den
                # an exactly sized copy: p**n keeps its last product's
                # spare digit, 16 bytes on each denominator per_prime keeps
                den //= 1
            elif n % p:
                t = _tame_numerator(n, p, tame_gens)
                full_t = scale * _full_numerator(n, p)
                assert 0 < t <= full_t, (p, t, full_t)
                if t != full_t:
                    h = gcd(t, full_t)
                    ratios.append((t // h, full_t // h, full_t // h))
                den *= scale
                h = gcd(t, den)
                num, den = t // h, den // h
            else:
                # a wild mass with generators and its ratio take their
                # own denominators as radicals
                m = local_mass(n, p, spec.gens)
                full = full_local_factor(n, p)
                assert 0 < m <= full, (p, m, full)
                if m != full:
                    r = m / full
                    ratios.append((r.numerator, r.denominator, r.denominator))
                per_prime.append((p, m))
                yield m.numerator, m.denominator, m.denominator
                continue
            # den divides scale * p^n
            per_prime.append((p, _fraction_from_coprime(num, den)))
            yield num, den, p * gcd(den, scale)

    finite = exact_product(masses())
    ratio = exact_product(ratios)  # complete once masses() is exhausted

    arch = archimedean_mass(n, all_positive=all(g > 0 for g in spec.gens))
    arch_ratio = arch / archimedean_mass(n, all_positive=True)
    point = Fraction(1, 2) * arch * finite
    slack = Fraction(c_n, bound)

    prop_point = arch_ratio * ratio
    if all(is_nth_power_rational(g, n) for g in spec.gens):
        # an n-th power is a norm from every etale algebra, at every
        # place: the constraint is empty and the proportion is exactly 1
        assert prop_point == 1
        prop_lo = prop_hi = Fraction(1)
    else:
        prop_hi = prop_point
        prop_lo = max(Fraction(0), prop_point * (1 - slack))
    return DensityInterval(
        coeff_lo=point * (1 - slack),
        coeff_hi=point / (1 - slack),
        prop_lo=prop_lo,
        prop_hi=prop_hi,
        per_prime=tuple(per_prime),
    )
