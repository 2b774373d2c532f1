"""Tests for the Euler-product density assembly."""

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etmass import density as dens
from etmass.massprime import premass_ell_total
from etmass.massquartic import premass4
from etmass.padic import LocalField, QuadExt


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_primes_up_to():
    assert dens.primes_up_to(1) == ()
    assert dens.primes_up_to(2) == (2,)
    assert dens.primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(dens.primes_up_to(10_000)) == 1229


def test_primes_up_to_cache_stays_bounded():
    # a process sweeping prime bounds must not keep every prime tuple
    maxsize = dens.primes_up_to.cache_info().maxsize
    assert maxsize is not None
    for bound in range(100, 400):
        assert dens.primes_up_to(bound)[-1] <= bound
        assert dens.primes_up_to.cache_info().currsize <= maxsize
    # a repeated bound is still a hit
    hits = dens.primes_up_to.cache_info().hits
    dens.primes_up_to(399)
    assert dens.primes_up_to.cache_info().hits == hits + 1


def test_rational_valuation():
    assert dens.rational_valuation(Fraction(8, 3), 2) == 3
    assert dens.rational_valuation(Fraction(9, 5), 5) == -1
    assert dens.rational_valuation(Fraction(7), 3) == 0
    with pytest.raises(ValueError):
        dens.rational_valuation(Fraction(0), 2)


def test_is_nth_power_rational():
    assert dens.is_nth_power_rational(Fraction(32), 5)
    assert dens.is_nth_power_rational(Fraction(-27, 8), 3)
    assert dens.is_nth_power_rational(Fraction(1), 7)
    assert not dens.is_nth_power_rational(Fraction(-16), 4)
    assert not dens.is_nth_power_rational(Fraction(2), 3)
    assert not dens.is_nth_power_rational(Fraction(0), 3)
    big = Fraction(10**30 + 1) ** 3
    assert dens.is_nth_power_rational(big, 3)
    assert not dens.is_nth_power_rational(big + 1, 3)


# ---------------------------------------------------------------------------
# spec and interval validation
# ---------------------------------------------------------------------------


def test_global_spec_validation():
    with pytest.raises(ValueError):
        dens.GlobalSpec(6, (), 100)
    with pytest.raises(ValueError):
        dens.GlobalSpec(3, (0,), 100)
    with pytest.raises(ValueError):
        # 7 divides a generator, so the bound must clear 7
        dens.GlobalSpec(3, (Fraction(1, 7),), 5)
    spec = dens.GlobalSpec(3, ("-4/9",), 50)
    assert spec.gens == (Fraction(-4, 9),)


def test_global_spec_trial_division_stops_at_the_bound():
    # a 31-digit generator is refused at once, not factored
    big = 10**30 + 57
    for g in (big, Fraction(3, big), 1009 * 1013):
        with pytest.raises(ValueError, match=f"generator {g} has a prime factor above"):
            dens.GlobalSpec(3, (g,), 1000)
    # a cofactor below (B+1)^2 is a prime the bound must clear
    with pytest.raises(ValueError, match="prime_bound must be at least 1010"):
        dens.GlobalSpec(3, (Fraction(2 * 1009, 3),), 1000)
    with pytest.raises(ValueError, match="prime_bound must be at least 954"):
        dens.GlobalSpec(3, (953,), 30)
    with pytest.raises(ValueError, match="prime_bound must be at least 32"):
        dens.GlobalSpec(3, (29 * 31,), 30)
    with pytest.raises(ValueError, match="generator 961 has a prime factor above"):
        dens.GlobalSpec(3, (31 * 31,), 30)
    spec = dens.GlobalSpec(3, (Fraction(-2 * 1009, 1013),), 1014)
    assert spec.gens == (Fraction(-2018, 1013),)


def test_density_interval_validation():
    one = Fraction(1)
    with pytest.raises(ValueError):
        dens.DensityInterval(one, one / 2, one, one, ())
    with pytest.raises(ValueError):
        dens.DensityInterval(one / 2, one, one / 2, 2 * one, ())


_TINY = Fraction(1, 10**400)  # below float range: float() gives 0.0
_HUGE = Fraction(10**400, 3)  # beyond float range: float() overflows
_THIRD = Fraction(1, 3)


@pytest.mark.parametrize(
    "lo,hi,ok",
    [
        # adjacent ends whose floats coincide
        (_THIRD, _THIRD + _TINY, True),
        (_THIRD + _TINY, _THIRD, False),
        (_HUGE, _HUGE + 1, True),
        (_HUGE + 1, _HUGE, False),
        (_HUGE, Fraction(1), False),
        (Fraction(1), _HUGE, True),
        (_TINY, 2 * _TINY, True),
        (2 * _TINY, _TINY, False),
        (Fraction(0), _TINY, True),
        (_THIRD, _THIRD, True),
        (_HUGE, _HUGE, True),
        (-_TINY, Fraction(1), False),
        (Fraction(-1), Fraction(1), False),
    ],
)
def test_density_interval_orders_coefficient_ends(lo, hi, ok):
    make = lambda: dens.DensityInterval(lo, hi, Fraction(0), Fraction(1), ())  # noqa: E731
    if ok:
        assert make().coeff_hi == hi
    else:
        with pytest.raises(ValueError, match="coefficient"):
            make()


@pytest.mark.parametrize(
    "lo,hi,ok",
    [
        (_THIRD, _THIRD + _TINY, True),
        (_THIRD + _TINY, _THIRD, False),
        (1 - _TINY, Fraction(1), True),
        (Fraction(1), 1 - _TINY, False),
        (_TINY, 2 * _TINY, True),
        (2 * _TINY, _TINY, False),
        (_THIRD, _THIRD, True),
        (Fraction(1), Fraction(1), True),
        (-_TINY, _THIRD, False),
        # prop_hi just above 1
        (_THIRD, 1 + _TINY, False),
        (Fraction(1), 1 + _TINY, False),
        (_HUGE, _HUGE + 1, False),
        (_HUGE, _THIRD, False),
        (_THIRD, _HUGE, False),
    ],
)
def test_density_interval_orders_proportion_ends(lo, hi, ok):
    make = lambda: dens.DensityInterval(Fraction(0), Fraction(1), lo, hi, ())  # noqa: E731
    if ok:
        assert make().prop_hi == hi
    else:
        with pytest.raises(ValueError, match="proportion"):
            make()


_end = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-(10**500), 10**500), st.integers(1, 10**500)),
    st.sampled_from((Fraction(0), Fraction(1), _THIRD, _TINY, _HUGE)),
)
# an end and a second one a tiny step away, on either side, or equal
_pair = st.one_of(
    st.tuples(_end, _end),
    st.builds(
        lambda x, k, e: (x, x + Fraction(k, 10**e)),
        _end,
        st.integers(-3, 3),
        st.integers(300, 500),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_pair, _pair)
def test_density_interval_raises_exactly_when_out_of_order(coeff, prop):
    (coeff_lo, coeff_hi), (prop_lo, prop_hi) = coeff, prop
    if 0 <= coeff_lo <= coeff_hi and 0 <= prop_lo <= prop_hi <= 1:
        dens.DensityInterval(coeff_lo, coeff_hi, prop_lo, prop_hi, ())
    else:
        # ValueError and nothing else: no OverflowError from float()
        with pytest.raises(ValueError):
            dens.DensityInterval(coeff_lo, coeff_hi, prop_lo, prop_hi, ())


def test_euler_density_tail_guard():
    # the tail bound is vacuous unless B exceeds C_n
    spec = dens.GlobalSpec(3, (), 8)
    with pytest.raises(ValueError):
        dens.euler_density(spec)
    spec = dens.GlobalSpec(4, (), 24)
    with pytest.raises(ValueError):
        dens.euler_density(spec)


# ---------------------------------------------------------------------------
# archimedean and local factors
# ---------------------------------------------------------------------------


def test_archimedean_mass_values():
    assert dens.archimedean_mass(3) == Fraction(2, 3)
    assert dens.archimedean_mass(3, all_positive=False) == Fraction(2, 3)
    assert dens.archimedean_mass(4) == Fraction(5, 12)
    assert dens.archimedean_mass(4, all_positive=False) == Fraction(7, 24)
    assert dens.archimedean_mass(4, place="complex") == Fraction(1, 24)
    assert dens.archimedean_mass(5) == Fraction(13, 60)
    # odd degree always has a real factor, so a sign constrains nothing
    assert dens.archimedean_mass(5, all_positive=False) == Fraction(13, 60)
    with pytest.raises(ValueError):
        dens.archimedean_mass(0)
    with pytest.raises(ValueError):
        dens.archimedean_mass(3, place="finite")


def test_local_profile_at_prime():
    F, (x,) = dens.local_profile_at_prime((Fraction(2),), 2)
    assert F.val(x) == 1
    F, (x,) = dens.local_profile_at_prime((Fraction(9, 5),), 5)
    assert F.val(x) == -1
    F, (x,) = dens.local_profile_at_prime((Fraction(7),), 3)
    assert F.val(x) == 0
    assert F.residue(x) == F.rf.from_int(1)


def test_full_local_factor_forms():
    for p in dens.primes_up_to(2000):
        q = Fraction(p)
        assert dens.full_local_factor(3, p) == 1 - q**-3
        assert dens.full_local_factor(4, p) == 1 + q**-2 - q**-3 - q**-4
        assert dens.full_local_factor(5, p) == 1 + q**-2 - q**-4 - q**-5
    with pytest.raises(ValueError):
        dens.full_local_factor(6, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_trivial_local_mass_matches_module_computation(p):
    # the closed forms used by the fast path agree with the per-symbol
    # machinery on an empty generator list
    F = LocalField(p, 1, 1)
    scale = Fraction(p - 1, p)
    assert dens.full_local_factor(3, p) == scale * premass_ell_total(F, 3).total
    assert dens.full_local_factor(4, p) == scale * premass4(F).total
    assert dens.full_local_factor(5, p) == scale * premass_ell_total(F, 5).total


def test_local_mass_constrained_is_smaller():
    for n in (3, 4, 5):
        for p in (2, 3, 5):
            full = dens.local_mass(n, p, ())
            cut = dens.local_mass(n, p, (Fraction(p),))
            assert 0 < cut < full


def _tame_classes(n, seed):
    """Seeded generator classes, each a function of the prime p: p prime
    to or dividing a numerator or a denominator, negative, n-th powers,
    and two-generator sets of rank one and two."""
    rng = random.Random(seed)
    x, y, z, w = (Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(4))
    return [
        lambda p: (x,),
        lambda p: (-y,),
        lambda p: (p * x,),
        lambda p: (-z / p**2,),
        lambda p: ((p * w) ** n * p**n,),
        lambda p: (x, -y),
        lambda p: (p * z, -p * w),
        lambda p: (p * y, (p * y) ** 2 * w**n),
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tame_local_mass_matches_local_field_path(n):
    # every tame p <= 10^4 against the Q_p construction; above 2000 each
    # prime takes two of the classes in turn
    classes = _tame_classes(n, 101 * n)
    for i, p in enumerate(dens.primes_up_to(10_000)):
        if n % p == 0:
            continue
        todo = classes if p <= 2000 else (classes[i % 8], classes[(i + 3) % 8])
        for make in todo:
            gens = make(p)
            assert dens.tame_local_mass(n, p, gens) == dens.local_mass(n, p, gens), (p, gens)


def test_tame_local_mass_validation():
    assert dens.tame_local_mass(4, 7, ()) == dens.full_local_factor(4, 7)
    with pytest.raises(ValueError):
        dens.tame_local_mass(3, 3, (Fraction(2),))
    with pytest.raises(ValueError):
        dens.tame_local_mass(4, 2, (Fraction(-1),))
    with pytest.raises(ValueError):
        dens.tame_local_mass(5, 7, (Fraction(0),))
    with pytest.raises(ValueError):
        dens.tame_local_mass(6, 7, (Fraction(2),))
    # every local-mass entry point refuses a p that is not a prime
    for call, args in [
        (dens.local_mass, (5, 1, (Fraction(2),))),
        (dens.rational_valuation, (Fraction(2), 1)),
        (dens.tame_local_mass, (3, 4, (Fraction(2),))),
        (dens.tame_local_mass, (3, -7, (Fraction(2),))),
        (dens.tame_local_mass, (3, 0, (Fraction(2),))),
        (dens.local_mass, (4, 9, ())),
        (dens.full_local_factor, (4, 9)),
    ]:
        with pytest.raises(ValueError, match="not a prime"):
            call(*args)


def test_euler_density_builds_local_fields_only_at_wild_primes(monkeypatch):
    built = []
    init = LocalField.__init__

    def counting_init(self, p, *args, **kwargs):
        built.append(p)
        init(self, p, *args, **kwargs)

    monkeypatch.setattr(LocalField, "__init__", counting_init)
    for n, gens in [(3, ("19/7",)), (4, ("-10/3",)), (5, ("-2/3", "11/7"))]:
        built.clear()
        dens.euler_density(dens.GlobalSpec(n, gens, 3000))
        assert built and {p for p in built if n % p} == set(), (n, sorted(set(built)))


def test_huge_valuations_leave_per_prime_masses_unchanged():
    # g * r^n has the local masses of g; at the wild prime dividing r the
    # valuation reaches 60 to 100, far beyond the working precision
    for n in (3, 4, 5):
        for g in (Fraction(19, 7), Fraction(-10, 3)):
            want = dens.euler_density(dens.GlobalSpec(n, (g,), 100)).per_prime
            for r in (2**20, 3**20, 5**20, 7**20):
                got = dens.euler_density(dens.GlobalSpec(n, (g * r**n,), 100)).per_prime
                assert got == want, (n, g, r)


def test_tail_constant_values():
    assert dens.tail_constant(3) == 8
    assert dens.tail_constant(4) == 24
    assert dens.tail_constant(5) == 32


# ---------------------------------------------------------------------------
# assembled intervals
# ---------------------------------------------------------------------------


def _triples(factors):
    # each fraction with its denominator as the radical
    return [(x.numerator, x.denominator, x.denominator) for x in factors]


_small = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
_large = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
_nonzero = st.one_of(_small, _large).filter(bool)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(_small, _large), max_size=300),
        # factors that cancel across the whole list
        st.lists(_nonzero, max_size=150).flatmap(
            lambda xs: st.permutations(xs + [1 / x for x in xs])
        ),
    )
)
def test_exact_product_equals_sequential_product(factors):
    want = Fraction(1)
    for x in factors:
        want *= x
    got = dens.exact_product(_triples(factors))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_exact_product_short_lists():
    assert dens.exact_product([]) == 1
    assert dens.exact_product(iter(_triples([Fraction(3, 4)]))) == Fraction(3, 4)
    assert dens.exact_product(_triples([Fraction(2, 3), Fraction(3, 2), Fraction(0)])) == 0


_POOL = (2, 3, 5, 7, 11, 13)


@st.composite
def _radical_leaf(draw):
    """A reduced fraction whose denominator has primes from a small pool,
    with one of three radicals: the denominator's exact radical, that
    radical times extra primes, or the denominator itself."""
    exps = draw(st.lists(st.integers(0, 6), min_size=len(_POOL), max_size=len(_POOL)))
    den = 1
    rad = 1
    for q, e in zip(_POOL, exps):
        den *= q**e
        rad *= q if e else 1
    num = draw(st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**30), 10**30)))
    x = Fraction(num, den)
    kind = draw(st.sampled_from(("exact", "extra", "denominator")))
    if kind == "extra":
        rad *= draw(st.sampled_from(_POOL + (17, 19))) * draw(st.sampled_from(_POOL))
    if kind == "denominator":
        rad = x.denominator
    # rad is still a radical of the reduced denominator
    return x, (x.numerator, x.denominator, rad)


_ZERO_LEAF = (Fraction(0), (0, 1, 1))
_LEAF_A = (Fraction(-5, 72), (-5, 72, 6))
_LEAF_B = (Fraction(9, 5), (9, 5, 5 * 7 * 17))


@settings(max_examples=200, deadline=None)
@given(st.lists(_radical_leaf(), max_size=200))
@example([_LEAF_A, _ZERO_LEAF, _LEAF_B])
@example([_LEAF_A, _LEAF_B, _LEAF_A, _LEAF_A])
def test_exact_product_with_radicals(leaves):
    want = Fraction(1)
    for x, _ in leaves:
        want *= x
    got = dens.exact_product([t for _, t in leaves])
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1


@pytest.mark.parametrize(
    "num,den",
    [(0, 1), (1, 1), (-1, 1), (7, 8), (-7, 8), (3, 10**40 + 1), (-(10**50) - 3, 2**90), (10**30, 7)],
)
def test_fraction_from_coprime_acts_as_fraction(num, den):
    # the helper fills Fraction's private slots: on this interpreter its
    # output must equal, hash, print and multiply as Fraction(num, den)
    got = dens._fraction_from_coprime(num, den)
    want = Fraction(num, den)
    assert type(got) is Fraction
    assert got == want and not got != want
    assert hash(got) == hash(want)
    assert (str(got), repr(got)) == (str(want), repr(want))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.as_integer_ratio() == want.as_integer_ratio()
    for other in (Fraction(3, 7), Fraction(-10, 9), Fraction(den, 5), 2, Fraction(0)):
        assert got * other == want * other
        assert (got * other).denominator == (want * other).denominator
        assert got + other == want + other
        assert (got < other) == (want < other)
    assert got / 3 == want / 3
    assert float(got) == float(want)


@pytest.mark.parametrize("n,cls", [(3, ("19/7",)), (4, ("-10/3",)), (5, ("-2/3", "11/7"))])
def test_leaf_radicals_cover_their_denominators(monkeypatch, n, cls):
    # the density-local constraint classes at B = 2000: every prime of a
    # per-prime mass's denominator divides the radical it is passed with
    calls = []
    product = dens.exact_product

    def recording(factors):
        factors = list(factors)
        calls.append(factors)
        return product(factors)

    monkeypatch.setattr(dens, "exact_product", recording)
    di = dens.euler_density(dens.GlobalSpec(n, cls, 2000))
    leaves, ratios = calls
    assert [(num, den) for num, den, _ in leaves] == [
        (m.numerator, m.denominator) for _, m in di.per_prime
    ]
    # a ratio's denominator has primes above B: it is its own radical
    assert ratios and all(rad == den for _, den, rad in ratios)
    for num, den, rad in leaves:
        assert math.gcd(num, den) == 1
        rest = den
        q = 2
        while q * q <= rest:
            if rest % q == 0:
                assert rad % q == 0, (n, den, rad, q)
                while rest % q == 0:
                    rest //= q
            q += 1
        assert rest == 1 or rad % rest == 0, (n, den, rad, rest)


@pytest.mark.parametrize(
    "n,gens",
    [(3, ()), (4, ()), (5, ()), (3, ("19/7",)), (4, ("-10/3",)), (5, ("-2/3", "11/7"))],
)
def test_per_prime_masses_are_reduced_fractions(n, gens):
    # no generators, and the density-local classes, at B = 2000: each
    # per-prime mass is built without Fraction()'s reduction, so it must
    # be the reduced fraction Fraction() gives, and equal the local mass
    di = dens.euler_density(dens.GlobalSpec(n, gens, 2000))
    assert [p for p, _ in di.per_prime] == list(dens.primes_up_to(2000))
    for p, m in di.per_prime:
        assert type(m) is Fraction
        assert m.denominator > 0 and math.gcd(m.numerator, m.denominator) == 1
        want = Fraction(m.numerator, m.denominator)
        assert (m.numerator, m.denominator) == (want.numerator, want.denominator)
        local = dens.tame_local_mass(n, p, gens) if n % p else dens.local_mass(n, p, gens)
        assert (m.numerator, m.denominator) == (local.numerator, local.denominator)


def test_full_local_factor_needs_a_positive_denominator():
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            dens.full_local_factor(3, p)


@pytest.mark.parametrize(
    "n,gens,bound", [(3, (), 5000), (4, ("-10/3",), 2000), (5, ("-2/3", "11/7"), 3000)]
)
def test_euler_density_matches_sequential_product(n, gens, bound):
    # the interval ends rebuilt from per_prime with one running product
    spec = dens.GlobalSpec(n, gens, bound)
    di = dens.euler_density(spec)
    finite = ratio = Fraction(1)
    for p, m in di.per_prime:
        finite *= m
        ratio *= m / dens.full_local_factor(n, p)
    arch = dens.archimedean_mass(n, all_positive=all(g > 0 for g in spec.gens))
    point = arch * finite / 2
    slack = Fraction(dens.tail_constant(n), bound)
    assert di.coeff_lo == point * (1 - slack)
    assert di.coeff_hi == point / (1 - slack)
    prop = arch / dens.archimedean_mass(n) * ratio
    if gens:
        assert prop < 1
        assert di.prop_hi == prop
        assert di.prop_lo == prop * (1 - slack)
    else:
        assert di.prop_lo == di.prop_hi == prop == 1


def test_cubic_trivial_anchor():
    mpmath = pytest.importorskip("mpmath")
    spec = dens.GlobalSpec(3, (), 2000)
    di = dens.euler_density(spec)
    target = 1 / (3 * mpmath.zeta(3))
    assert di.coeff_lo <= Fraction(str(target)) <= di.coeff_hi
    assert di.prop_lo == di.prop_hi == 1
    assert di.per_prime[0] == (2, Fraction(7, 8))


def test_proportion_one_for_nth_power_gens():
    di = dens.euler_density(dens.GlobalSpec(5, (32,), 40))
    assert di.prop_lo == di.prop_hi == 1
    di = dens.euler_density(dens.GlobalSpec(3, (Fraction(-8, 27),), 30))
    assert di.prop_lo == di.prop_hi == 1


def test_proportion_below_one_for_real_constraint():
    di = dens.euler_density(dens.GlobalSpec(4, (-1,), 30))
    assert di.prop_hi < 1
    # the archimedean ratio 7/24 / (5/12) = 7/10 bounds the proportion
    assert di.prop_hi <= Fraction(7, 10)


def test_interval_nesting_on_doubling():
    for n, gens, bound in [(3, (2,), 20), (4, (5,), 30), (5, (-1, 3), 40)]:
        a = dens.euler_density(dens.GlobalSpec(n, gens, bound))
        b = dens.euler_density(dens.GlobalSpec(n, gens, 2 * bound))
        assert a.coeff_lo <= b.coeff_lo <= b.coeff_hi <= a.coeff_hi
        assert a.prop_lo <= b.prop_lo <= b.prop_hi <= a.prop_hi


def test_good_prime_factors_near_one():
    # every local factor is within C_n/p^2 of the full one
    for n in (3, 4, 5):
        c_n = dens.tail_constant(n)
        di = dens.euler_density(dens.GlobalSpec(n, (6,), c_n + 10))
        for p, m in di.per_prime:
            full = dens.full_local_factor(n, p)
            assert full * (1 - Fraction(c_n, p * p)) <= m <= full


def test_density_runs_leave_no_fields():
    # per-prime fields die with the run: no module cache keeps them alive
    def live_fields():
        gc.collect()
        return sum(isinstance(o, (LocalField, QuadExt)) for o in gc.get_objects())

    before = live_fields()
    # local_mass takes the LocalField path at every prime, so each call
    # builds a field (euler_density would build one only at p = 3)
    for p in dens.primes_up_to(2000):
        dens.local_mass(3, p, (Fraction(2),))
    assert live_fields() - before < 10
