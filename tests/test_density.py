"""Tests for the Euler-product density assembly."""

import gc
from fractions import Fraction

import pytest

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


def test_prime_factors():
    assert dens.prime_factors(1) == set()
    assert dens.prime_factors(-12) == {2, 3}
    assert dens.prime_factors(97) == {97}
    assert dens.prime_factors(2 * 3 * 5 * 49) == {2, 3, 5, 7}


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


def test_density_interval_validation():
    one = Fraction(1)
    with pytest.raises(ValueError):
        dens.DensityInterval(one, one / 2, one, one, ())
    with pytest.raises(ValueError):
        dens.DensityInterval(one / 2, one, one / 2, 2 * one, ())


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
    for p in (2, 3, 97):
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


def test_tail_constant_values():
    assert dens.tail_constant(3) == 8
    assert dens.tail_constant(4) == 24
    assert dens.tail_constant(5) == 32


# ---------------------------------------------------------------------------
# assembled intervals
# ---------------------------------------------------------------------------


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


def test_is_power_pathological():
    assert not dens.is_power_pathological(3)
    assert not dens.is_power_pathological(8)
    assert not dens.is_power_pathological(16, "Q")
    with pytest.raises(ValueError):
        dens.is_power_pathological(0)
    with pytest.raises(NotImplementedError):
        dens.is_power_pathological(8, "Q(i)")


def test_density_runs_leave_no_fields():
    # per-prime fields die with the run: no module cache keeps them alive
    def live_fields():
        gc.collect()
        return sum(isinstance(o, (LocalField, QuadExt)) for o in gc.get_objects())

    before = live_fields()
    for _ in range(2):
        dens.euler_density(dens.GlobalSpec(3, (Fraction(2),), 2000))
    assert live_fields() - before < 10
