"""The paper's single-generator closed form for the wild cyclic pre-mass.

The library sums discriminant layers over the generators' filtration
profile (``massprime.premass_Cp_wild``); this module keeps the paper's
closed form in the level c(alpha) of one generator, evaluated without
summing layers, as the reference the tests compare that sum with.
"""

from fractions import Fraction

from etmass.massprime import helper_AB, premass_Cp_wild
from etmass.padic import INF
from etmass.unitgroups import c_alpha, ceil_frac, contains_mu_p


def closed_form_alpha(F, alpha) -> Fraction:
    """Constrained wild pre-mass for a single generator, in closed form.

    Returns the pre-mass of the cyclic totally ramified degree-p
    extensions admitting alpha as a norm.  A p-th power constrains
    nothing; an element of valuation prime to p cuts the unconstrained
    value by p.
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
