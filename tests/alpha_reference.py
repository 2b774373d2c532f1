"""The paper's closed forms for the wild cyclic pre-mass.

The library sums the cyclic counts of ``massprime.count_Cp``, each a
difference of class-group indices (``massprime.premass_Cp_wild``).  This
module keeps the paper's closed forms, evaluated without summing
layers, as the references the tests compare that sum with: the
unconstrained pre-mass through the A/B helpers and the mu_p term, and
the single-generator form in the level c(alpha) of one generator.
"""

from fractions import Fraction

from etmass.massprime import helper_AB
from etmass.padic import INF
from etmass.unitgroups import c_alpha, ceil_frac, contains_mu_p


def premass_Cp_closed_form(F) -> Fraction:
    """Pre-mass of all cyclic totally (wildly) ramified degree-p
    extensions of F: (q - 1)/((p - 1) q^2) times the A/B sum over the
    conductors up to pe/(p-1), plus q^(-(p-1)(e+1)) for the top
    conductor when F contains mu_p."""
    p, e = F.p, F.e
    q = Fraction(F.q)
    A, B = helper_AB(p, q, ceil_frac(p * e, p - 1))
    main = (
        Fraction(F.q - 1, p - 1)
        / q**2
        * ((A if e >= p - 1 else 0) + (B if e % (p - 1) else 0))
    )
    mu = q ** (-(p - 1) * (e + 1)) if contains_mu_p(F) else Fraction(0)
    return main + mu


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
        return premass_Cp_closed_form(F) / p
    if c is INF:
        return premass_Cp_closed_form(F)
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
