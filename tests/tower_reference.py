"""The quartic tower census by its direct route, and the pre-mass sum.

``oracle.enum_quartic_towers`` reads the norm flags of a Galois pair
(E, delta) as "delta is a norm from E(sqrt(beta))", by the symmetry of
the Hilbert symbol.  This module keeps the route that reads them as
stated: it builds L = E(sqrt(delta)) for each non-D4 pair and asks
whether beta, the norm preimage of a generator in E, is a norm from L.
It keeps nothing between calls, so each call builds every E and L
again; the tests compare the census with it record by record.
"""

from fractions import Fraction

from etmass.fplinalg import Span
from etmass.oracle import QuarticTower
from etmass.padic import INF, quad_extend
from etmass.unitgroups import (
    basis_product,
    c_alpha,
    class_vec,
    norm_class_matrix,
    p_class_coords,
    solve_norm_equation,
    unit_basis,
)

GROUP_MULT = {"V4": 3, "C4": 1, "D4": 2}
GROUP_AUT = {"V4": 4, "C4": 4, "D4": 2}


def disc_val_quadratic(F, u):
    """v_F of the discriminant of F(sqrt(u))/F, for p = 2, from the level
    c_alpha of u's unit part; the census reads it off u's class vector
    instead (``unitgroups.quad_disc_val``)."""
    if F.p != 2:
        raise ValueError("only defined for residue characteristic 2")
    v = F.val(u)
    if v % 2 == 1:
        return 2 * F.e + 1
    u0 = F.shift(u, -v)
    c, _ = c_alpha(F, u0)
    if c == INF:
        raise ValueError("u is a square")
    if c == 2 * F.e:
        return 0
    return 2 * F.e - c + 1


def _lines2(d):
    """The nonzero vectors of F_2^d, least-significant coordinate first,
    in the census's order."""
    return [tuple((i >> j) & 1 for j in range(d)) for i in range(1, 1 << d)]


def enum_quartic_towers_per_delta(F, gens=()):
    """The records of ``oracle.enum_quartic_towers(F, gens)``, with one
    L built per non-D4 pair whose flags need it."""
    gens = [F.coerce(g) for g in gens]
    fb = unit_basis(F)
    out = []
    for d_class in _lines2(fb.dim):
        E = quad_extend(F, basis_product(F, fb.elems, d_class))
        eb = unit_basis(E)
        im = Span(2, eb.dim)
        for b in fb.elems:
            im.insert(p_class_coords(E, E.embed(b)))
        e_EF = 2 if E.kind == "ramified" else 1
        betas = [solve_norm_equation(E, g) for g in gens]
        vecs = [None if beta is None else class_vec(E, beta, 2) for beta in betas]
        for wvec in _lines2(eb.dim):
            delta = basis_product(E, eb.elems, wvec)
            if im.reduce(wvec)[0] is None:
                group = "V4"
            elif p_class_coords(F, E.norm(delta)) == d_class:
                group = "C4"
            else:
                group = "D4"
            dl = disc_val_quadratic(E, delta)
            if group != "D4" and any(v is not None for v in vecs):
                M_L = norm_class_matrix(quad_extend(E, delta))
                flags = tuple(v is not None and M_L.reduce(v)[0] is None for v in vecs)
            else:
                flags = tuple(v is not None for v in vecs)
            out.append(
                QuarticTower(
                    symbol={1: "(4)", 2: "(2^2)", 4: "(1^4)"}[e_EF * (2 if dl > 0 else 1)],
                    group=group,
                    disc_val=2 * E.disc_val + (2 // e_EF) * dl,
                    aut=GROUP_AUT[group],
                    pair_multiplicity=GROUP_MULT[group],
                    norm_flags=flags,
                )
            )
    return out


def quartic_premass(records, pred=None, q=None):
    """Sum of 1/(#Aut * q^disc) over the enumerated quartic fields."""
    total = Fraction(0)
    for r in records:
        if pred is not None and not pred(r):
            continue
        total += Fraction(1, r.aut * q**r.disc_val * r.pair_multiplicity)
    return total
