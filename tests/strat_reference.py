"""The paper's stratified generating sets, built from field elements.

A stratified generating set (A0, A1) of the image of <gens> in
F^x/F^{x ell} has A0 of valuation 0 and at most one element, A1, of
valuation 1; the paper's proofs are written in its terms.  The library
reads the same group only through its filtration profile
(``unitgroups.filtration_profile``), ranks of the generators' class
vectors.  This module keeps the element construction and the profile
read off it, as the reference the tests compare the library's profile
with.
"""

from dataclasses import dataclass

from etmass.fplinalg import colspan
from etmass.unitgroups import FiltrationProfile, ceil_frac, class_vec, unit_basis


@dataclass(frozen=True)
class StratGens:
    """A stratified generating set for the image of <gens> in F^x/F^{x ell}.

    ``A0`` are the generators of valuation 0, ``A1`` those of valuation 1
    (at most one).  ``cols`` holds the class vectors of A0 + A1, which
    are independent, so their number is the rank.
    """

    field: object
    ell: int
    A0: tuple
    A1: tuple
    cols: tuple

    @property
    def rank(self) -> int:
        return len(self.cols)

    @property
    def group_size(self) -> int:
        return self.ell**self.rank

    def is_trivial(self) -> bool:
        return self.rank == 0


def strat_gens(F, gens, ell: int) -> StratGens:
    """Build a stratified generating set from arbitrary nonzero elements.

    Gaussian elimination on class vectors (valuation coordinate first)
    keeps track of actual field elements, so the output elements have
    the exact classes of the reduced basis.  Each output element is then
    moved within its class to valuation 0, except the at-most-one
    element whose valuation is prime to ell, which is moved to
    valuation 1.
    """
    pivots = []  # (element, vector, pivot column)
    for g in gens:
        g = F.coerce(g)
        # slide to the least nonnegative valuation in the class, so the
        # reduction products below stay inside the precision window
        v = F.val(g)
        if v != v % ell:
            g = F.normalize_pshift(F.shift(g, v % ell - v))
        vec = class_vec(F, g, ell)
        elt = g
        for pe_elt, pv, pc in pivots:
            c = vec[pc]
            if c:
                vec = [(a - c * b) % ell for a, b in zip(vec, pv)]
                elt = F.mul(elt, F.power(pe_elt, ell - c))
        pc = next((j for j, x in enumerate(vec) if x), None)
        if pc is None:
            continue
        s = pow(vec[pc], -1, ell)
        if s != 1:
            elt = F.power(elt, s)
            vec = [s * x % ell for x in vec]
        # normalize the valuation immediately: 1 on the uniformizer
        # pivot, 0 on unit pivots
        v = F.val(elt)
        want = 1 if pc == 0 else 0
        assert (v - want) % ell == 0
        if v != want:
            elt = F.normalize_pshift(F.shift(elt, want - v))
        pivots.append((elt, vec, pc))
    A0, A1 = [], []
    for elt, vec, pc in pivots:
        (A1 if pc == 0 else A0).append(elt)
    order = A0 + A1
    cols = tuple(class_vec(F, e_, ell) for e_ in order)
    return StratGens(F, ell, tuple(A0), tuple(A1), cols)


def abar_p_filtration_sizes(F, strat: StratGens):
    """Sizes of Abar^p_c for c = 0, ..., ceil(pe/(p-1)).

    Abar^p_c is the intersection of the subgroup generated by the given
    classes with the image of U^(c) F^{x p}.  In unit-basis coordinates
    the latter is the coordinate subspace of levels >= c, so the size is
    p to the corank of the low-level rows on the generator span.
    """
    p, e = F.p, F.e
    if strat.ell != p:
        raise ValueError("filtration sizes only defined for ell = p")
    levels = unit_basis(F).levels
    cols = strat.cols
    full = colspan(p, cols, len(levels)).log
    sizes = []
    for c in range(ceil_frac(p * e, p - 1) + 1):
        rows = [j for j, lev in enumerate(levels) if lev < c]
        low_rank = colspan(p, [[col[j] for j in rows] for col in cols], len(rows)).log
        sizes.append(p ** (full - low_rank))
    return sizes


def profile_from_strata(F, gens, p: int) -> FiltrationProfile:
    """The filtration profile of <gens> mod p-th powers, p the residue
    characteristic, read off its stratified generating set."""
    s = strat_gens(F, gens, p)
    return FiltrationProfile(p, s.group_size, tuple(abar_p_filtration_sizes(F, s)))
