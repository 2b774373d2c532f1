"""Tests for the brute-force extension enumerations."""

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from etmass import oracle as orc
from etmass import unitgroups as ug
from etmass.cli import parse_local_gens
from etmass.padic import GuardError, LocalField, quad_extend

import tower_reference as tr
from test_padic import random_unit


# ---------------------------------------------------------------------------
# norm equations in quadratic extensions
# ---------------------------------------------------------------------------


def test_norm_class_matrix_has_corank_one():
    # local class field theory: the norm group of a quadratic extension
    # has index exactly 2 in F^x
    for p, e, f, d in [(2, 1, 1, -1), (2, 1, 1, 5), (2, 1, 1, 2), (3, 1, 1, 3), (5, 1, 1, 2)]:
        F = LocalField(p, e, f)
        E = quad_extend(F, F.from_int(d))
        M = ug.norm_class_matrix(E)
        assert M.log == M.n - 1, (p, d)


def test_solve_norm_equation_q2_gaussian():
    # Q_2(i): the norms are exactly the classes of 1, 2, 5, 10
    F = LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    for n in (2, 5, 10, 17):
        b = ug.solve_norm_equation(E, F.from_int(n))
        assert b is not None
        assert F.is_zero(F.sub(E.norm(b), F.from_int(n)))
    for n in (-1, -5, 3, 7, 6, 14):
        assert ug.solve_norm_equation(E, F.from_int(n)) is None


def test_solve_norm_equation_random():
    F = LocalField(2, 2, 1)
    rng = np.random.default_rng(31)
    for d in (F.from_int(-1), F.from_int(5), F.pi()):
        E = quad_extend(F, d)
        for _ in range(6):
            x = random_unit(E, rng)
            a = E.norm(x)
            b = ug.solve_norm_equation(E, a)
            assert b is not None
            assert F.is_zero(F.sub(E.norm(b), a))


def test_sqrt_exact():
    F = LocalField(2, 1, 1)
    for n in (1, 4, 9, 16, 17, 25, 68, 289):
        s = ug.sqrt_exact(F, F.from_int(n))
        assert F.is_zero(F.sub(F.mul(s, s), F.from_int(n)))
    with pytest.raises(ValueError):
        ug.sqrt_exact(F, F.from_int(3))
    with pytest.raises(ValueError):
        ug.sqrt_exact(F, F.from_int(2))
    G = LocalField(5, 1, 1)
    s = ug.sqrt_exact(G, G.from_int(-1))
    assert G.is_zero(G.sub(G.mul(s, s), G.from_int(-1)))


# ---------------------------------------------------------------------------
# cyclic degree-p extensions via characters
# ---------------------------------------------------------------------------


def test_q2_quadratic_character_counts():
    F = LocalField(2, 1, 1)
    recs = orc.enum_cp_characters(F)
    assert len(recs) == 7
    assert Counter(r.disc_val for r in recs) == {0: 1, 2: 2, 3: 4}


def test_q3_cubic_character_counts():
    F = LocalField(3, 1, 1)
    recs = orc.enum_cp_characters(F)
    assert len(recs) == 4
    assert Counter(r.disc_val for r in recs) == {0: 1, 4: 3}


def test_q5_quintic_character_counts():
    F = LocalField(5, 1, 1)
    recs = orc.enum_cp_characters(F)
    assert len(recs) == 6
    assert Counter(r.disc_val for r in recs) == {0: 1, 8: 5}


def test_character_counts_match_quadratic_constructor():
    # the character conductors agree with the discriminants of the
    # explicitly constructed quadratic extensions of Q_2
    F = LocalField(2, 1, 1)
    from etmass.padic import disc_val_quadratic

    seen = Counter()
    reps = set()
    for n in range(-20, 20):
        if n == 0:
            continue
        cls = tuple(ug.class_vec(F, F.from_int(n), 2))
        if not any(cls) or cls in reps:
            continue
        reps.add(cls)
        seen[disc_val_quadratic(F, F.from_int(n))] += 1
    oracle = Counter(r.disc_val for r in orc.enum_cp_characters(F))
    assert seen == oracle


def test_norm_intersection_is_squares():
    # intersection of the seven quadratic norm groups of Q_2 = squares
    F = LocalField(2, 1, 1)
    recs = orc.enum_cp_characters(F, gens=[F.from_int(n) for n in (-1, 2, 5, 17, 48)])
    everywhere = [all(r.norm_flags[i] for r in recs) for i in range(5)]
    # 17 and 48 = 16*3... only 17 is a square
    assert everywhere == [False, False, False, True, False]


def test_constrained_quadratic_premass_minus_one():
    # premass of ramified C2 extensions of Q_2 with -1 a norm
    F = LocalField(2, 1, 1)
    recs = orc.enum_cp_characters(F, gens=[F.from_int(-1)])
    total = sum(
        Fraction(1, r.aut * F.q**r.disc_val)
        for r in recs
        if r.cond > 0 and r.norm_flags[0]
    )
    assert total == Fraction(1, 8)
    assert orc.cp_premass_from_characters(F, recs) == Fraction(1, 2)


def test_cp_premass_quadratic_bases_of_q2():
    # the full ramified C2 premass is 1/q for every 2-adic field
    F = LocalField(2, 1, 1)
    for d in (-1, 2, 5):
        E = quad_extend(F, F.from_int(d))
        assert orc.cp_premass_from_characters(E) == Fraction(1, E.q)


def test_character_guard():
    F = LocalField(2, 1, 1)
    with pytest.raises(GuardError):
        orc.enum_cp_characters(F, max_size=3)


# ---------------------------------------------------------------------------
# tame extensions
# ---------------------------------------------------------------------------


def test_tame_q5_quadratics():
    F = LocalField(5, 1, 1)
    recs = orc.enum_tame(F, 2, gens=[F.from_int(n) for n in (5, -5, 10, 2, -1)])
    assert [r.symbol for r in recs] == ["(2)", "(1^2)", "(1^2)"]
    unram = recs[0]
    assert unram.disc_val == 0 and unram.aut == 2
    # units are norms from the unramified extension, uniformizers are not
    assert unram.norm_flags == (False, False, False, True, True)
    # -1 is a square in Q_5, so it is a norm everywhere
    assert all(r.norm_flags[4] for r in recs)
    # 5 and -5 land in the same ramified extension, 10 in the other
    assert recs[1].norm_flags[:3] in [(True, True, False), (False, False, True)]
    assert recs[1].norm_flags[:3] != recs[2].norm_flags[:3]


def test_tame_inert_case():
    # ell = 3 does not divide q - 1 = 4: a single non-Galois ramified
    # extension with full norm group
    F = LocalField(5, 1, 1)
    recs = orc.enum_tame(F, 3, gens=[F.from_int(2), F.pi()])
    assert [r.symbol for r in recs] == ["(3)", "(1^3)"]
    assert recs[1].aut == 1
    assert recs[1].disc_val == 2
    assert recs[1].norm_flags == (True, True)
    assert recs[0].norm_flags == (True, False)


def test_tame_q7_cubics():
    # ell = 3 divides q - 1 = 6: three ramified C3 extensions
    F = LocalField(7, 1, 1)
    recs = orc.enum_tame(F, 3, gens=[F.from_int(7), F.from_int(2), F.from_int(6)])
    assert len(recs) == 4
    ram = recs[1:]
    assert all(r.aut == 3 and r.disc_val == 2 for r in ram)
    # each uniformizer class lands in exactly one ramified extension
    assert sum(r.norm_flags[0] for r in ram) == 1
    # the unit norm subgroup is the cube residues for every L_j:
    # 2 is not a cube mod 7, 6 is
    assert sum(r.norm_flags[1] for r in ram) == 0
    assert sum(r.norm_flags[2] for r in ram) == 3


def test_tame_serre_sum():
    # sum over totally ramified degree-ell extensions of 1/#Aut = 1
    for p, ell in [(5, 2), (5, 3), (7, 3), (3, 2), (7, 2)]:
        F = LocalField(p, 1, 1)
        recs = [r for r in orc.enum_tame(F, ell) if r.symbol.startswith("(1")]
        assert sum(Fraction(1, r.aut) for r in recs) == 1


def test_tame_rejects_wild():
    F = LocalField(3, 1, 1)
    with pytest.raises(ValueError):
        orc.enum_tame(F, 3)


# ---------------------------------------------------------------------------
# quartic towers over Q_2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def q2_towers():
    F = LocalField(2, 1, 1)
    gens = [F.from_int(-1), F.from_int(2), F.from_int(5)]
    return F, orc.enum_quartic_towers(F, gens=gens)


def test_tower_pair_counts(q2_towers):
    F, recs = q2_towers
    # 7 quadratic extensions E, each with 15 nontrivial square classes
    assert len(recs) == 105
    tal = orc.tally_towers(recs)
    by_group = Counter()
    for (sym, grp, dv), n in tal.items():
        by_group[grp] += n
    # classical counts of quartic 2-adic fields with a quadratic subfield
    assert by_group == {"C4": 12, "V4": 7, "D4": 36}


def test_tower_symbols_and_discs(q2_towers):
    F, recs = q2_towers
    tal = orc.tally_towers(recs)
    assert tal[("(4)", "C4", 0)] == 1
    # the four totally ramified V4 fields all have discriminant 2+3+3
    assert tal[("(1^4)", "V4", 8)] == 4
    # biquadratic fields containing the unramified quadratic
    assert tal[("(2^2)", "V4", 4)] == 1
    assert tal[("(2^2)", "V4", 6)] == 2
    # disc parity sanity: every (2^2) disc is even
    assert all(dv % 2 == 0 for (sym, _, dv) in tal if sym == "(2^2)")


def test_tower_premasses_22(q2_towers):
    # worked values for the (2^2) premass of Q_2, split by group
    F, recs = q2_towers
    q = F.q

    def pm(grp):
        return tr.quartic_premass(
            recs, pred=lambda r: r.symbol == "(2^2)" and r.group == grp, q=q
        )

    assert pm("C4") == Fraction(3, 128)
    assert pm("V4") == Fraction(3, 128)
    assert pm("D4") == Fraction(5, 64)


def test_tower_d4_norm_group_is_quadratic_subfield(q2_towers):
    # D4 fields over the unramified E: norms are the even-valuation
    # elements, so -1 and 5 are norms and 2 is not
    F, recs = q2_towers
    for r in recs:
        if r.symbol == "(2^2)" and r.group == "D4":
            assert r.norm_flags == (True, False, True)


def test_tower_v4_flags_consistent(q2_towers):
    # tallying with a norm predicate must stay integral: the three
    # pairs over different subfields agree on membership
    F, recs = q2_towers
    for i in range(3):
        tal = orc.tally_towers(recs, pred=lambda r, i=i: r.norm_flags[i])
        assert all(isinstance(v, int) for v in tal.values())


def test_tower_odd_valuation_generator_kills_22(q2_towers):
    # no (2^2) field admits 2 as a norm: their norm groups consist of
    # even-valuation elements
    F, recs = q2_towers
    tal = orc.tally_towers(recs, pred=lambda r: r.norm_flags[1])
    assert all(sym != "(2^2)" and sym != "(4)" for (sym, _, _) in tal)


def test_second_census_builds_no_field(monkeypatch):
    # F keeps every E with its pairs, and E the norm image of every
    # E(sqrt(beta)) a census has read, so a second census on F, with the
    # same generators or with some of them, builds no field
    F, G = LocalField(2, 1, 1), LocalField(2, 1, 1)
    first = orc.enum_quartic_towers(F, gens=[F.from_int(a) for a in (-1, 2, 5)])
    want = orc.enum_quartic_towers(G, gens=[G.from_int(2), G.from_int(5)])
    built = []
    monkeypatch.setattr(orc, "quad_extend", lambda K, x: built.append(K) or quad_extend(K, x))
    assert orc.enum_quartic_towers(F, gens=[F.from_int(a) for a in (-1, 2, 5)]) == first
    assert orc.enum_quartic_towers(F, gens=[F.from_int(2), F.from_int(5)]) == want
    assert built == []


@pytest.mark.parametrize(
    "base,sets",
    [
        ((2, 1, 1), [(), ("-1",), ("2",), ("5",), ("-1", "2"), ("-1", "2", "5"), ("pi", "u"), ("1",)]),
        ((2, 1, 2), [("-1", "2"), ("u", "5")]),
        ((2, 2, 1), [("-1", "2"), ("pi", "5")]),
        ("Q2(sqrt(-1))", [("-1", "2")]),
    ],
    ids=["Q2", "Q2F2", "F22", "Q2(i)"],
)
def test_towers_match_per_delta_route(monkeypatch, base, sets):
    # the census reads each Galois pair's flags as "delta is a norm from
    # E(sqrt(beta))"; the reference builds L = E(sqrt(delta)) and asks
    # whether beta is a norm from L.  Flags are per generator, so one
    # reference run on the union of the sets serves every set
    if base == "Q2(sqrt(-1))":
        Q2 = LocalField(2, 1, 1)
        F = quad_extend(Q2, Q2.from_int(-1))
    else:
        F = LocalField(*base)
    union = sorted({g for s in sets for g in s})
    want = tr.enum_quartic_towers_per_delta(F, parse_local_gens(F, ",".join(union)))
    built = []
    monkeypatch.setattr(orc, "quad_extend", lambda K, x: built.append(K) or quad_extend(K, x))
    for s in sets:
        got = orc.enum_quartic_towers(F, gens=parse_local_gens(F, ",".join(s)))
        idx = [union.index(g) for g in s]
        assert got == [replace(r, norm_flags=tuple(r.norm_flags[i] for i in idx)) for r in want], (base, s)
        if s == ("1",):
            # beta is a square on every E, so the census took the square
            # branch: it built no field for it, and 1 is a norm from all
            assert built == []
            assert all(r.norm_flags == (True,) for r in got)
        built.clear()


def test_hilbert_symbol_is_symmetric_over_quadratics_of_q2():
    # a is a norm from E(sqrt(b)) exactly when b is one from E(sqrt(a)),
    # for every pair of nontrivial square classes of each quadratic E of
    # Q_2; the census's flag rule rests on this
    F = LocalField(2, 1, 1)
    fb = ug.unit_basis(F)
    for dvec in itertools.product((0, 1), repeat=fb.dim):
        if not any(dvec):
            continue
        E = quad_extend(F, ug.basis_product(F, fb.elems, dvec))
        eb = ug.unit_basis(E)
        classes = [w for w in itertools.product((0, 1), repeat=eb.dim) if any(w)]
        M = {w: ug.norm_class_matrix(quad_extend(E, ug.basis_product(E, eb.elems, w))) for w in classes}
        for a, b in itertools.combinations(classes, 2):
            assert (M[b].reduce(a)[0] is None) == (M[a].reduce(b)[0] is None), (dvec, a, b)


def test_census_builds_one_quadratic_per_beta_class(monkeypatch):
    # a fresh census on Q_2 builds its 7 quadratics E and at most one
    # E(sqrt(beta)) per (E, generator), not one L per (E, delta)
    F = LocalField(2, 1, 1)
    built = []
    monkeypatch.setattr(orc, "quad_extend", lambda K, x: built.append(K) or quad_extend(K, x))
    orc.enum_quartic_towers(F, gens=[F.from_int(a) for a in (-1, 2, 5)])
    assert sum(K is F for K in built) == 7
    assert len(built) <= 7 + 21


def test_tower_guards():
    with pytest.raises(ValueError):
        orc.enum_quartic_towers(LocalField(3, 1, 1))
    with pytest.raises(GuardError):
        orc.enum_quartic_towers(LocalField(2, 2, 2))


@pytest.mark.parametrize("e,f,d", [(1, 1, -1), (1, 1, 5), (2, 1, -1)])
def test_product_of_basis_powers_has_its_exponents_as_class(e, f, d):
    # the tower census reads the class of delta = prod b_j^(w_j) as w
    # instead of computing it; E ramified, unramified, and over (2, 1)
    F = LocalField(2, e, f)
    E = quad_extend(F, F.from_int(d))
    basis = ug.unit_basis(E)
    for w in itertools.product((0, 1), repeat=basis.dim):
        delta = E.one()
        for b, c in zip(basis.elems, w):
            if c:
                delta = E.mul(delta, b)
        assert ug.p_class_coords(E, delta) == w, (e, f, d, w)


def test_towers_over_ramified_base():
    # smoke test over F = Q_2(sqrt(-1)): tallies are integral and the
    # unramified quartic of F appears exactly once
    F0 = LocalField(2, 1, 1)
    F = quad_extend(F0, F0.from_int(-1))
    recs = orc.enum_quartic_towers(F)
    tal = orc.tally_towers(recs)
    assert tal[("(4)", "C4", 0)] == 1
    assert sum(tal.values()) > 20


# ---------------------------------------------------------------------------
# totally ramified degree-p census by resolvent descent
# ---------------------------------------------------------------------------


def test_quadratic_extension_counts():
    assert len(orc.quadratic_extensions(LocalField(3, 1, 1))) == 3
    assert len(orc.quadratic_extensions(LocalField(5, 1, 1))) == 3
    assert len(orc.quadratic_extensions(LocalField(2, 1, 1))) == 7


def test_cyclic_quartic_tower_counts():
    # local class field theory: C4 extensions correspond to surjections
    # F^x -> Z/4 up to automorphism
    assert len(orc.cyclic_quartic_towers(LocalField(5, 1, 1))) == 6
    assert len(orc.cyclic_quartic_towers(LocalField(2, 1, 1))) == 12


def test_extend_conjugation_orders():
    # the internal assertions check sigma has order four on each tower
    for K in orc.cyclic_quartic_towers(LocalField(5, 1, 1)):
        orc.extend_conjugation(K)


def test_wild_census_q2():
    recs = orc.enum_wild_totally_ramified(LocalField(2, 1, 1))
    assert Counter((r.group, r.disc_val) for r in recs) == {
        ("Cp", 2): 2,
        ("Cp", 3): 4,
    }
    assert orc.wild_premass(LocalField(2, 1, 1), recs) == Fraction(1, 2)


def test_wild_census_q3():
    F = LocalField(3, 1, 1)
    recs = orc.enum_wild_totally_ramified(F)
    assert Counter(r.group for r in recs) == {"Cp": 3, "Cp:C2": 6}
    assert sorted(r.disc_val for r in recs if r.group == "Cp:C2") == [3, 3, 4, 5, 5, 5]
    assert all(r.aut == 1 for r in recs if r.group != "Cp")
    assert orc.wild_premass(F, recs) == Fraction(1, 9)


def test_wild_census_q5():
    F = LocalField(5, 1, 1)
    recs = orc.enum_wild_totally_ramified(F)
    assert Counter(r.group for r in recs) == {"Cp": 5, "Cp:C2": 3, "Cp:C4": 17}
    assert orc.wild_premass(F, recs) == Fraction(1, 5**4)


def test_wild_census_ramified_quadratic_bases():
    Q3 = LocalField(3, 1, 1)
    for d in (Q3.pi(), Q3.mul(Q3.from_int(-1), Q3.pi())):
        F = quad_extend(Q3, d)
        assert orc.wild_premass(F) == Fraction(1, F.q ** (F.p - 1))


def test_wild_descent_guard():
    with pytest.raises(GuardError):
        orc.enum_wild_totally_ramified(LocalField(7, 1, 1))


def _twist_eigenvalue(p, chi, conj_images):
    """The t with chi o sigma = t * chi, or None when not stable.

    ``conj_images[j]`` is the class vector of sigma of the j-th basis
    element, so (chi o sigma)_j is chi dotted with it.
    """
    chis = [sum(c * x for c, x in zip(chi, img)) % p for img in conj_images]
    j0 = next(j for j in range(len(chi)) if chi[j])
    t = chis[j0] * pow(chi[j0], -1, p) % p
    if any((t * c - s) % p for c, s in zip(chi, chis)):
        return None
    return t


def _brute_wild_census(F):
    """The census by testing every character of every resolvent K."""
    p = F.p
    out = Counter(("Cp", r.disc_val, p) for r in orc.enum_cp_characters(F) if r.cond > 0)
    for K, sigma, d, v_disc_k, f_rel in orc._resolvents(F):
        conj_images = [ug.p_class_coords(K, sigma(b)) for b in ug.unit_basis(K).elems]
        for r in orc.enum_cp_characters(K):
            t = _twist_eigenvalue(p, r.chi, conj_images)
            if r.cond == 0 or t is None:
                continue
            if min(k for k in range(1, p) if pow(t, k, p) == 1) == d:
                disc = (p - 1) * (v_disc_k + f_rel * r.cond) // d
                out[(f"Cp:C{d}", disc, 1)] += 1
    return out


@pytest.mark.parametrize("p,d", [(3, None), (5, None), (3, 3), (3, -3)])
def test_wild_census_matches_filtering_every_character(p, d):
    # over Q_3, Q_5, Q_3(sqrt(3)) and Q_3(sqrt(-3))
    F = LocalField(p, 1, 1)
    if d is not None:
        F = quad_extend(F, F.from_int(d))
    recs = orc.enum_wild_totally_ramified(F)
    assert Counter((r.group, r.disc_val, r.aut) for r in recs) == _brute_wild_census(F)


def test_wild_guard_bounds_the_enumerated_lines():
    # over Q_5 every quartic resolvent K has 3906 character lines, but
    # no eigenspace enumerated has more than the 6 of Q_5 itself
    F = LocalField(5, 1, 1)
    want = orc.enum_wild_totally_ramified(F)
    assert orc.enum_wild_totally_ramified(F, max_size=6) == want
    with pytest.raises(GuardError):
        orc.enum_wild_totally_ramified(F, max_size=5)
    # an eigenspace is refused before any line of it is built: t = 2
    # on the identity action of F_5^3 leaves all 31 lines
    rows = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert len(list(orc._eigenlines(5, rows, 2, 31))) == 31
    with pytest.raises(GuardError):
        next(orc._eigenlines(5, rows, 2, 30))
