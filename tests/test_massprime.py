"""Tests for prime-degree pre-masses against the enumeration oracles."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etmass import massprime as mp
from etmass import oracle as orc
from etmass import unitgroups as ug
from etmass.padic import LocalField, quad_extend

from alpha_reference import closed_form_alpha, premass_Cp_closed_form


def ramified_quadratic(p, seed=0):
    F0 = LocalField(p, 1, 1)
    return LocalField(p, 2, 1, seed=seed), F0


WILD_BASES = [
    LocalField(2, 1, 1),
    LocalField(3, 1, 1),
    LocalField(5, 1, 1),
    LocalField(2, 2, 1),
    LocalField(2, 1, 2),
    LocalField(3, 2, 1),
    LocalField(3, 2, 1, seed=2),  # Q_3(sqrt 6) = Q_3(zeta_3): the mu_3 top level
]


def base_id(F):
    return f"p{F.p}e{F.e}f{F.f}" + (f"s{F.seed}" if F.seed else "")


# ---------------------------------------------------------------------------
# partitions and symbols
# ---------------------------------------------------------------------------


def test_partition_count_basics():
    assert mp.partition_count(0, 4) == 1
    assert mp.partition_count(2, 2) == 2
    assert mp.partition_count(3, 1) == 1
    assert mp.partition_count(5, 0) == 0


def test_partition_count_brute():
    def brute(d, m):
        return sum(
            1
            for parts in itertools.combinations_with_replacement(range(d + 1), m)
            if sum(parts) == d
        )

    for d in range(8):
        for m in range(1, 6):
            assert mp.partition_count(d, m) == brute(d, m), (d, m)


def degree(s):
    """The degree sum(e_i f_i) of the algebras with splitting symbol s."""
    return sum(e * f for e, f in s.pairs)


def d_sigma(s):
    """The discriminant exponent sum(f_i (e_i - 1)) of symbol s."""
    return sum(f * (e - 1) for e, f in s.pairs)


def all_symbols(n):
    """All splitting symbols of degree n, each exactly once."""

    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for e in range(1, remaining + 1):
            for f in range(1, remaining // e + 1):
                if (e, f) < minimum:
                    continue
                for rest in rec(remaining - e * f, (e, f)):
                    yield ((e, f),) + rest

    return [mp.SplittingSymbol(p) for p in rec(n, (1, 1))]


def symbol_premass(sigma, q):
    """Pre-mass of the algebras with splitting symbol sigma: 1/(q^d #Aut)."""
    return Fraction(1, q**d_sigma(sigma) * sigma.aut)


def test_symbol_parse_and_invariants():
    s = mp.parse_symbol("(1^3 1)")
    assert degree(s) == 4 and d_sigma(s) == 2 and s.aut == 1
    s = mp.parse_symbol("22")
    assert degree(s) == 4 and d_sigma(s) == 0 and s.aut == 8
    s = mp.parse_symbol("1^2,2")
    assert degree(s) == 4 and d_sigma(s) == 1 and s.aut == 2
    assert mp.parse_symbol("1111").aut == 24
    assert mp.parse_symbol("(4)").aut == 4
    assert mp.parse_symbol("(2^2)").aut == 2
    with pytest.raises(ValueError):
        mp.parse_symbol("(x)")


def test_symbol_parse_reads_every_ramification_digit():
    # every digit after "^" belongs to the ramification index; residue
    # degrees stay one digit per token
    assert mp.parse_symbol("(1^11)").pairs == ((11, 1),)
    assert str(mp.parse_symbol("1^12 2^3")) == "(2^3 1^12)"
    for bad in ("1^", "(1^ 2)", "^2"):
        with pytest.raises(ValueError):
            mp.parse_symbol(bad)


def test_all_symbols_counts():
    # number of splitting symbols of degree n
    assert len(all_symbols(2)) == 3
    assert len(all_symbols(3)) == 5
    assert len(all_symbols(4)) == 11
    for n in (2, 3, 4, 5):
        syms = all_symbols(n)
        assert len(set(syms)) == len(syms)
        assert all(degree(s) == n for s in syms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("q", [2, 3, 5, 49])
def test_symbol_premass_sums_to_disc_layers(n, q):
    by_d = Counter()
    for s in all_symbols(n):
        by_d[d_sigma(s)] += symbol_premass(s, q)
    for d in range(n):
        assert by_d[d] == Fraction(mp.partition_count(d, n - d), q**d), (n, d)


def test_disc_layer_table():
    q = 7
    assert [Fraction(mp.partition_count(d, 4 - d), q**d) for d in range(4)] == [
        Fraction(1),
        Fraction(1, q),
        Fraction(2, q**2),
        Fraction(1, q**3),
    ]


# ---------------------------------------------------------------------------
# A/B helpers
# ---------------------------------------------------------------------------


def test_helper_AB_p2():
    A, B = mp.helper_AB(2, 2, 3)
    assert (A, B) == (1, 0)
    for q, t in [(2, 2), (3, 5), (Fraction(7, 2), 9)]:
        assert mp.helper_AB(2, q, t)[1] == 0


def test_identity_check_spot():
    assert mp.identity_check(3, 3, 5)
    assert mp.identity_check(2, 2, 3)
    assert mp.identity_check(5, Fraction(7, 3), 11)


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_identity_check_random(seed):
    rng = np.random.default_rng(seed)
    p = [2, 3, 5, 7, 11, 13][int(rng.integers(6))]
    t = int(rng.integers(2, 41))
    q = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
    if q == 1:
        q += 1
    assert mp.identity_check(p, q, t)


# ---------------------------------------------------------------------------
# wild cyclic counts vs the character oracle
# ---------------------------------------------------------------------------


def test_count_Cp_spec_values():
    Q2 = LocalField(2, 1, 1)
    Q3 = LocalField(3, 1, 1)
    assert mp.count_Cp(Q2, 2) == 2
    assert mp.count_Cp(Q2, 3) == 4
    assert mp.count_Cp(Q2, 1) == 0
    assert mp.count_Cp(Q3, 4) == 3
    assert mp.count_Cp(Q3, 2) == 0
    prof = ug.filtration_profile(Q2, [Q2.from_int(-1)], 2)
    assert mp.count_Cp(Q2, 3, prof) == 2
    assert mp.count_Cp(Q2, 2, prof) == 0


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
def test_count_Cp_matches_character_oracle(F):
    recs = orc.enum_cp_characters(F)
    seen = Counter(r.disc_val for r in recs if r.cond > 0)
    top = F.p * F.e * (F.p - 1) // (F.p - 1) ** 2 + 1
    for m in range(0, (F.p - 1) * (top + 2) + 1):
        assert mp.count_Cp(F, m) == seen.get(m, 0), (F.p, F.e, F.f, m)


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
def test_count_Cp_constrained_matches_oracle(F):
    rng = np.random.default_rng(41)
    pool = [F.from_int(int(n)) for n in (-1, 2, 3, 5, -3) if n % F.p]
    pool.append(F.pi())
    for r in range(3):
        gens = list(rng.choice(len(pool), size=r, replace=False))
        gens = [pool[i] for i in gens]
        prof = ug.filtration_profile(F, gens, F.p)
        recs = orc.enum_cp_characters(F, gens=gens)
        seen = Counter(
            r.disc_val for r in recs if r.cond > 0 and all(r.norm_flags)
        )
        for m in range(0, 4 * F.p * F.e + 2):
            assert mp.count_Cp(F, m, prof) == seen.get(m, 0), (F.p, F.e, m)


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
def test_premass_Cp_wild_closed_form_vs_sum(F):
    p = F.p
    top_m = (p - 1) * (p * F.e // (p - 1) + 1)
    series = sum(
        Fraction(mp.count_Cp(F, m), p * F.q**m) for m in range(top_m + 1)
    )
    closed = premass_Cp_closed_form(F)
    assert series == closed
    assert mp.premass_Cp_wild(F) == closed
    assert mp.premass_Cp_wild(F) == orc.cp_premass_from_characters(F)
    trivial = ug.filtration_profile(F, [], p)
    assert mp.premass_Cp_wild(F, trivial) == mp.premass_Cp_wild(F)


def test_premass_Cp_wild_q2_values():
    Q2 = LocalField(2, 1, 1)
    assert mp.premass_Cp_wild(Q2) == Fraction(1, 2)
    prof = ug.filtration_profile(Q2, [Q2.from_int(-1)], 2)
    assert mp.premass_Cp_wild(Q2, prof) == Fraction(1, 8)


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
def test_premass_Cp_wild_constrained_vs_oracle(F):
    rng = np.random.default_rng(43)
    pool = [F.from_int(int(n)) for n in (-1, 2, 3, 5, 7, -3, 10) if n % F.p]
    pool.append(F.pi())
    pool.append(F.mul(F.pi(), pool[0]))
    for r in (1, 2, 3):
        idx = list(rng.choice(len(pool), size=r, replace=False))
        gens = [pool[i] for i in idx]
        prof = ug.filtration_profile(F, gens, F.p)
        recs = orc.enum_cp_characters(F, gens=gens)
        want = sum(
            (
                Fraction(1, rec.aut * F.q**rec.disc_val)
                for rec in recs
                if rec.cond > 0 and all(rec.norm_flags)
            ),
            Fraction(0),
        )
        assert mp.premass_Cp_wild(F, prof) == want, (F.p, F.e, F.f, r)


# ---------------------------------------------------------------------------
# single-generator closed form
# ---------------------------------------------------------------------------


def test_closed_form_alpha_q2():
    Q2 = LocalField(2, 1, 1)
    assert closed_form_alpha(Q2, Q2.from_int(2)) == Fraction(1, 4)
    assert closed_form_alpha(Q2, Q2.from_int(-1)) == Fraction(1, 8)
    # squares constrain nothing
    assert closed_form_alpha(Q2, Q2.from_int(17)) == Fraction(1, 2)


def test_closed_form_alpha_q3_example():
    Q3 = LocalField(3, 1, 1)
    alpha = Q3.from_int(10)
    prof = ug.filtration_profile(Q3, [alpha], 3)
    assert closed_form_alpha(Q3, alpha) == mp.premass_Cp_wild(Q3, prof)


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
def test_closed_form_alpha_matches_series(F):
    from test_padic import random_unit

    rng = np.random.default_rng(47)
    for _ in range(8):
        u = random_unit(F, rng)
        v = int(rng.integers(0, 2 * F.p + 1))
        alpha = F.mul(u, F.power(F.pi(), v)) if v else u
        prof = ug.filtration_profile(F, [alpha], F.p)
        assert closed_form_alpha(F, alpha) == mp.premass_Cp_wild(F, prof)


# ---------------------------------------------------------------------------
# the assembled prime-degree total
# ---------------------------------------------------------------------------


def test_total_q2_cubic_trivial():
    Q2 = LocalField(2, 1, 1)
    rep = mp.premass_ell_total(Q2, 3)
    assert rep.total == Fraction(7, 4)
    assert rep.part("(3)") == Fraction(1, 3)
    assert rep.part("(1^3)") == Fraction(1, 4)


def test_total_q7_cubic_uniformizer():
    Q7 = LocalField(7, 1, 1)
    rep = mp.premass_ell_total(Q7, 3, [Q7.from_int(7)])
    assert rep.part("(1^3)") == Fraction(1, 3 * 49)
    assert rep.part("(3)") == 0


def test_total_q5_quadratic_uniformizer():
    Q5 = LocalField(5, 1, 1)
    rep = mp.premass_ell_total(Q5, 2, [Q5.from_int(5)])
    assert rep.part("(1^2)") == Fraction(1, 10)
    assert rep.part("(2)") == 0


@pytest.mark.parametrize("F", WILD_BASES, ids=base_id)
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_total_trivial_is_full_mass(F, ell):
    rep = mp.premass_ell_total(F, ell)
    want = sum(
        (Fraction(mp.partition_count(d, ell - d), F.q**d) for d in range(ell)), Fraction(0)
    )
    assert rep.total == want


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_total_tame_matches_oracle(p, ell):
    # over Q_p, a ramified and an unramified quadratic base: the residue
    # symbols are read through rf.pow over F_q, which the oracle's
    # discrete logs check independently
    if ell == p:
        return
    for e, f in [(1, 1), (2, 1), (1, 2)]:
        F = LocalField(p, e, f)
        pool = [F.from_int(n) for n in (2, 3, -1, p, 2 * p, -p)]
        pool += [F.pi(), F.ugen(), F.mul(F.pi(), F.ugen())]
        rng = np.random.default_rng(53)
        for r in range(4):
            for _ in range(3 if r else 1):
                idx = list(rng.choice(len(pool), size=r, replace=False))
                gens = [pool[i] for i in idx]
                recs = orc.enum_tame(F, ell, gens=gens)
                unram = sum(
                    Fraction(1, rec.aut)
                    for rec in recs
                    if rec.disc_val == 0 and all(rec.norm_flags)
                )
                ram = sum(
                    Fraction(1, rec.aut * F.q**rec.disc_val)
                    for rec in recs
                    if rec.disc_val > 0 and all(rec.norm_flags)
                )
                rep = mp.premass_ell_total(F, ell, gens)
                assert rep.part(f"({ell})") == unram, (p, e, f, ell, idx)
                assert rep.part(f"(1^{ell})") == ram, (p, e, f, ell, idx)


def test_total_monotone_in_generators():
    Q2 = LocalField(2, 1, 1)
    chains = [
        [[], [-1], [-1, 2], [-1, 2, 5]],
        [[], [2], [2, 3]],
        [[], [5], [5, -1]],
    ]
    for chain in chains:
        vals = [
            mp.premass_ell_total(Q2, 2, [Q2.from_int(n) for n in gens]).total
            for gens in chain
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:])), chain


def test_total_rejects_composite():
    Q2 = LocalField(2, 1, 1)
    with pytest.raises(ValueError):
        mp.premass_ell_total(Q2, 4)


def test_power_absorption():
    Q3 = LocalField(3, 1, 1)
    gens = [Q3.from_int(8), Q3.from_int(27)]
    assert (
        mp.premass_ell_total(Q3, 3, gens).total
        == mp.premass_ell_total(Q3, 3).total
    )
