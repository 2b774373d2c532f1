"""Acceptance gate: end-to-end pinned results and property suites.

Each test pins an externally meaningful quantity (a published density,
an Euler factor, a mass identity) or cross-checks a formula against a
brute-force enumeration that never uses the formula being tested.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from etmass import density as dens
from etmass import massprime as mp
from etmass import massquartic as mq
from etmass import oracle as orc
from etmass import unitgroups as ug
from etmass.padic import GuardError, LocalField, quad_extend

import omega_reference as ref
from alpha_reference import closed_form_alpha
from test_massprime import all_symbols, symbol_premass
from test_padic import congruent, random_unit
from tower_reference import disc_val_quadratic

Q2 = LocalField(2, 1, 1)
F22 = LocalField(2, 2, 1)


def square_class_reps(F, nontrivial_only=True):
    basis = ug.unit_basis(F)
    out = []
    for mask in range(1 if nontrivial_only else 0, 1 << basis.dim):
        d = F.one()
        for j in range(basis.dim):
            if mask >> j & 1:
                d = F.mul(d, basis.elems[j])
        out.append(d)
    return out


def random_element(F, rng, max_val=4):
    u = random_unit(F, rng)
    k = int(rng.integers(0, max_val + 1))
    return F.normalize_pshift(F.mul(u, F.power(F.pi(), k)))


# ---------------------------------------------------------------------------
# 1. cubic density over Q
# ---------------------------------------------------------------------------


def test_01_cubic_density_interval():
    # the density of totally real S_3 cubic fields: 1/(3 zeta(3)),
    # recovered as a rigorous interval of width <= 1e-3 within 10 s
    mpmath = pytest.importorskip("mpmath")
    t0 = time.monotonic()
    di = dens.euler_density(dens.GlobalSpec(3, (), 10_000))
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    width = di.coeff_hi - di.coeff_lo
    assert width <= Fraction(1, 1000)
    mpmath.mp.dps = 30
    target = Fraction(str(1 / (3 * mpmath.zeta(3))))
    assert di.coeff_lo <= target <= di.coeff_hi


# ---------------------------------------------------------------------------
# 2. unconstrained Euler factors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", dens.primes_up_to(100))
def test_02_unconstrained_euler_factors(p):
    # quartic and quintic local factors from the mass machinery, at
    # every p <= 100 (p = 2 exercises the wild 2-adic module)
    F = LocalField(p, 1, 1)
    q = Fraction(p)
    scale = Fraction(p - 1, p)
    assert scale * mq.premass4(F).total == 1 + q**-2 - q**-3 - q**-4
    assert scale * mp.premass_ell_total(F, 5).total == 1 + q**-2 - q**-4 - q**-5


# ---------------------------------------------------------------------------
# 3. totally ramified pre-mass 1/q^(p-1)
# ---------------------------------------------------------------------------


def test_03_totally_ramified_premass():
    # over any base F the pre-mass of the totally ramified degree-p
    # fields is 1/q^(p-1); checked by the closed-form formula and,
    # independently, by direct enumeration of the extensions
    q3 = LocalField(3, 1, 1)
    fields = [
        Q2,
        q3,
        LocalField(5, 1, 1),
        quad_extend(Q2, Q2.from_int(-1)),  # ramified quadratic base
        quad_extend(Q2, Q2.from_int(5)),  # unramified quadratic base
        quad_extend(q3, q3.pi()),
    ]
    t0 = time.monotonic()
    for F in fields:
        want = Fraction(1, F.q ** (F.p - 1))
        assert mp.premass_ell_total(F, F.p).part(f"(1^{F.p})") == want
        assert orc.wild_premass(F) == want
    assert time.monotonic() - t0 <= 5.0


# ---------------------------------------------------------------------------
# 4. the epimorphic quartic symbols
# ---------------------------------------------------------------------------


def test_04_epimorphic_symbol_identity():
    constrained = {"(4)", "(2 2)", "(1^2 1^2)", "(2^2)", "(1^4)"}
    epi = [s for s in all_symbols(4) if str(s) not in constrained]
    assert len(epi) == 6
    qs = sorted({p**k for p in dens.primes_up_to(100) for k in (1, 2, 3, 4)})[:50]
    assert len(qs) == 50
    for q in qs:
        total = sum(symbol_premass(s, q) for s in epi)
        assert total == Fraction(5 * q * q + 8 * q + 8, 8 * q * q), q


# ---------------------------------------------------------------------------
# 5. the A/B helper identity
# ---------------------------------------------------------------------------


def test_05_helper_identity_random():
    rng = random.Random(20260823)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        t = rng.randint(2, 40)
        q = Fraction(1)
        while q == 1:
            q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        assert mp.identity_check(p, q, t), (p, q, t)


# ---------------------------------------------------------------------------
# 6. a worked constrained pre-mass, three ways
# ---------------------------------------------------------------------------


def test_06_q2_minus_one_three_ways():
    # pre-mass of the ramified quadratics of Q_2 admitting -1 as a
    # norm: layer sum, single-generator closed form, and character
    # enumeration must all give 1/8
    alpha = Q2.from_int(-1)
    prof = ug.filtration_profile(Q2, [alpha], 2)
    by_layers = mp.premass_Cp_wild(Q2, prof)
    by_closed_form = closed_form_alpha(Q2, alpha)
    by_characters = sum(
        (
            Fraction(1, 2 * Q2.q**r.disc_val)
            for r in orc.enum_cp_characters(Q2, gens=[alpha])
            if r.cond > 0 and r.norm_flags[0]
        ),
        Fraction(0),
    )
    assert by_layers == by_closed_form == by_characters == Fraction(1, 8)


# ---------------------------------------------------------------------------
# 7. 2-adic quartic counts against the tower oracle
# ---------------------------------------------------------------------------

GEN_SETS = {"triv": (), "<-1>": (-1,), "<2>": (2,), "<5>": (5,), "<-1,2>": (-1, 2)}


@pytest.fixture(scope="module")
def q2_oracle_data():
    gens = [Q2.from_int(-1), Q2.from_int(2), Q2.from_int(5)]
    recs = orc.enum_quartic_towers(Q2, gens=gens)
    chars = orc.enum_cp_characters(Q2, gens=gens)
    return recs, chars


def test_07_quartic_counts_match_oracle(q2_oracle_data):
    recs, chars = q2_oracle_data
    js = {"triv": [], "<-1>": [0], "<2>": [1], "<5>": [2], "<-1,2>": [0, 1]}
    ram = [r for r in chars if r.cond > 0]
    t0 = time.monotonic()
    for name, ints in GEN_SETS.items():
        gens = tuple(Q2.from_int(a) for a in ints)
        flags = js[name]
        # field symbols (2^2) and (1^4): every (group, disc) count
        tal = orc.tally_towers(
            recs, pred=lambda r: all(r.norm_flags[j] for j in flags)
        )
        got = {}
        for (g, m), c in mq.counts_22(Q2, gens).items():
            got[("(2^2)", g, m)] = c
        for (g, m), c in mq.counts_14(Q2, gens).items():
            got[("(1^4)", g, m)] = c
        want = {k: v for k, v in tal.items() if k[0] in ("(2^2)", "(1^4)")}
        assert got == want, name
        # symbol (1^2 1^2): diagonal and distinct pairs of quadratic
        # characters
        pair_counts = {}
        for i, r1 in enumerate(ram):
            if all(r1.norm_flags[j] for j in flags):
                m = 2 * r1.disc_val
                pair_counts[("C2", m)] = pair_counts.get(("C2", m), 0) + 1
            for r2 in ram[i + 1 :]:
                m = r1.disc_val + r2.disc_val
                pair_counts[("V4", m)] = pair_counts.get(("V4", m), 0) + 1
        assert mq.counts_1212(Q2, gens) == pair_counts, name
    assert time.monotonic() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 8. norm-equation class counts, brute vs structured (the paper's route,
#    kept as the test-side reference in omega_reference.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base_d", [None, 2])
def test_08_nec_brute_equals_subspace(base_d):
    F = Q2 if base_d is None else quad_extend(Q2, Q2.from_int(base_d))
    rng = np.random.default_rng(3 + (base_d or 0))
    reps = square_class_reps(F)
    checked = 0
    while checked < 100:
        d = reps[int(rng.integers(0, len(reps)))]
        if mq.hilbert2(F, -1, d) != 1:
            continue
        E = quad_extend(F, d)
        gens = tuple(random_element(F, rng) for _ in range(int(rng.integers(0, 4))))
        nb = ref.nec_sizes(F, E, gens, algo="brute")
        ns = ref.nec_sizes(F, E, gens, algo="subspace")
        assert nb.total == ns.total and nb.sizes == ns.sizes
        checked += 1


# ---------------------------------------------------------------------------
# 9. the small-discriminant extender construction (omega_reference.py)
# ---------------------------------------------------------------------------


def test_09_omega_construction():
    # over a base with e = 2 the construction applies to the ramified
    # quadratics with m1 = 2; its five stage invariants are checked and
    # the output discriminant 3 m1 - 2 is confirmed minimal by scanning
    # all candidate extenders
    F = F22
    applied = 0
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if E.kind != "ramified" or E.disc_val != 2 or mq.hilbert2(F, -1, d) != 1:
            continue
        m1 = E.disc_val
        st = ref.omega_small_disc(F, E, with_state=True)
        assert congruent(F, E.norm(st.omega), F.mul(st.lam, st.lam), 2 * F.e + 1 - m1)
        assert E.val(st.omega - E.embed(st.lam)) >= m1 - 1
        assert congruent(E, st.omega2, E.embed(st.lam2), m1)
        assert F.val(st.s2) == m1 // 2
        assert congruent(E, st.output, E.one(), 4 * F.e + 3 - 3 * m1)
        assert disc_val_quadratic(E, st.output) == 3 * m1 - 2
        # conductor scan over every even-valuation square class with
        # the right norm class: nothing beats 3 m1 - 2
        dcls = ug.p_class_coords(F, F.coerce(E.d))
        best = None
        for w in square_class_reps(E):
            if E.val(w) % 2:
                continue
            w = E.normalize_pshift(E.shift(w, -E.val(w)))
            if not np.array_equal(ug.p_class_coords(F, E.norm(w)), dcls):
                continue
            dv = disc_val_quadratic(E, w)
            best = dv if best is None else min(best, dv)
        assert best == 3 * m1 - 2
        applied += 1
    assert applied == 2


# ---------------------------------------------------------------------------
# 10. property suites
# ---------------------------------------------------------------------------

GEN_POOL = (
    Fraction(-1),
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(-3),
    Fraction(1, 2),
    Fraction(15),
    Fraction(4, 9),
)


@lru_cache(maxsize=None)
def cached_local_mass(n, p, gens):
    return dens.local_mass(n, p, gens)


def test_10a_monotone_under_inclusion():
    # enlarging the prescribed group can only remove algebras
    rng = random.Random(101)
    for _ in range(200):
        n = rng.choice([3, 4, 5])
        p = rng.choice([2, 3, 5, 7])
        sub = tuple(rng.sample(GEN_POOL, rng.randint(0, 2)))
        sup = sub + tuple(rng.sample(GEN_POOL, rng.randint(1, 2)))
        assert cached_local_mass(n, p, sup) <= cached_local_mass(n, p, sub)


def test_10b_trivial_group_reduction():
    # with no generators the constrained machinery reduces to the
    # unconstrained closed forms
    cases = []
    for p in dens.primes_up_to(550):
        cases.append((3, p))
        cases.append((5, p))
    cases.extend((4, p) for p in dens.primes_up_to(100))
    assert len(cases) >= 200
    for n, p in cases:
        F = LocalField(p, 1, 1)
        scale = Fraction(p - 1, p)
        if n == 4:
            pre = mq.premass4(F).total
        else:
            pre = mp.premass_ell_total(F, n).total
        assert scale * pre == dens.full_local_factor(n, p), (n, p)


def test_10c_nth_power_absorption():
    # an n-th power is a norm everywhere and changes nothing
    rng = random.Random(202)
    for _ in range(200):
        n = rng.choice([3, 4, 5])
        p = rng.choice([2, 3, 5, 7])
        gens = tuple(rng.sample(GEN_POOL, rng.randint(0, 2)))
        g = rng.choice(GEN_POOL)
        assert cached_local_mass(n, p, gens + (g**n,)) == cached_local_mass(
            n, p, gens
        )


def test_10d_precision_doubling():
    # every pre-mass is stable under doubling the working precision
    rng = random.Random(303)
    shapes = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (5, 1, 1)]
    for _ in range(200):
        p, e, f = shapes[rng.randrange(len(shapes))]
        F1 = LocalField(p, e, f)
        F2 = LocalField(p, e, f, prec=2 * F1.prec)
        spec = [
            (rng.choice([-1, 1, 2, 3, 5, 7]), rng.randint(0, 2))
            for _ in range(rng.randint(0, 2))
        ]

        def make(F):
            return tuple(
                F.mul(F.from_int(k), F.power(F.pi(), v)) for k, v in spec
            )

        if p == 2 and rng.random() < 0.5:
            a = mq.premass4(F1, make(F1)).total
            b = mq.premass4(F2, make(F2)).total
        else:
            a = mp.premass_ell_total(F1, p, make(F1)).total
            b = mp.premass_ell_total(F2, p, make(F2)).total
        assert a == b, (p, e, f, spec)


def test_10e_interval_nesting():
    # doubling the prime bound always tightens both intervals
    rng = random.Random(404)
    for _ in range(200):
        n = rng.choice([3, 3, 3, 4, 5])
        base = {3: 10, 4: 25, 5: 33}[n]
        bound = rng.randint(base, base + 15)
        gens = tuple(rng.sample(GEN_POOL[:5], rng.randint(0, 2)))
        a = dens.euler_density(dens.GlobalSpec(n, gens, bound))
        b = dens.euler_density(dens.GlobalSpec(n, gens, 2 * bound))
        assert a.coeff_lo <= b.coeff_lo <= b.coeff_hi <= a.coeff_hi
        assert a.prop_lo <= b.prop_lo <= b.prop_hi <= a.prop_hi
