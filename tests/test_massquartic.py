"""Tests for the quartic pre-mass module."""

import gc
import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from etmass import massquartic as mq
from etmass import padic
from etmass import oracle as orc
from etmass import unitgroups as ug
from etmass.massprime import count_Cp, disc_layer_premass
from etmass.padic import (
    GuardError,
    LocalField,
    PrecisionError,
    QuadExt,
    disc_val_quadratic,
    quad_extend,
)

import omega_reference as ref
import tower_reference as tr
from test_padic import congruent, random_unit

Q2 = LocalField(2, 1, 1)
F22 = LocalField(2, 2, 1)
Q2F2 = LocalField(2, 1, 2)


def premass4_wild(F, gens=(), symbol="(1^4)"):
    """The constrained pre-mass of one wild quartic symbol, by closure
    group, as ``premass4`` weighs it."""
    return mq._wild(F, mq._classes4(F, gens), symbol, "subspace")


def norm_class_contains(E, alpha):
    """Whether alpha in F^x is a norm from the quadratic extension E."""
    F = E.base
    return ug.norm_class_matrix(E).reduce(ug.class_vec(F, F.coerce(alpha), 2))[0] is None


def square_class_reps(F, nontrivial_only=True):
    """One representative per square class of F (p = 2)."""
    basis = ug.unit_basis(F)
    out = []
    for mask in range(0 if not nontrivial_only else 1, 1 << basis.dim):
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
# Hilbert symbols
# ---------------------------------------------------------------------------


def test_hilbert2_q2_known_values():
    assert mq.hilbert2(Q2, -1, -1) == -1
    assert mq.hilbert2(Q2, 2, 5) == -1
    assert mq.hilbert2(Q2, -1, 5) == 1
    assert mq.hilbert2(Q2, 2, 2) == 1  # (2,2) = (2,-1)(2,-2) = (2,-1)
    assert mq.hilbert2(Q2, -1, 2) == 1
    assert mq.hilbert2(Q2, 5, 5) == 1


def test_hilbert2_odd_p_known_values():
    Q3 = LocalField(3, 1, 1)
    Q5 = LocalField(5, 1, 1)
    assert mq.hilbert2(Q3, 3, 3) == -1  # (pi,pi) = (-1,pi), -1 not a square
    assert mq.hilbert2(Q3, -1, 3) == -1
    assert mq.hilbert2(Q5, -1, 5) == 1  # -1 is a square in Q_5
    assert mq.hilbert2(Q5, 2, 5) == -1  # 2 is not a square mod 5


@pytest.mark.parametrize("F", [Q2, F22, Q2F2, LocalField(3, 1, 1), LocalField(5, 1, 1)])
def test_hilbert2_properties(F):
    rng = np.random.default_rng(7 + F.p + F.e + F.f)
    for _ in range(15):
        a = random_element(F, rng)
        b = random_element(F, rng)
        c = random_element(F, rng)
        # symmetry and bimultiplicativity
        assert mq.hilbert2(F, a, b) == mq.hilbert2(F, b, a)
        assert mq.hilbert2(F, a, F.mul(b, c)) == mq.hilbert2(F, a, b) * mq.hilbert2(
            F, a, c
        )
        # (a, -a) = 1 always
        assert mq.hilbert2(F, a, F.neg(a)) == 1
        # squares pair trivially
        assert mq.hilbert2(F, F.mul(a, a), b) == 1


@pytest.mark.parametrize("F", [Q2, F22])
def test_hilbert2_matches_norm_definition(F):
    # (a, b) = +1 exactly when a is a norm from F(sqrt(b))
    rng = np.random.default_rng(23)
    for b in square_class_reps(F):
        E = quad_extend(F, b)
        for _ in range(4):
            a = random_element(F, rng)
            want = 1 if norm_class_contains(E, a) else -1
            assert mq.hilbert2(F, a, b) == want


# ---------------------------------------------------------------------------
# closed-form helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("F", [Q2, F22])
def test_helper_nc2_matches_quadratic_counts(F):
    # N^C2 counts ramified quadratic extensions of a ramified quadratic
    # E of F, which has absolute ramification index 2 e_F
    E = quad_extend(F, F.pi())
    for m2 in range(0, 4 * F.e + 4):
        assert mq._h_nc2(F.q, F.e, m2) == count_Cp(E, m2), m2


@pytest.mark.parametrize("F", [Q2, F22])
def test_helper_nneq_matches_pair_enumeration(F):
    discs = []
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if E.kind == "ramified":
            discs.append(E.disc_val)
    for m in range(0, 4 * F.e + 4):
        want = sum(
            1
            for i in range(len(discs))
            for j in range(i + 1, len(discs))
            if discs[i] + discs[j] == m
        )
        assert mq._h_nneq(F.q, F.e, m) == want, m


# ---------------------------------------------------------------------------
# the paper's norm-class sets (the reference in omega_reference.py)
# ---------------------------------------------------------------------------


def test_nec_trivial_constraint_q2():
    # without constraints the set is all of F^x/F^{x2}, filtered by level
    nec = ref.nec_sizes(Q2, ref._unramified_quadratic(Q2))
    assert nec.total == 8
    assert nec.sizes == (4, 4, 2)


@pytest.mark.parametrize("base_d", [None, 2, -1])
def test_nec_brute_equals_subspace_random(base_d):
    F = Q2 if base_d is None else quad_extend(Q2, Q2.from_int(base_d))
    rng = np.random.default_rng(101 + (base_d or 0))
    reps = square_class_reps(F)
    checked = 0
    while checked < 25:
        d = reps[int(rng.integers(0, len(reps)))]
        E = quad_extend(F, d)
        if mq.hilbert2(F, -1, d) != 1:
            continue
        gens = tuple(random_element(F, rng) for _ in range(int(rng.integers(0, 4))))
        nb = ref.nec_sizes(F, E, gens, algo="brute")
        ns = ref.nec_sizes(F, E, gens, algo="subspace")
        assert nb.total == ns.total and nb.sizes == ns.sizes
        checked += 1


def test_nec_gens4_choice_invariance():
    # any family generating the same group modulo fourth powers gives
    # the same sizes
    F = Q2
    E = ref._unramified_quadratic(F)
    a = ref.nec_sizes(F, E, (F.from_int(-1), F.from_int(2)))
    b = ref.nec_sizes(F, E, (F.from_int(2), F.from_int(-1)))
    c = ref.nec_sizes(F, E, (F.from_int(-2), F.from_int(2)))
    d = ref.nec_sizes(F, E, (F.from_int(-1), F.from_int(2), F.from_int(-2)))
    e = ref.nec_sizes(F, E, (F.from_int(-16), F.from_int(32)))
    assert a.total == b.total == c.total == d.total == e.total
    assert a.sizes == b.sizes == c.sizes == d.sizes == e.sizes


def test_nec_omega_choice_invariance():
    # the sizes do not depend on which minimal-discriminant extender is
    # chosen
    F = Q2
    E = ref._unramified_quadratic(F)
    dcls = ug.p_class_coords(F, F.coerce(E.d))
    omegas = []
    for w in square_class_reps(E):
        if E.val(w) % 2:
            continue
        w = E.normalize_pshift(E.shift(w, -E.val(w)))
        if disc_val_quadratic(E, w) != 0:
            continue
        if not np.array_equal(ug.p_class_coords(F, E.norm(w)), dcls):
            continue
        omegas.append(w)
    assert len(omegas) >= 1
    for gens in [(F.from_int(2),), (F.from_int(-1), F.from_int(5))]:
        results = {
            (ref.nec_sizes(F, E, gens, omega=w).total, ref.nec_sizes(F, E, gens, omega=w).sizes)
            for w in omegas
        }
        assert len(results) == 1


@pytest.mark.parametrize("F", [Q2, F22, Q2F2])
def test_nec_single_generator_closed_form(F):
    # single-generator sizes have a closed form in terms of the
    # discriminant valuation of F(sqrt(alpha))
    e = F.e
    E = ref._unramified_quadratic(F)
    dim = ug.unit_basis(F).dim
    for alpha in square_class_reps(F):
        d_alpha = disc_val_quadratic(F, alpha)
        v = F.val(alpha)
        nec = ref.nec_sizes(F, E, (alpha,))
        assert nec.total == 2 ** (dim - 1)
        for c in range(0, 2 * e + 1):
            if c < d_alpha:
                want = F.q ** (e - -((c - 1) // -2))
            elif v % 4 == 0:
                want = 2 * F.q ** (e - -((c - 1) // -2))
            else:
                want = 0
            assert nec.size_at(c) == want, (F.e, F.f, c)


def test_nec_brute_guard():
    F = LocalField(2, 1, 1)
    # fake a large degree via a tower: [E:Q2] fine, use direct guard call
    with pytest.raises(GuardError):
        ref._nec_brute(LocalField(2, 7, 2), [], [], tuple(range(28)))


def test_nec_rejects_non_extendable():
    with pytest.raises(ValueError):
        ref.nec_sizes(Q2, quad_extend(Q2, Q2.from_int(-1)))


@pytest.mark.parametrize("F", [Q2, F22])
def test_nec_without_generators_builds_no_omega(F, monkeypatch):
    # the empty constraint needs no cyclic extender: nec_sizes must not
    # choose omega or build a quadratic extension of E
    cases = []
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if mq.hilbert2(F, -1, d) == 1:
            w = ref.choose_omega(F, E)
            cases.append((E, [ref.nec_sizes(F, E, (), algo=a, omega=w) for a in ("brute", "subspace")]))
    assert cases

    def no_omega(F_, E_):
        raise AssertionError("choose_omega called")

    def no_tower(base, d):
        if any(base is E for E, _ in cases):
            raise AssertionError("quad_extend called over E")
        return quad_extend(base, d)

    monkeypatch.setattr(ref, "choose_omega", no_omega)
    monkeypatch.setattr(mq, "quad_extend", no_tower)
    for E, want in cases:
        got = [ref.nec_sizes(F, E, (), algo=a) for a in ("brute", "subspace")]
        assert [(n.total, n.sizes) for n in got] == [(n.total, n.sizes) for n in want]
        assert all(n.omega is None and n.signs == () for n in got)


# ---------------------------------------------------------------------------
# the reference's omega construction
# ---------------------------------------------------------------------------


def test_choose_omega_all_branches_q2():
    for d in square_class_reps(Q2):
        E = quad_extend(Q2, d)
        if mq.hilbert2(Q2, -1, d) != 1:
            with pytest.raises(ValueError):
                ref.choose_omega(Q2, E)
            continue
        w = ref.choose_omega(Q2, E)
        expected = 0 if E.kind == "unramified" else E.disc_val + 2
        assert disc_val_quadratic(E, w) == expected


def test_omega_small_disc_states():
    # e_F = 2 admits ramified E with m1 = 2 <= e_F; the nine-step
    # construction applies and its invariants are asserted internally
    F = F22
    found = 0
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if E.kind != "ramified" or E.disc_val != 2:
            continue
        if mq.hilbert2(F, -1, d) != 1:
            continue
        st = ref.omega_small_disc(F, E, with_state=True)
        assert disc_val_quadratic(E, st.output) == 3 * E.disc_val - 2
        # the invariants restated here, independently of the asserts
        # inside the construction
        m1 = E.disc_val
        assert congruent(F, E.norm(st.omega), F.mul(st.lam, st.lam), 2 * F.e + 1 - m1)
        assert E.val(st.omega - E.embed(st.lam)) >= m1 - 1
        assert congruent(E, st.omega2, E.embed(st.lam2), m1)
        assert F.val(st.s2) == m1 // 2
        assert congruent(E, st.output, E.one(), 4 * F.e + 3 - 3 * m1)
        found += 1
    assert found == 2


def test_omega_small_disc_minimality_by_scan():
    # brute conductor scan: no valid extender has smaller discriminant
    F = F22
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if E.kind != "ramified" or E.disc_val != 2 or mq.hilbert2(F, -1, d) != 1:
            continue
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
        assert best == 3 * E.disc_val - 2


def test_omega_small_disc_domain():
    with pytest.raises(ValueError):
        ref.omega_small_disc(Q2, ref._unramified_quadratic(Q2))
    with pytest.raises(ValueError):
        # m1 = 2 > e_F = 1 over Q2
        ref.omega_small_disc(Q2, quad_extend(Q2, Q2.from_int(3)))


# ---------------------------------------------------------------------------
# the reference's tower signs (beta, omega)_E from symbols over F
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e,f", [(1, 1), (1, 2), (2, 1), (3, 1)])
def test_tower_symbol_matches_tower_norms(e, f):
    # reference: build M = E(sqrt(omega)) and test beta against the norm
    # image of M/E, on every cyclic-extendable E of F
    F = LocalField(2, e, f)
    rng = np.random.default_rng(31 + 10 * e + f)
    checked = 0
    for d in square_class_reps(F):
        if mq.hilbert2(F, -1, d) != 1:
            continue
        E = quad_extend(F, d)
        w = ref.choose_omega(F, E)
        M = quad_extend(E, w)
        betas = [ug.solve_norm_equation(E, random_element(F, rng)) for _ in range(6)]
        t = random_element(F, rng)
        betas += [E.embed(t), E.mul(E.embed(t), w)]
        for beta in betas:
            if beta is None:
                continue
            want = norm_class_contains(M, beta)
            assert (ref._tower_symbol(E, beta, w) == 0) == want, (e, f, E.kind, E.disc_val)
            assert ref.omega_norm_signs(E, w, (E.norm(beta),)) == (want,)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("e,f", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_tower_signs_unramified_closed_form(e, f):
    # over the unramified E, M/F is the unramified quartic, whose norms
    # are the elements of valuation 0 mod 4
    F = LocalField(2, e, f)
    E = ref._unramified_quadratic(F)
    w = ref.choose_omega(F, E)
    rng = np.random.default_rng(41 + 10 * e + f)
    gens = [F.shift(random_unit(F, rng), v) for v in range(8)]
    want = tuple(v % 4 == 0 for v in range(8))
    assert ref.omega_norm_signs(E, w, gens) == want


def test_omega_side_read_once_per_call(monkeypatch):
    # omega_norm_signs reads A2, the class of f(A2) and the class of c2
    # once, however many generators need a symbol
    F = Q2F2
    E = next(
        quad_extend(F, d) for d in square_class_reps(F) if mq.hilbert2(F, -1, d) == 1
    )
    w = ref.choose_omega(F, E)
    rng = np.random.default_rng(53)
    gens = [E.norm(random_unit(E, rng)) for _ in range(2)]
    assert all(not ug.solve_norm_equation(E, g).data[1].exact for g in gens)
    w0, w1 = w.data
    c2 = -w1
    A2 = w0 / c2
    omega_side = {c2.data, (A2 * (A2 - E.a) - E.b).data}
    reads = []

    def counting(F_, x, ell):
        reads.append(x.data)
        return ug.class_vec(F_, x, ell)

    want = tuple(ref._tower_symbol(E, ug.solve_norm_equation(E, g), w) == 0 for g in gens)
    monkeypatch.setattr(ref, "class_vec", counting)
    assert ref.omega_norm_signs(E, w, gens) == want
    assert sum(x in omega_side for x in reads) == 2


def test_tower_symbol_beta_an_f_multiple_of_omega():
    # on the omega route, solve_norm_equation returns a beta with
    # beta/omega in F here, so A1 - A2 vanishes to working precision; the
    # parts are those the quartic tower M gave
    F = LocalField(2, 1, 2)
    gens = (F.from_int(-1) * F.power(F.from_int(45) + F.pi(), 4),)
    want = (
        ("epi", Fraction(15, 16)),
        ("(4)", Fraction(1, 4)),
        ("(2 2)", Fraction(1, 8)),
        ("(1^2 1^2) C2", Fraction(9, 8192)),
        ("(1^2 1^2) V4", Fraction(115, 4096)),
        ("(2^2) C4", Fraction(9, 8192)),
        ("(2^2) V4", Fraction(9, 8192)),
        ("(2^2) D4", Fraction(51, 2048)),
        ("(1^4) C4", Fraction(33, 1048576)),
        ("(1^4) V4", Fraction(1, 65536)),
        ("(1^4) D4", Fraction(351, 524288)),
        ("(1^4) A4/S4", Fraction(215, 16384)),
    )
    assert mq.premass4(F, gens).parts == want


def test_tower_symbol_precision_loss_raises():
    # beta = x0 + rho with x0 known only modulo 2: the square class of
    # N(beta) is not determined, so no sign may be returned
    E = ref._unramified_quadratic(Q2)
    w = ref.choose_omega(Q2, E)
    x0 = padic.Elt(Q2, Q2.from_int(3).data, 1)
    with pytest.raises(PrecisionError):
        ref._tower_symbol(E, E._mk(x0, Q2.one()), w)


# ---------------------------------------------------------------------------
# 2-adic counts against the tower oracle
# ---------------------------------------------------------------------------


GROUPS = {
    "triv": [],
    "<-1>": [0],
    "<2>": [1],
    "<5>": [2],
    "<-1,2>": [0, 1],
}
GEN_VALUES = {"triv": (), "<-1>": (-1,), "<2>": (2,), "<5>": (5,), "<-1,2>": (-1, 2)}
TOWER_BASES = {"Q2": Q2, "F22": F22, "Q2F2": Q2F2}
# one case per (base, constraint group); a Q2 case is named by its group
# alone, the others by base and group
TOWER_CASES = [
    pytest.param(base, name, id=name if base == "Q2" else f"{base}-{name}")
    for base in TOWER_BASES
    for name in GROUPS
]


@pytest.fixture(scope="module")
def tower_data():
    """For a base named in TOWER_BASES, built once on first use: the
    field, its quartic towers and its quadratic characters, flagged by
    the norms -1, 2 and 5."""
    built = {}

    def get(base):
        if base not in built:
            F = TOWER_BASES[base]
            gens = [F.from_int(a) for a in (-1, 2, 5)]
            built[base] = F, orc.enum_quartic_towers(F, gens=gens), orc.enum_cp_characters(F, gens=gens)
        return built[base]

    return get


@pytest.mark.parametrize("base,name", TOWER_CASES)
@pytest.mark.parametrize("algo", ["brute", "subspace"])
def test_wild_counts_match_oracle(tower_data, base, name, algo):
    F, recs, _ = tower_data(base)
    js = GROUPS[name]
    gens = GEN_VALUES[name]
    tal = orc.tally_towers(recs, pred=lambda r: all(r.norm_flags[j] for j in js))
    got = {}
    for (g, m), n in mq.counts_22(F, gens, algo=algo).items():
        got[("(2^2)", g, m)] = n
    for (g, m), n in mq.counts_14(F, gens, algo=algo).items():
        got[("(1^4)", g, m)] = n
    want = {k: v for k, v in tal.items() if k[0] in ("(2^2)", "(1^4)")}
    assert got == want


def test_unknown_algorithm_raises():
    # "subspace" is the default and "brute" the other choice; no alias
    assert mq.counts_14(Q2, (-1,)) == mq.counts_14(Q2, (-1,), algo="subspace")
    for algo in ("auto", "gauss"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            mq.premass4(LocalField(2, 1, 1), (-1,), algo=algo)


@pytest.mark.parametrize("base,name", TOWER_CASES)
def test_1212_counts_match_character_pairs(tower_data, base, name):
    # the (1^2 1^2) algebras are L x L' for ramified quadratics L, L':
    # counted and weighed from the quadratic characters, #Aut(L x L) = 8
    # and #Aut(L x L') = 4 for L != L'
    F, _, chars = tower_data(base)
    js = GROUPS[name]
    ram = [r for r in chars if r.cond > 0]
    want = {}
    premass = {"C2": Fraction(0), "V4": Fraction(0)}
    for i, r1 in enumerate(ram):
        if all(r1.norm_flags[j] for j in js):
            m = 2 * r1.disc_val
            want[("C2", m)] = want.get(("C2", m), 0) + 1
            premass["C2"] += Fraction(1, 8 * F.q**m)
        for r2 in ram[i + 1 :]:
            m = r1.disc_val + r2.disc_val
            want[("V4", m)] = want.get(("V4", m), 0) + 1
            premass["V4"] += Fraction(1, 4 * F.q**m)
    assert mq.counts_1212(F, GEN_VALUES[name]) == want
    assert dict(premass4_wild(F, GEN_VALUES[name], "(1^2 1^2)").parts) == premass


@pytest.mark.parametrize("base,name", TOWER_CASES)
def test_wild_premass_matches_oracle(tower_data, base, name):
    F, recs, _ = tower_data(base)
    js = GROUPS[name]
    gens = GEN_VALUES[name]
    for sym in ("(2^2)", "(1^4)"):
        rep = premass4_wild(F, gens, sym)
        for grp in ("C4", "V4", "D4"):
            pm = tr.quartic_premass(
                recs,
                pred=lambda r: r.symbol == sym
                and r.group == grp
                and all(r.norm_flags[j] for j in js),
                q=F.q,
            )
            assert rep.part(grp) == pm, (name, sym, grp)


def test_odd_valuation_generator_kills_22():
    assert mq.counts_22(Q2, (2,)) == {}
    rep = premass4_wild(Q2, (2,), "(2^2)")
    assert rep.total == 0


@pytest.mark.parametrize("F", [Q2, F22])
def test_counts_22_single_generator_corollary(F):
    # closed form for the cyclic (2^2) layer with one generator
    e, q = F.e, F.q
    for alpha in square_class_reps(F):
        v = F.val(alpha)
        if v % 2:
            assert mq.counts_22(F, (alpha,)) == {}
            continue
        d_alpha = disc_val_quadratic(F, alpha)
        counts = mq.counts_22(F, (alpha,))
        for m in range(4, 4 * e + 1, 4):
            if v % 4 == 0:
                if m > 4 * e - 2 * d_alpha + 4:
                    want = q ** (m // 4 - 1) * (q - 1) // 2
                elif m == 4 * e - 2 * d_alpha + 4:
                    want = q ** (m // 4 - 1) * (q - 2) // 2
                else:
                    want = q ** (m // 4 - 1) * (q - 1)
            else:
                if m > 4 * e - 2 * d_alpha + 4:
                    want = q ** (m // 4 - 1) * (q - 1) // 2
                elif m == 4 * e - 2 * d_alpha + 4:
                    want = q ** (m // 4) // 2
                else:
                    want = 0
            assert counts.get(("C4", m), 0) == want, (F.e, alpha, m)
        if d_alpha > 0:
            want = q**e // 2
        elif v % 4 == 2:
            want = q**e
        else:
            want = 0
        assert counts.get(("C4", 4 * e + 2), 0) == want


# ---------------------------------------------------------------------------
# tame symbols against direct tame constructions
# ---------------------------------------------------------------------------


def in_tame_totally_ramified_norms(F, alpha, j, ell):
    """alpha in <U^ell, -zeta^j pi> for the degree-ell tame extension."""
    v = F.val(alpha)
    u = F.shift(alpha, -v) if v else alpha
    t = ug.dlog_mod(F, F.residue(u), ell)
    minus = ug.dlog_mod(F, F.residue(F.from_int(-1)), ell)
    return (t + v * minus - j * v) % ell == 0


def tame_14_premass(F, gens):
    """Totally ramified quartics of an odd-p field, by explicit Kummer
    towers x^4 = zeta^j pi."""
    q = F.q
    g = gcd(4, q - 1)
    ell = 4 if q % 4 == 1 else 2
    total = Fraction(0)
    for j in range(g):
        if all(in_tame_totally_ramified_norms(F, a, j, ell) for a in gens):
            total += Fraction(1, g * q**3)
    return total


def tame_22_premass(F, gens):
    """(2^2) algebras of an odd-p field: the two ramified quadratics of
    the unramified quadratic subfield, with norm groups <U^2, g^j pi^2>."""
    q = F.q
    total = Fraction(0)
    for j in range(2):
        ok = True
        for a in gens:
            v = F.val(a)
            if v % 2:
                ok = False
                break
            u = F.shift(a, -v) if v else a
            if (ug.dlog_mod(F, F.residue(u), 2) - j * (v // 2)) % 2:
                ok = False
                break
        if ok:
            total += Fraction(1, 4 * q * q)
    return total


def tame_1212_premass(F, gens):
    q = F.q
    recs = [r for r in orc.enum_tame(F, 2, gens=gens) if r.symbol == "(1^2)"]
    assert len(recs) == 2
    diag = sum(Fraction(1, 8 * q**2) for r in recs if all(r.norm_flags))
    return diag + Fraction(1, 4 * q**2)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)])
def test_tame_premasses_match_construction(p, f):
    F = LocalField(p, 1, f)
    rng = np.random.default_rng(13 * p + f)
    gen_sets = [()]
    for _ in range(8):
        gen_sets.append(
            tuple(random_element(F, rng) for _ in range(int(rng.integers(1, 3))))
        )
    # every subgroup of F^x/F^{x4} = <pi> x <zeta>, zeta a unit whose
    # residue generates the residue field's units, is generated by a pair
    # pi^a zeta^b, pi^c zeta^d.  The bases cover gcd(4, q - 1) = 2
    # (q = 3, 7), q = 5 mod 8 (q = 5, 13) and q = 1 mod 8 (q = 9)
    zeta = F.lift(F.rf.generator())
    classes = [
        F.mul(F.power(F.pi(), a), F.power(zeta, b)) for a in range(4) for b in range(gcd(4, F.q - 1))
    ]
    gen_sets += itertools.combinations_with_replacement(classes, 2)
    for gens in gen_sets:
        rep = mq.premass4_tame(F, gens)
        assert rep.part("(1^4)") == tame_14_premass(F, gens), gens
        assert rep.part("(2^2)") == tame_22_premass(F, gens), gens
        assert rep.part("(1^2 1^2)") == tame_1212_premass(F, gens), gens


def test_tame_epi_value():
    assert mq.premass4_tame(LocalField(3, 1, 1)).part("epi") == Fraction(77, 72)


def test_tame_valuation_conditions():
    F = LocalField(5, 1, 1)
    rep = mq.premass4_tame(F, (F.pi(),))
    assert rep.part("(4)") == 0 and rep.part("(2 2)") == 0
    rep = mq.premass4_tame(F, (F.from_int(25),))
    assert rep.part("(4)") == 0 and rep.part("(2 2)") == Fraction(1, 8)
    rep = mq.premass4_tame(F, (F.from_int(5**4),))
    assert rep.part("(4)") == Fraction(1, 4) and rep.part("(2 2)") == Fraction(1, 8)


# ---------------------------------------------------------------------------
# assembled pre-masses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "F", [Q2, LocalField(3, 1, 1), LocalField(5, 1, 1), LocalField(7, 1, 1)]
)
def test_unconstrained_total(F):
    q = F.q
    want = 1 + Fraction(1, q) + Fraction(2, q**2) + Fraction(1, q**3)
    assert mq.premass4(F).total == want


def test_unconstrained_total_ramified_base():
    F = quad_extend(Q2, Q2.from_int(-1))
    q = F.q
    want = 1 + Fraction(1, q) + Fraction(2, q**2) + Fraction(1, q**3)
    assert mq.premass4(F).total == want


@pytest.mark.parametrize("e", [3, 4, 5])
def test_premass4_stable_under_precision_doubling(e):
    # the wild pre-mass over a base with e >= 3 must not depend on the
    # working precision
    F1 = LocalField(2, e, 1)
    F2 = LocalField(2, e, 1, prec=2 * F1.prec)
    assert mq.premass4(F1, (F1.from_int(-1),)).parts == mq.premass4(F2, (F2.from_int(-1),)).parts


def test_fourth_power_generators_are_absorbed():
    for F in (Q2, LocalField(3, 1, 1)):
        rng = np.random.default_rng(5 * F.p)
        for _ in range(5):
            a = random_element(F, rng, max_val=1)
            a4 = F.normalize_pshift(F.power(a, 4))
            assert dict(mq.premass4(F, (a4,)).parts) == dict(mq.premass4(F).parts)


def test_q5_constrained_example():
    # A = <5> over Q_5: only the valuation constraints bite the (4) and
    # (2 2) symbols; the wild-type closed forms give the rest
    F = LocalField(5, 1, 1)
    rep = mq.premass4_tame(F, (F.pi(),))
    q = F.q
    assert rep.part("(1^2 1^2)") == Fraction(3, 8 * q * q)
    assert rep.part("(2^2)") == 0
    assert rep.part("(1^4)") == Fraction(1, 4 * q**3)


def test_premass4_breakdown_labels():
    rep = mq.premass4(Q2)
    labels = [l for l, _ in rep.parts]
    assert "epi" in labels and "(4)" in labels and "(2 2)" in labels
    assert "(2^2) C4" in labels and "(1^4) A4/S4" in labels and "(1^2 1^2) C2" in labels


def test_wild_symbol_validation():
    with pytest.raises(ValueError):
        premass4_wild(Q2, (), "(3 1)")
    with pytest.raises(ValueError):
        premass4_wild(LocalField(3, 1, 1), (), "(1^4)")


def test_premass4_leaves_no_fields():
    # unit bases, norm-class matrices and Hilbert Gram matrices live on
    # their fields, so the towers premass4 builds die with the call
    def live_fields():
        gc.collect()
        return sum(isinstance(o, (LocalField, QuadExt)) for o in gc.get_objects())

    before = live_fields()
    for _ in range(2):
        mq.premass4(LocalField(2, 1, 2), (-1,))
    assert live_fields() - before < 10


def test_premass4_takes_no_square_root(monkeypatch):
    # the classes mod fourth powers come from the level walk alone; the
    # masses are those computed before the square roots were refused
    cases = [(e, f, gens) for e, f in [(1, 1), (2, 1), (1, 2)] for gens in [(), (-1,), (-1, 2)]]
    want = [mq.premass4(LocalField(2, e, f), gens).parts for e, f, gens in cases]

    def refuse(*args):
        raise AssertionError("a square root on the quartic formula path")

    monkeypatch.setattr(ug, "sqrt_exact", refuse)
    monkeypatch.setattr(ug, "_inv_sqrt", refuse)
    assert [mq.premass4(LocalField(2, e, f), gens).parts for e, f, gens in cases] == want


@pytest.mark.parametrize(
    "e,f,want1,want2",
    [
        (2, 2, Fraction(5971891423, 4294967296), Fraction(9770810781, 8589934592)),
        (3, 1, Fraction(17737051, 8388608), Fraction(53525137, 33554432)),
    ],
)
def test_premass4_totals_on_one_field(e, f, want1, want2):
    # the second call on the same F reuses the unit levels and classes
    # the first one left on it
    F = LocalField(2, e, f)
    assert mq.premass4(F, (-1,)).total == want1
    assert mq.premass4(F, (-1, 2)).total == want2


def test_premass4_builds_no_quadratic_extension(monkeypatch):
    # the wild counts come from square classes and from characters of
    # F^x/F^{x4}, so no quadratic extension is built, on any base and
    # with any generators
    fields = [LocalField(2, 2, 1), Q2F2, quad_extend(Q2, Q2.from_int(-1)), LocalField(3, 1, 1)]
    bases = []

    def counting(base, d):
        bases.append(base)
        return quad_extend(base, d)

    monkeypatch.setattr(padic, "quad_extend", counting)
    monkeypatch.setattr(mq, "quad_extend", counting)
    for F in fields:
        for gens in [(), (-1,), (-1, 2), (F.pi(), F.ugen())]:
            mq.premass4(F, gens)
    assert bases == []


# ---------------------------------------------------------------------------
# the reference's rank count, and the cyclic layers against the reference
# ---------------------------------------------------------------------------


def test_span_size_matches_brute_count():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim = int(rng.integers(0, 9))
        base = rng.integers(0, 2, size=(int(rng.integers(0, 4)), dim)).tolist()
        extra = rng.integers(0, 2, size=(int(rng.integers(0, 3)), dim)).tolist()
        choice = int(rng.integers(0, 3))
        if choice == 0:
            coord_cols = None
        elif choice == 1:
            coord_cols = []
        else:
            coord_cols = sorted(int(j) for j in rng.permutation(dim)[: int(rng.integers(0, dim + 1))])
        cols = set(range(dim)) if coord_cols is None else set(coord_cols)
        brute = sum(
            1
            for x in range(1 << dim)
            if all(x >> j & 1 == 0 for j in range(dim) if j not in cols)
            and all(sum(r[j] * (x >> j & 1) for j in range(dim)) % 2 == 0 for r in base + extra)
        )
        assert ref._span_size(dim, base, extra, coord_cols) == brute, (dim, base, extra, coord_cols)


def c4_counts_by_class(F, gens):
    """The C4 entries of counts_14 on the omega route: counts_12E_C4 on
    every nonzero square class d whose E = F(sqrt(d)) is ramified."""
    out = {}
    for d in square_class_reps(F):
        E = quad_extend(F, d)
        if E.kind != "ramified":
            continue
        for mm, n in ref.counts_12E_C4(F, E, gens).items():
            key = ("C4", 2 * E.disc_val + mm)
            out[key] = out.get(key, 0) + n
    return out


@pytest.mark.parametrize("e,f", [(1, 1), (1, 2), (2, 1)])
def test_counts_14_cyclic_sweep_matches_per_class_counts(e, f):
    F = LocalField(2, e, f)
    for gens in [(), (-1,), (-1, 2), (5,), (F.pi(), F.ugen())]:
        got = {k: n for k, n in mq.counts_14(F, gens).items() if k[0] == "C4"}
        assert got == c4_counts_by_class(F, gens), gens


def c4_22_by_nec(F, gens):
    """The C4 entries of counts_22 on the omega route: the layers of the
    norm-class set of the unramified quadratic E."""
    e = F.e
    nec = ref.nec_sizes(F, ref._unramified_quadratic(F), gens)
    layers = {4 * c: nec.size_at(2 * e - 2 * c) - nec.size_at(2 * e - 2 * c + 2) for c in range(1, e + 1)}
    layers[4 * e + 2] = nec.total - nec.size_at(0)
    return {("C4", m): n // 2 for m, n in layers.items() if n}


@pytest.mark.parametrize("e,f", [(1, 1), (1, 2), (2, 1)])
def test_counts_22_cyclic_layers_match_norm_class_layers(e, f):
    F = LocalField(2, e, f)
    for gens in [(), (-1,), (5,), (-1, 5), (F.ugen(),), (4 * F.ugen(),)]:
        got = {k: n for k, n in mq.counts_22(F, gens).items() if k[0] == "C4"}
        assert got == c4_22_by_nec(F, gens), gens


# ---------------------------------------------------------------------------
# the character tables of F^x/F^{x4}
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base", ["Q2", "F22", "Q2F2", "Q2(i)"])
def test_char_table_brute_equals_subspace(base):
    # Q2(i) contains mu_4, so there G = (Z/4)^r has no relation
    F = {"Q2": Q2, "F22": F22, "Q2F2": Q2F2, "Q2(i)": quad_extend(Q2, Q2.from_int(-1))}[base]
    r = ug.unit_basis(F).dim
    trivial = not any(ug.class_vec(F, F.from_int(-1), 2))
    assert trivial == (base == "Q2(i)")
    top = 3 * F.e + 1
    rng = np.random.default_rng(61 + F.e + 2 * F.f)
    for k in range(10):
        gens = tuple(random_element(F, rng) for _ in range(k % 4))
        classes = mq._classes4(F, gens)
        S, T = mq._char_table(F, classes, "subspace")
        assert (S, T) == mq._char_table(F, classes, "brute"), gens
        if not gens:
            # every character: |F^x/F^x4| = 4 |mu_4(F)| q^(2e)
            assert S[top, top] == 4 ** r // (1 if trivial else 2) == 4 * (4 if trivial else 2) * F.q ** (2 * F.e)
            assert T[top] == 2**r


def test_char_table_brute_guard():
    with pytest.raises(GuardError):
        F = LocalField(2, 7, 1)
        mq._char_table(F, mq._classes4(F, ()), "brute")
    with pytest.raises(ValueError):
        mq._char_table(Q2, mq._classes4(Q2, ()), "omega")


@pytest.mark.parametrize(
    "e,f,want",
    [
        (6, 1, Fraction(4672798160891, 2199023255552)),
        (7, 1, Fraction(299044740730747, 140737488355328)),
        (8, 1, Fraction(19140297988759295, 9007199254740992)),
        (10, 1, Fraction(78398649591407050619, 36893488147419103232)),
        (3, 3, Fraction(42730091792241917503, 36893488147419103232)),
        (5, 2, Fraction(410439499519327944655, 295147905179352825856)),
        (16, 1, Fraction(5387515050969967911471884787455, 2535301200456458802993406410752)),
        (
            24,
            1,
            Fraction(
                1516450673500082373623599618402744952833171451,
                713623846352979940529142984724747568191373312,
            ),
        ),
    ],
)
def test_premass4_totals_on_large_bases(e, f, want):
    # (6,1) to (10,1) equal the totals at doubled precision; (3,3) and
    # (5,2) those of the omega route; (16,1) and (24,1) those of the
    # character tables built by from-scratch eliminations
    F = LocalField(2, e, f)
    assert mq.premass4(F, (F.from_int(-1),)).total == want


def test_premass4_unconstrained_large_base_is_serre():
    # Serre's mass formula: sum_d Part(d, 4 - d)/q^d over all quartic
    # etale algebras
    F = LocalField(2, 16, 1)
    want = sum((disc_layer_premass(4, d, F.q) for d in range(4)), Fraction(0))
    assert mq.premass4(F, ()).total == want
