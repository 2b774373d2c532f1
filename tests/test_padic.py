"""Tests for exact p-adic field arithmetic and quadratic extensions."""

import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etmass.padic import (
    INF,
    MR_PROVEN_BOUND,
    Elt,
    LocalField,
    PrecisionError,
    ResidueField,
    field_cache,
    is_prime,
    prime_factors,
    quad_extend,
)

from tower_reference import disc_val_quadratic

FIELDS = [
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 2),
    (2, 3, 2),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 2),
    (7, 1, 1),
]


def random_unit(F, rng, depth=6):
    while True:
        x = F.zero()
        for k in range(depth):
            coords = [int(t) for t in rng.integers(0, F.p, size=F.rf.f)]
            x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
        try:
            if F.val(x) == 0:
                return x
        except PrecisionError:
            continue


def congruent(F, x, y, t):
    """Whether x == y modulo pi^t in F (raises if precision cannot decide)."""
    d = F.sub(x, y)
    if d.exact:
        return True
    if min(x.prec, y.prec) < t:
        raise PrecisionError(f"precision below congruence level {t}")
    return F.val_lower(d) >= t


def trace(E, x):
    """Tr_{E/F}(x) = 2 x0 + a x1 for a quadratic E, with no product by an
    exact-zero a."""
    x0, x1 = x.data
    B = E.base
    t = B.mul(x0, B.from_int(2))
    return t if E.a.exact else B.add(t, B.mul(E.a, x1))


def cut(F, x, prec):
    """x as known only modulo pi^prec of its own field."""
    if F.base is None:
        return Elt(F, x.data, prec)
    r = 2 if F.kind == "ramified" else 1
    x0, x1 = x.data
    # QuadExt._mk gives min(r*prec0, r*prec1 + r - 1) = prec
    return F._mk(cut(F.base, x0, -(-prec // r)), cut(F.base, x1, -(-(prec - r + 1) // r)))


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------


def test_prime_factors():
    assert prime_factors(1) == set()
    assert prime_factors(-12) == {2, 3}
    assert prime_factors(97) == {97}
    assert prime_factors(2 * 3 * 5 * 49) == {2, 3, 5, 7}


def test_is_prime_matches_trial_division():
    for n in range(-3, 10**5):
        assert is_prime(n) == (n > 1 and prime_factors(n) == {n}), n


def test_is_prime_rejects_strong_pseudoprime():
    # psi_12: a strong pseudoprime to every prime base 2, ..., 37
    assert not is_prime(318665857834031151167461)
    assert is_prime(1000000000039)


def test_is_prime_refuses_beyond_proven_bound():
    assert MR_PROVEN_BOUND == 3317044064679887385961981
    with pytest.raises(ValueError, match=str(MR_PROVEN_BOUND)):
        is_prime(MR_PROVEN_BOUND)
    with pytest.raises(ValueError):
        LocalField(1000000000000000000000000000057, 1, 1)


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,f", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (3, 6)])
def test_residue_field_axioms(p, f):
    rf = ResidueField(p, f)
    elems = list(rf.elements())
    assert len(elems) == p**f
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = (elems[int(rng.integers(len(elems)))] for _ in range(3))
        assert rf.mul(a, rf.mul(b, c)) == rf.mul(rf.mul(a, b), c)
        assert rf.mul(a, rf.add(b, c)) == rf.add(rf.mul(a, b), rf.mul(a, c))
        if not rf.is_zero(a):
            assert rf.mul(a, rf.inv(a)) == rf.one
        # Frobenius inverse really is the p-th root
        assert rf.pow(rf.pth_root(a), p) == a


def _poly_rem(a, b, p):
    """a mod the monic b over F_p, coefficients constant first."""
    a, db = list(a), len(b) - 1
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % p
        if c:
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    return [x % p for x in a[:db]]


@pytest.mark.parametrize("p,f", [(2, 6), (3, 6), (5, 6), (11, 6), (2, 12), (3, 12)])
def test_residue_modulus_is_irreducible(p, f):
    # trial division by every monic polynomial of degree <= f/2; a test
    # of X^(p^d) != X for the proper divisors d of f alone accepted
    # X^6+X+1 = (X+2)(...) over F_3
    g = ResidueField(p, f).modulus
    assert len(g) == f + 1 and g[-1] == 1
    for d in range(1, f // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            assert any(_poly_rem(g, low + (1,), p)), (g, low)


# the moduli for p <= 7 and f <= 5, constant coefficient first, recorded
# before the irreducibility test was replaced: every field built on them
# keeps its elements, generators and census orders
PINNED_MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1), (2, 5): (1, 0, 1, 0, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1), (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1), (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1), (7, 5): (3, 1, 0, 0, 0, 1),
}


def test_residue_moduli_are_pinned():
    assert {pf: ResidueField(*pf).modulus for pf in PINNED_MODULI} == PINNED_MODULI


def test_residue_zero_powers():
    rf = ResidueField(3, 2)
    assert rf.pow(rf.zero, 5) == rf.zero
    assert rf.pow(rf.zero, 0) == rf.one


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_prime_field_pow_matches_square_and_multiply(p):
    # GF(p) powers go through the built-in pow; check them against
    # square-and-multiply in the field's own multiplication
    rf = ResidueField(p, 1)

    def reference(x, n):
        if x == rf.zero:
            return rf.one if n == 0 else rf.zero
        n %= rf.q - 1
        acc, r = rf.one, x
        while n:
            if n & 1:
                acc = rf.mul(acc, r)
            r = rf.mul(r, r)
            n >>= 1
        return acc

    for x in rf.elements():
        for n in (0, 1, -1, rf.q - 2, 10**30):
            assert rf.pow(x, n) == reference(x, n), (x, n)
        if x != rf.zero:
            assert rf.mul(x, rf.pow(x, -1)) == rf.one


def test_square_detection_matches_enumeration():
    rf = ResidueField(5, 2)
    squares = {rf.mul(x, x) for x in rf.elements()}
    for x in rf.elements():
        assert rf.is_square(x) == (x in squares)


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_field_ring_axioms(p, e, f):
    F = LocalField(p, e, f)
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = random_unit(F, rng)
        b = random_unit(F, rng)
        assert F.is_zero(F.sub(a * b, b * a))
        assert F.is_zero(F.sub((a + b) * b, a * b + b * b))
        assert F.is_zero(F.sub(a * F.inv(a), F.one()))
        assert F.is_zero(F.sub(F.inv(F.inv(a)), a))


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_valuations(p, e, f):
    F = LocalField(p, e, f)
    pi = F.pi()
    assert F.val(pi) == 1
    assert F.val(F.from_int(p)) == e
    assert F.val(F.power(pi, 5)) == 5
    assert F.val(F.shift(F.one(), -3)) == -3
    assert F.val(F.from_rational(Fraction(1, p))) == -e
    assert F.val(F.zero()) is INF


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_shift_and_inverse_roundtrip(p, e, f):
    F = LocalField(p, e, f)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_unit(F, rng)
        x = F.shift(a, -4)
        assert F.val(x) == -4
        assert F.is_zero(F.sub(F.shift(x, 4), a))
        assert F.is_zero(F.sub(x * F.power(F.pi(), 4), a))


def test_shift_up_lowers_pshift():
    # 2^-35 carries p-denominator 35 > K; multiplying by pi^40 must spend
    # that denominator rather than push the digits past p^K
    F = LocalField(2, 1, 1)
    assert F.K == 34
    x = F.shift(F.shift(F.one(), -35), 40)
    assert F.val(x) == 5
    assert F.is_zero(F.sub(x, F.power(F.pi(), 5)))


def test_inverse_of_pshift_beyond_K():
    F = LocalField(2, 1, 1)
    x = F.power(F.pi(), -35)
    assert F.val(x) == -35
    y = F.inv(x)
    # pi^35 lies below the field's p^K window: known to be 0 mod pi^34
    assert F.is_zero(F.sub(y, F.power(F.pi(), 35)))
    assert congruent(F, y, F.zero(), F.e * F.K)


def test_rational_coercion():
    F = LocalField(3, 1, 1)
    x = F.from_rational(Fraction(7, 5))
    assert F.is_zero(F.sub(x * F.from_int(5), F.from_int(7)))
    assert F.val(F.from_rational(Fraction(9, 2))) == 2


def expansion_digits(F, x, t):
    """First t pi-adic digits of an integral element."""
    digits = []
    rem = x
    for k in range(t):
        d = F.digit(rem, k)
        digits.append(d)
        rem = rem - F.mul(F.power(F.pi(), k), F.lift(d))
    return digits


def test_precision_growth_consistency():
    # same computation at two precisions agrees on shared digits
    results = []
    for prec in (20, 40):
        field = LocalField(2, 3, 1, prec=prec)
        x = field.from_int(7) * field.inv(field.from_int(3)) + field.pi()
        results.append(expansion_digits(field, x, 18))
    assert results[0] == results[1]


# Kernel golden test: a seeded op sequence per field, hashed over each
# result's valuation and its first GOLDEN_DIGITS pi-adic digits.  The
# hashes were recorded with the tuple-of-W-tuples kernel that preceded the
# flat coefficient vector, so any change of representation must keep them.
GOLDEN_DIGITS = 6
GOLDEN = {
    (2, 1, 1): "d64734997a41ec87",
    (2, 2, 1): "951c834bcdba875d",
    (2, 1, 2): "e5e3cfbacac9cdc5",
    (2, 3, 2): "4e42160b2c50941f",
    (3, 1, 1): "cd7edf30838731f3",
    (3, 2, 1): "1ca7462deff07fa1",
    (5, 1, 2): "45c1620e8413087a",
    (7, 1, 1): "74ab169342e7f547",
}


def golden_element(F, rng):
    x = F.zero()
    for k in range(4):
        coords = [rng.randrange(F.p) for _ in range(F.f)]
        x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
    if F.val_lower(x) > 0:
        x = x + F.one()
    return F.shift(x, rng.randint(-3, 3))


def golden_sequence(F, seed):
    """Thirty results of mul, add, neg, shift +-k, inv, power, from_rational
    and normalize_pshift; half the steps chain on the previous result."""
    rng = random.Random(seed)
    prev = F.one()
    out = []
    for step in range(30):
        x = prev if rng.random() < 0.5 else golden_element(F, rng)
        y = golden_element(F, rng)
        op = step % 8
        if op == 0:
            z = F.mul(x, y)
        elif op == 1:
            z = F.add(x, y)
        elif op == 2:
            z = F.neg(x)
        elif op == 3:
            k = rng.randint(1, 5)
            z = F.shift(F.shift(x, k), -rng.randint(0, 2 * k))
        elif op == 4:
            z = F.inv(x)
        elif op == 5:
            z = F.power(y, rng.choice([-3, -2, 2, 3, 5]))
        elif op == 6:
            r = Fraction(rng.randint(1, 99) * rng.choice([-1, 1]), rng.randint(1, 99))
            z = F.mul(x, F.from_rational(r))
        else:
            z = F.normalize_pshift(F.shift(x, -rng.randint(1, 4)))
        out.append(z)
        if -6 <= F.val(z) <= 6:
            prev = z
    return out


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_kernel_golden_digits(p, e, f):
    F = LocalField(p, e, f)
    h = hashlib.sha256()
    for z in golden_sequence(F, 1000 * p + 10 * e + f):
        v = F.val(z)
        assert z.prec >= v + GOLDEN_DIGITS
        h.update(repr((v, expansion_digits(F, F.shift(z, -v), GOLDEN_DIGITS))).encode())
    assert h.hexdigest()[:16] == GOLDEN[(p, e, f)]


def test_congruence_raises_beyond_precision():
    F = LocalField(2, 1, 1)
    x = F.pi()
    with pytest.raises(PrecisionError):
        congruent(F, x, F.zero(), F.e * F.K + 100)


@st.composite
def field_elements(draw, F):
    """pi^k times a unit with up to six pi-adic digits (k in -4..4)."""
    q = F.q
    digits = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=5))
    x = F.zero()
    for k, d in enumerate(digits):
        coords = [(d // F.p**j) % F.p for j in range(F.f)]
        x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
    return F.shift(x, draw(st.integers(-4, 4)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_kernel_identities(data):
    F = LocalField(*data.draw(st.sampled_from(FIELDS)))
    x, y, z = (data.draw(field_elements(F)) for _ in range(3))
    k = data.draw(st.integers(-8, 8))
    checks = [
        (F.mul(F.mul(x, y), z), F.mul(x, F.mul(y, z))),
        (F.mul(x, F.add(y, z)), F.add(F.mul(x, y), F.mul(x, z))),
        (F.mul(x, F.inv(x)), F.one()),
        (F.shift(F.shift(x, k), -k), x),
    ]
    for lhs, rhs in checks:
        assert lhs.prec >= F.val(lhs) + 8  # the comparison is not vacuous
        assert F.is_zero(F.sub(lhs, rhs))
    assert F.val(F.mul(x, y)) == F.val(x) + F.val(y)


def vp_fraction(r, p):
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-5, 5), st.booleans()),
             min_size=2, max_size=2),
)
def test_kernel_matches_fraction_arithmetic(p, parts):
    # on Q_p (e = f = 1, u0 = 1) an element (vec, pshift) is the rational
    # vec[0] / p^pshift known modulo p^prec
    F = LocalField(p, 1, 1)
    a, b = (Fraction(n, d) for n, d, _, _ in parts)
    # valuations exactly k in -5..5, so the known precision stays ample
    a, b = (r * Fraction(p) ** (k - vp_fraction(r, p)) * (-1 if neg else 1)
            for r, (_, _, k, neg) in zip((a, b), parts))
    x, y = F.from_rational(a), F.from_rational(b)
    for z, r in ((x, a), (F.mul(x, y), a * b), (F.inv(x), 1 / a), (F.inv(F.mul(x, y)), 1 / (a * b))):
        assert F.val(z) == vp_fraction(r, p)
        assert z.prec >= F.val(z) + 8
        vec, s = z.data
        diff = Fraction(vec[0], p**s) - r
        assert diff == 0 or vp_fraction(diff, p) >= z.prec


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------


QUAD_CASES = [
    (2, 1, 1, -1, "ramified", 2),
    (2, 1, 1, 2, "ramified", 3),
    (2, 1, 1, -2, "ramified", 3),
    (2, 1, 1, 3, "ramified", 2),
    (2, 1, 1, 5, "unramified", 0),
    (3, 1, 1, 3, "ramified", 1),
    (3, 1, 1, 2, "unramified", 0),
    (5, 1, 1, 10, "ramified", 1),
    (5, 1, 1, 2, "unramified", 0),
]


@pytest.mark.parametrize("p,e,f,d,kind,disc", QUAD_CASES)
def test_quadratic_construction(p, e, f, d, kind, disc):
    F = LocalField(p, e, f)
    E = quad_extend(F, F.from_int(d))
    assert E.kind == kind
    assert E.disc_val == disc
    assert E.is_zero(E.zero())
    # sqrt(d) exists in E: x^2 = d for some x
    # For ramified with rho^2 = a rho + b the element sqrt(d) is
    # recoverable, but it is simpler to check the minimal polynomial:
    rho = E.rho()
    lhs = E.mul(rho, rho)
    rhs = E.coerce(E.a) * rho + E.coerce(E.b)
    assert E.is_zero(E.sub(lhs, rhs))


@pytest.mark.parametrize("p,e,f,d,kind,disc", QUAD_CASES)
def test_norm_trace_conjugate(p, e, f, d, kind, disc):
    F = LocalField(p, e, f)
    E = quad_extend(F, F.from_int(d))
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = random_unit(E, rng)
        y = random_unit(E, rng)
        # norm is multiplicative, trace additive
        assert F.is_zero(F.sub(E.norm(E.mul(x, y)), F.mul(E.norm(x), E.norm(y))))
        assert F.is_zero(F.sub(trace(E, x + y), trace(E, x) + trace(E, y)))
        # x * conj(x) = N(x) and x + conj(x) = Tr(x)
        assert E.is_zero(E.sub(E.mul(x, E.conj(x)), E.embed(E.norm(x))))
        assert E.is_zero(E.sub(x + E.conj(x), E.embed(trace(E, x))))
        # conjugation is an involution and fixes F
        assert E.is_zero(E.sub(E.conj(E.conj(x)), x))
    a = F.from_int(7)
    assert F.is_zero(F.sub(E.norm(E.embed(a)), a * a))


def test_quadratic_norm_valuation():
    # v_F(N(x)) = v_E(x) for ramified, 2 v_E(x) for unramified
    F = LocalField(2, 1, 1)
    for d, factor in [(-1, 1), (5, 2)]:
        E = quad_extend(F, F.from_int(d))
        x = E.pi()
        assert F.val(E.norm(x)) == factor


def test_quad_val_with_exact_or_exhausted_halves():
    # v(x0 + x1 rho) is the live half's valuation while that lies below
    # the precision bound of the other half, and unknown otherwise
    F = LocalField(2, 1, 1)
    eight = F.from_int(8)

    def gone(prec):  # no known digit modulo 2^prec
        return Elt(F, F.zero().data, prec)

    cases = {
        # E = Q_2(sqrt 2): v_E(x0) = 2 v(x0), v_E(x1 rho) = 2 v(x1) + 1
        2: [
            (F.zero(), eight, 7),
            (eight, F.zero(), 6),
            (F.zero(), gone(5), None),
            (eight, gone(3), 6),
            (eight, gone(2), None),
            (gone(4), eight, 7),
            (gone(3), eight, None),
            (gone(4), gone(4), None),
        ],
        # E = Q_2(sqrt 5), unramified: v_E = v on both halves
        5: [
            (F.zero(), eight, 3),
            (eight, F.zero(), 3),
            (F.zero(), gone(5), None),
            (eight, gone(4), 3),
            (eight, gone(3), None),
            (gone(4), eight, 3),
            (gone(3), eight, None),
            (gone(4), gone(4), None),
        ],
    }
    for d, rows in cases.items():
        E = quad_extend(F, F.from_int(d))
        for x0, x1, want in rows:
            x = E._mk(x0, x1)
            if want is None:
                with pytest.raises(PrecisionError):
                    E.val(x)
            else:
                assert E.val(x) == want, (d, x0, x1)


def test_quad_inverse_clears_p_denominators_first():
    # both halves carry p-denominator 10: taken into the norm as they
    # stand they would cost the inverse nearly all its precision
    F = LocalField(5, 1, 1)
    E = quad_extend(F, F.from_int(2))
    y = E.mul(E.shift(E.one() + E.rho(), -10), E.shift(E.one(), 13))
    assert E.val(y) == 3 and [h.data[1] for h in y.data] == [10, 10]
    z = E.inv(y)
    assert z.prec >= 10
    assert congruent(E, E.mul(y, z), E.one(), 10)


def test_square_input_rejected():
    F = LocalField(2, 1, 1)
    with pytest.raises(ValueError):
        quad_extend(F, F.from_int(17))
    G = LocalField(5, 1, 1)
    with pytest.raises(ValueError):
        quad_extend(G, G.from_int(4))


def test_disc_val_quadratic_q2_table():
    # classical table of discriminants of Q_2(sqrt(d)); d = 1 mod 8 is a square
    F = LocalField(2, 1, 1)
    table = {-1: 2, 3: 2, -5: 2, 7: 2, 2: 3, -2: 3, 6: 3, 10: 3, 5: 0, -3: 0}
    for d, m in table.items():
        assert disc_val_quadratic(F, F.from_int(d)) == m, d
    with pytest.raises(ValueError):
        disc_val_quadratic(F, F.from_int(-7))


def test_tower_of_quadratics():
    F = LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    L = quad_extend(E, E.pi())
    assert L.e == 4 and L.f == 1
    assert L.p == 2 and L.q == 2
    assert L.val(L.pi()) == 1
    assert L.val(L.embed(E.pi())) == 2
    assert L.val(L.from_int(2)) == 4


def test_norm_transitivity_down_tower():
    F = LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    L = quad_extend(E, E.pi())
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = random_unit(L, rng)
        tot = E.norm(L.norm(x))  # N_{E/F}(N_{L/E}(x)) in F
        assert F.val(tot) == 0
    # totally ramified of degree 4: v_F(N_{L/F}(pi_L)) = 1
    assert F.val(E.norm(L.norm(L.pi()))) == 1


# ---------------------------------------------------------------------------
# shifts and golden digits over quadratic extensions
# ---------------------------------------------------------------------------


def quad_fields():
    """Every QUAD_CASES extension, plus a ramified tower over a ramified
    QuadExt: Q_2(sqrt(-1))(sqrt(pi))."""
    out = {}
    for p, e, f, d, _, _ in QUAD_CASES:
        F = LocalField(p, e, f)
        out[(p, e, f, d)] = quad_extend(F, F.from_int(d))
    E = out[(2, 1, 1, -1)]
    out["tower"] = quad_extend(E, E.pi())
    return out


def loop_shift(E, x, k):
    """Multiplication by pi^k = rho^k on a ramified QuadExt, one rho or
    rho^-1 = (rho - a)/b product per step: the reference for ``shift``."""
    B = E.base
    binv = B.inv(E.b)
    rhoinv = E._mk(B.mul(B.neg(E.a), binv), binv)
    step = E.rho() if k > 0 else rhoinv
    out = x
    for _ in range(abs(k)):
        out = E.mul(out, step)
    return out


def test_ramified_shift_matches_step_loop():
    rng = np.random.default_rng(11)
    for key, E in quad_fields().items():
        if E.kind != "ramified":
            continue
        for _ in range(4):
            x = E.mul(random_unit(E, rng), E.power(E.pi(), int(rng.integers(0, 4))))
            for k in range(-12, 13):
                got, ref = E.shift(x, k), loop_shift(E, x, k)
                assert E.val(got) == E.val(x) + k, (key, k)
                assert got.prec >= ref.prec, (key, k)
                assert E.is_zero(E.sub(got, ref)), (key, k)


def quad_golden_element(E, rng):
    x = E.zero()
    for k in range(4):
        coords = [rng.randrange(E.p) for _ in range(E.rf.f)]
        x = x + E.mul(E.power(E.pi(), k), E.lift(E.rf.from_coords(coords)))
    if E.val_lower(x) > 0:
        x = x + E.one()
    return E.shift(x, rng.randint(-3, 3))


def quad_golden_sequence(E, seed):
    """Thirty results of mul, add, shift +-k (k up to 12), inv, power and
    normalize_pshift; half the steps chain on the previous result."""
    rng = random.Random(seed)
    prev = E.one()
    out = []
    for step in range(30):
        x = prev if rng.random() < 0.5 else quad_golden_element(E, rng)
        y = quad_golden_element(E, rng)
        op = step % 6
        if op == 0:
            z = E.mul(x, y)
        elif op == 1:
            z = E.add(x, E.neg(y))
        elif op == 2:
            k = rng.randint(1, 12)
            z = E.shift(E.shift(x, k), -rng.randint(0, k + 6))
        elif op == 3:
            z = E.inv(x)
        elif op == 4:
            z = E.power(y, rng.choice([-3, -2, 2, 3, 5]))
        else:
            z = E.normalize_pshift(E.shift(x, -rng.randint(1, 8)))
        out.append(z)
        if -4 <= E.val(z) <= 4:
            prev = E.normalize_pshift(z)
    return out


# recorded with the per-step ramified shift, before shifts by rho^k
QUAD_GOLDEN = {
    (2, 1, 1, -1): "a9927d2d412348a2",
    (2, 1, 1, 2): "9cc575ab95ed23e0",
    (2, 1, 1, -2): "c4dbd2030c7e7d46",
    (2, 1, 1, 3): "0eecca7fcb9279d0",
    (2, 1, 1, 5): "d0b646cb55c67cbd",
    (3, 1, 1, 3): "0e752dab91759a5f",
    (3, 1, 1, 2): "72d2f56bc172b69a",
    (5, 1, 1, 10): "1ae9bd49e1db9a25",
    (5, 1, 1, 2): "d56d1942687bd847",
    "tower": "8df7df8400e33ca8",
}


def test_quad_golden_digits():
    for i, (key, E) in enumerate(quad_fields().items()):
        h = hashlib.sha256()
        for z in quad_golden_sequence(E, 7919 + i):
            v = E.val(z)
            assert z.prec >= v + GOLDEN_DIGITS
            h.update(repr((v, expansion_digits(E, E.shift(z, -v), GOLDEN_DIGITS))).encode())
        assert h.hexdigest()[:16] == QUAD_GOLDEN.get(key), (key, h.hexdigest()[:16])


# ---------------------------------------------------------------------------
# per-field caches
# ---------------------------------------------------------------------------


class Token:
    """A weakly referenceable cached value."""


def residue_generator(rf):
    """The first generator of the residue field's multiplicative group,
    found by testing x^((q-1)/r) != 1 for each prime r | q - 1."""
    primes = sorted(prime_factors(rf.q - 1))
    return next(
        x
        for x in rf.elements()
        if not rf.is_zero(x) and all(rf.pow(x, (rf.q - 1) // r) != rf.one for r in primes)
    )


def test_field_cache_counts_like_lru_cache():
    def build(F):
        return Token()

    mine, ref = field_cache(build), lru_cache(maxsize=None)(build)
    assert mine.__wrapped__ is build and mine.__name__ == "build"
    F, G = LocalField(2, 1, 1), LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    for K in (F, G, F, E, F, G, E, E):
        assert (mine(K) is mine(F)) == (K is F)
        ref(K), ref(F)
    assert tuple(mine.cache_info()) == tuple(ref.cache_info())[:2] == (13, 3)


def test_field_cache_dies_with_its_field():
    @field_cache
    def build(F):
        return Token()

    F = LocalField(3, 1, 1)
    G = LocalField(3, 1, 1)
    value = build(F)
    assert build(G) is not value  # equal fields never share an entry
    fref, vref = weakref.ref(F), weakref.ref(value)
    del F, value
    gc.collect()
    assert fref() is None and vref() is None
    assert build.cache_info() == (0, 2)


def test_keyed_field_cache_counts_like_lru_cache():
    def build(F, *key):
        return Token()

    mine, ref = field_cache(build), lru_cache(maxsize=None)(build)
    other = field_cache(build)
    F, G = LocalField(2, 1, 1), LocalField(2, 1, 1)
    calls = [(F, 1), (G, 1), (F, 2), (F, 1, 0), (F,), (F, 2), (G, 1), (F, 1, 0), (F,)]
    for K, *key in calls:
        assert mine(K, *key) is mine(K, *key)
        ref(K, *key), ref(K, *key)
    assert tuple(mine.cache_info()) == tuple(ref.cache_info())[:2] == (13, 5)
    # two keys, two fields and two wrappers never share an entry
    values = [mine(K, *key) for K, *key in calls[:5]]
    assert len({id(v) for v in values}) == 5
    assert other(F, 1) is not mine(F, 1) and other.cache_info() == (0, 1)


# ---------------------------------------------------------------------------
# digits read off the coefficients, and products with embedded operands
# ---------------------------------------------------------------------------


def digit_fields():
    """Base fields, with u0 != 1 and f > 1 among them, each followed by a
    ramified and an unramified quadratic over it; last a tower
    M = E(sqrt(omega)) over Q_2.  A generator, so that each base field is
    tested before its extensions, whose construction reads digits."""
    from omega_reference import choose_omega
    from etmass.unitgroups import square_class_basis

    for p, e, f, seed in [(2, 1, 1, 0), (2, 3, 1, 0), (2, 2, 2, 3), (3, 2, 2, 5), (5, 1, 1, 0)]:
        F = LocalField(p, e, f, seed=seed)
        assert (F.u0 != F.rf.one) == (seed > 0)
        yield F
        # d = pi * (a residue generator) makes res(pi_F / rho^2) != 1 when q > 2
        E = quad_extend(F, F.mul(F.pi(), F.lift(residue_generator(F.rf))))
        assert E.kind == "ramified"
        yield E
        E = quad_extend(F, square_class_basis(F)[-1])
        assert E.kind == "unramified"
        yield E
        if p == 2:
            yield quad_extend(F, F.one() + F.pi())  # ramified, a != 0
    Q2 = LocalField(2, 1, 1)
    E = quad_extend(Q2, Q2.from_int(2))  # (-1, 2) = 1: E has cyclic extenders
    yield quad_extend(E, choose_omega(Q2, E))


def test_digit_matches_residue_of_shift():
    rng = np.random.default_rng(17)
    for F in digit_fields():
        for pshift in range(4):
            for _ in range(3):
                z = F.mul(random_unit(F, rng), F.power(F.pi(), int(rng.integers(0, 4))))
                if isinstance(F, LocalField):
                    # the same value, carried over p^pshift
                    vec, s = F.normalize_pshift(z).data
                    x = F._mk(tuple(a * F.p**pshift % F.pK for a in vec), s + pshift, z.prec)
                    assert x.data[1] == pshift
                else:
                    x = F.shift(F.shift(z, pshift), -pshift)
                v = F.val(x)
                for k in range(v + 1):
                    assert F.digit(x, k) == F.residue(F.shift(x, -k)), (F, pshift, k)
                    with pytest.raises(PrecisionError):
                        F.digit(cut(F, x, k), k)
                for k in (v + 1, v + 3, -1):
                    with pytest.raises(ArithmeticError):
                        F.digit(x, k)


def test_residue_refuses_unknown_digit():
    # an element known only modulo pi^0 has no known digit 0
    for F in digit_fields():
        x = F.from_int(3)
        assert F.residue(cut(F, x, 1)) == F.residue(x)
        with pytest.raises(PrecisionError):
            F.residue(cut(F, x, 0))


@pytest.mark.parametrize("e", [1, 2, 3, 10])
def test_negative_shift_costs_its_digits_only(e):
    # pi^-k adds ceil(k/e) to the p-denominator, not k, so the shifted
    # element keeps all but k of its digits, up to the last p-digit
    F = LocalField(2, e, 1)
    u = F.from_int(3)
    for k in range(1, 3 * e + 2):
        x = F.shift(u, -k)
        assert x.data[1] == -(-k // e)
        assert x.prec >= u.prec - k - (e - 1), (e, k)
        assert F.is_zero(F.sub(F.shift(x, k), u))


def test_unramified_quadratic_of_a_large_base():
    # the build shifts t = d/lam^2 - 1 by pi^-2e; at e = 10 the shift
    # once left t no digit, and its residue was read as 0
    from etmass.unitgroups import unit_basis

    F = LocalField(2, 10, 1)
    E = quad_extend(F, unit_basis(F).elems[-1])
    assert E.kind == "unramified" and E.disc_val == 0


def full_product(E, x, y):
    """(x0 y0 + b x1 y1) + (x0 y1 + x1 y0 + a x1 y1) rho, written out."""
    B = E.base
    (x0, x1), (y0, y1) = x.data, y.data
    cross = B.mul(x1, y1)
    re = B.add(B.mul(x0, y0), B.mul(E.b, cross))
    im = B.add(B.add(B.mul(x0, y1), B.mul(x1, y0)), B.mul(E.a, cross))
    return E._mk(re, im)


def full_conj(E, x):
    """(x0 + a x1) - x1 rho, written out."""
    B = E.base
    x0, x1 = x.data
    return E._mk(B.add(x0, B.mul(E.a, x1)), B.neg(x1))


def full_norm(E, x):
    """x0^2 + a x0 x1 - b x1^2, written out, subtraction as adding a negative."""
    B = E.base
    x0, x1 = x.data
    n = B.add(B.mul(x0, x0), B.mul(B.mul(E.a, x0), x1))
    return B.normalize_pshift(B.add(n, B.neg(B.mul(B.mul(E.b, x1), x1))))


def full_trace(E, x):
    """2 x0 + a x1, written out."""
    B = E.base
    x0, x1 = x.data
    return B.add(B.mul(x0, B.from_int(2)), B.mul(E.a, x1))


def same_elt(x, y):
    """Equal data, precision and exactness, down to the base field."""
    if x.field is not y.field or (x.prec, x.exact) != (y.prec, y.exact):
        return False
    if x.field.base is None:
        return x.data == y.data
    return all(same_elt(a, b) for a, b in zip(x.data, y.data))


def agrees(K, got, ref):
    """got is ref to ref's precision, and known at least as far."""
    d = K.add(got, K.neg(ref))
    return got.prec >= ref.prec and (d.exact or K.val_lower(d) >= ref.prec)


def sample_elements(F, rng):
    """Units times powers of pi, some over a p-denominator or cut short,
    one, zero and, in an extension, embedded elements."""
    xs = [F.mul(random_unit(F, rng), F.power(F.pi(), k)) for k in range(3)]
    xs += [F.shift(F.shift(xs[0], 3), -3), cut(F, xs[1], 5), F.one(), F.zero(), F.from_int(-3)]
    if F.base is not None:
        B = F.base
        xs += [F.embed(B.shift(random_unit(B, rng), 1)), F.mul(F.rho(), F.from_int(5))]
    return xs


def test_sub_and_minus_one_match_adding_a_negative():
    rng = np.random.default_rng(29)
    for F in digit_fields():
        xs = sample_elements(F, rng)
        for x in xs:
            assert same_elt(F.minus_one(x), F.add(x, F.neg(F.one()))), F
            for y in xs:
                assert same_elt(F.sub(x, y), F.add(x, F.neg(y))), F
                assert same_elt(x - y, F.add(x, F.neg(y))), F
            assert same_elt(3 - x, F.add(F.from_int(3), F.neg(x))), F


def test_quad_arithmetic_matches_written_out_formulas():
    rng = np.random.default_rng(31)
    for E in digit_fields():
        if isinstance(E, LocalField):
            continue
        # only a product by an exact-zero a may be dropped
        check, check_base = same_elt, same_elt
        if E.a.exact:
            check, check_base = partial(agrees, E), partial(agrees, E.base)
        xs = sample_elements(E, rng)
        for x in xs:
            assert check(E.conj(x), full_conj(E, x)), E
            assert check_base(E.norm(x), full_norm(E, x)), E
            assert check_base(trace(E, x), full_trace(E, x)), E
            for y in xs:
                if not (x.data[1].exact or y.data[1].exact):
                    assert check(E.mul(x, y), full_product(E, x, y)), E


def test_quad_mul_with_embedded_operand_matches_full_formula():
    rng = np.random.default_rng(23)
    for E in digit_fields():
        if isinstance(E, LocalField):
            continue
        B = E.base
        embedded = [E.from_int(3), E.one(), *E.residue_lifts()[: B.rf.f]]
        embedded += [E.embed(B.mul(random_unit(B, rng), B.power(B.pi(), k))) for k in range(3)]
        general = [E.mul(random_unit(E, rng), E.power(E.pi(), k)) for k in range(3)]
        general += [E.one() + E.shift(u, 2) for u in E.residue_lifts()]
        for x in embedded:
            for y in general + embedded:
                for a, b in ((x, y), (y, x)):
                    got, ref = E.mul(a, b), full_product(E, a, b)
                    assert E.is_zero(E.sub(got, ref)), E
                    assert E.val(got) == E.val(ref), E
                    assert got.prec >= ref.prec, E


# ---------------------------------------------------------------------------
# precision claims: one op chain at precision P and at 2P
# ---------------------------------------------------------------------------

# bases with e >= 2 at p = 2 and at odd p, quadratics over Q_2 (d = 3
# is ramified with a != 0, d = 5 unramified, d = 2 ramified with a = 0)
# and two towers of the kinds the quartic census builds: Q_2(sqrt 3)
# by sqrt(1 + rho), ramified over ramified with a != 0 at both levels
# (a (1^4) field), and by sqrt(-1), unramified over ramified (a (2^2) field)
SOUNDNESS_BASES = [(2, 1, 1), (2, 3, 1), (2, 6, 1), (3, 2, 2), (5, 1, 1), (2, 2, 2), (3, 3, 1)]
SOUNDNESS_CASES = (
    [(*b, None) for b in SOUNDNESS_BASES]
    + [(2, 1, 1, d) for d in (3, 5, 2)]
    + [(2, 1, 1, (3, (1, 1))), (2, 1, 1, (3, (-1, 0)))]
)
CHAIN_OPS = ("add", "sub", "mul", "inv", "shift", "power", "half", "neg", "minus_one")


def soundness_field(p, e, f, d, prec=None):
    """The base (p, e, f), its quadratic F(sqrt d) for an int d, or for
    d = (d1, (c0, c1)) the tower E(sqrt(c0 + c1 rho)) over E = F(sqrt d1)."""
    K = LocalField(p, e, f, prec=prec)
    if d is None:
        return K
    d1, top = (d, None) if isinstance(d, int) else d
    K = quad_extend(K, K.from_int(d1))
    if top is not None:
        K = quad_extend(K, K.add(K.from_int(top[0]), K.mul(K.from_int(top[1]), K.rho())))
    return K


def case_id(v):
    """Test ids for the towers: d1_c0+c1rho."""
    return f"{v[0]}_{v[1][0]}{v[1][1]:+d}rho" if isinstance(v, tuple) else None


def lift_to(K2, x):
    """x as an element of K2, the same field at a higher precision: the
    same payload (pairwise over a quadratic) and the same claim."""
    if K2.base is None:
        return Elt(K2, x.data, x.prec, x.exact)
    x0, x1 = x.data
    return Elt(K2, (lift_to(K2.base, x0), lift_to(K2.base, x1)), x.prec, x.exact)


def chain_op(K, op, x, y, k):
    if op == "half":
        return K.mul(x, K.half())
    if op in ("add", "sub", "mul"):
        return getattr(K, op)(x, y)
    if op in ("inv", "neg", "minus_one"):
        return getattr(K, op)(x)
    return getattr(K, op)(x, k)  # shift or power, by k in [-3, 3]


def chain_fresh(rng, fields):
    """One seeded chain input, built alike in each of ``fields`` (one
    field at several precisions); the first is sometimes cut short."""
    K = fields[0]
    digits = [[rng.randrange(K.p) for _ in range(K.rf.f)] for _ in range(rng.randrange(1, 6))]
    s = rng.randrange(-3, 4)
    xs = []
    for L in fields:
        x = L.zero()
        for i, coords in enumerate(digits):
            x = x + L.mul(L.power(L.pi(), i), L.lift(L.rf.from_coords(coords)))
        xs.append(L.shift(x, s))
    if rng.random() < 0.5 and not xs[0].exact:
        xs[0] = cut(K, xs[0], rng.randrange(K.prec // 2, xs[0].prec + 1))
    return xs


def op_chain(fields, seed, steps=200):
    """A seeded chain of ``CHAIN_OPS`` run alike in each of ``fields``,
    yielding (op, results); a step whose op raises ArithmeticError (an
    inverse of zero, or digits run out) yields nothing."""
    K = fields[0]
    rng = random.Random(seed)
    pool = [chain_fresh(rng, fields) for _ in range(4)]
    for _ in range(steps):
        op, k = rng.choice(CHAIN_OPS), rng.choice((-3, -2, -1, 1, 2, 3))
        xs, ys = rng.choice(pool), rng.choice(pool)
        try:
            rs = [chain_op(L, op, x, y, k) for L, x, y in zip(fields, xs, ys)]
        except ArithmeticError:
            pool[rng.randrange(len(pool))] = chain_fresh(rng, fields)
            continue
        yield op, rs
        # keep the pool away from exhausted or far-off elements
        r = rs[0]
        if r.exact or r.prec < K.prec // 4 or abs(K.val_lower(r)) > K.prec // 2:
            rs = chain_fresh(rng, fields)
        pool[rng.randrange(len(pool))] = rs


@pytest.mark.parametrize("p,e,f,d", SOUNDNESS_CASES, ids=case_id)
def test_precision_claims_hold_at_double_precision(p, e, f, d):
    # seeded chains of ops run on the same values at the default
    # precision P and at 2P; the 2P inputs know all their digits, the P
    # inputs are sometimes cut short.  Every digit a P result claims
    # must be the 2P result's, and 2P must claim at least as many.
    K = soundness_field(p, e, f, d)
    K2 = soundness_field(p, e, f, d, prec=2 * LocalField(p, e, f).prec)
    for seed in range(3):
        for op, (r, r2) in op_chain([K, K2], seed):
            assert agrees(K2, r2, lift_to(K2, r)), (K, seed, op)


def claim_text(x):
    """An element's payload, precision, exactness and valuation bound,
    down to the base field."""
    K = x.field
    head = f"{x.prec},{x.exact},{K.val_lower(x)}"
    if K.base is None:
        vec, s = x.data
        return f"{head}:{s}:{','.join(map(str, vec))}"
    x0, x1 = x.data
    return f"{head}({claim_text(x0)};{claim_text(x1)})"


# sha256 prefixes of every claim of the op chains below
PINNED_CLAIMS = {
    (2, 1, 1, None): "6c7288c858815403",
    (2, 3, 1, None): "7fee5e25a1d2a681",
    (2, 6, 1, None): "2f05cec6eb42cc33",
    (3, 2, 2, None): "bc6f6e9ddd3c0f8f",
    (5, 1, 1, None): "eb4108f427ed505d",
    (2, 2, 2, None): "0d7ecc9a14bab8e6",
    (3, 3, 1, None): "7ac2ea5a6c9c98ba",
    (2, 1, 1, 3): "5584098a70bef463",
    (2, 1, 1, 5): "c95a0e38ca2308cd",
    (2, 1, 1, 2): "dd929e6bfe2a593d",
    (2, 1, 1, (3, (1, 1))): "4f1d6c6e555d9fb5",
    (2, 1, 1, (3, (-1, 0))): "12b98ad73837ef7c",
}


@pytest.mark.parametrize("p,e,f,d", SOUNDNESS_CASES, ids=case_id)
def test_kernel_claims_are_pinned(p, e, f, d):
    # every payload, precision, exactness and valuation bound the kernel
    # ops produce on seeded chains, pinned bit for bit
    K = soundness_field(p, e, f, d)
    h = hashlib.sha256()
    for seed in range(3):
        for op, (r,) in op_chain([K], seed):
            h.update(f"{op}|{claim_text(r)}\n".encode())
    assert h.hexdigest()[:16] == PINNED_CLAIMS[(p, e, f, d)]


def test_arithmetic_refuses_elements_of_two_fields():
    F, G = LocalField(2, 1, 1), LocalField(2, 1, 1)
    E, E2 = quad_extend(F, F.from_int(5)), quad_extend(F, F.from_int(3))
    for K, L in ((F, G), (E, E2)):
        x, y = K.from_int(3), L.from_int(3)
        for op in ("add", "sub", "mul"):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(ValueError, match="different fields"):
                    getattr(K, op)(a, b)
