"""The tame numerator by stripping p from each generator's numerator
and denominator and inverting the denominator mod p.

The library reads each generator num/den once as num * den^(n-1) and
takes one modular power per prime (``density._tame_numerator``); this
module keeps the direct route, one unit u = num * den^-1 mod p per
generator and prime, as the reference the tests compare it with.
"""

from math import gcd

from etmass.density import _tame_rank_case
from etmass.massprime import partition_count
from etmass.massquartic import tame_coefficients


def tame_numerator(n: int, p: int, fracs) -> int:
    """``tame_local_mass`` times ``_tame_scale(n) * p^n``, an integer, on
    nonzero generators given as (numerator, denominator) pairs, for a
    prime p not dividing n."""
    units = []  # (v, u mod p) with g = p^v * u
    for num, den in fracs:
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        units.append((v, num * pow(den, -1, p) % p))
    q = p
    if n == 4:
        # (v mod 4, dlog u mod g4), the dlog read off against whichever
        # primitive 4th root of unity is the smaller residue
        g4 = gcd(4, q - 1)
        images = []
        for v, u in units:
            chi = pow(u, (q - 1) // g4, q)
            b = 0 if chi == 1 else g4 // 2 if chi == q - 1 else 1 if chi < q - chi else 3
            images.append((v % 4, b))
        k1212, k22, k14 = tame_coefficients(frozenset(images), g4)
        # over 8 q^3: epi, (4), (2 2), (1^2 1^2), (2^2), (1^4)
        total = (
            q * (5 * q * q + 8 * q + 8)
            + (2 * q**3 if all(a == 0 for a, _ in images) else 0)
            + (q**3 if all(a % 2 == 0 for a, _ in images) else 0)
            + (k1212 + k22) * q
            + k14
        )
        return (q - 1) * total
    ell = n
    top = q ** (ell - 1)
    vals = [v % ell for v, _ in units]
    if (q - 1) % ell:
        ram = ell  # every unit is an ell-th power: q^(1-ell)
    else:
        k = (q - 1) // ell
        case = _tame_rank_case([(a, pow(u, k, q)) for a, (_, u) in zip(vals, units)], q)
        ram = (ell, 1, 0)[case]  # q^(1-ell), q^(1-ell)/ell or 0
    # over ell q^(ell-1): unramified, totally ramified, epi, layers
    total = (
        (0 if any(vals) else top)
        + ram
        + (ell - 1) * top
        + ell * sum(partition_count(d, ell - d) * q ** (ell - 1 - d) for d in range(1, ell - 1))
    )
    return (q - 1) * total
