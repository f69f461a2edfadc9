"""Admissible prime orders of automorphisms of smooth cubic n-folds.

A prime p is admissible in dimension n when p = 2 or (-2)^l = 1 mod p for
some l in {1, ..., n+2}.  An odd prime satisfies this exactly when it
divides some (-2)^l - 1, so the full list for a given n is 2 plus the
prime factors of those n + 2 numbers.
"""

from functools import lru_cache
from itertools import count
from math import gcd

# The first 13 primes as Miller-Rabin bases decide every input below
# psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the bases up to 37 alone pass
# psi_12 = 399165290221 * 798330580441.  The first 4 decide every input
# below psi_4 (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13
_MR_BOUND_4 = 3215031751  # psi_4


def is_prime(m: int) -> bool:
    """Miller-Rabin primality test on the first 4 prime bases below psi_4
    (about 3.2e9) and on the first 13 from there, after trial division by
    those 13 primes, which decides them and their multiples at once.

    False is a proof at any size: a failing base witnesses that m is
    composite.  True is a proof below psi_13 (about 3.3e24); an m from
    psi_13 up that passes every base is a probable prime this test cannot
    certify, and raises ValueError, as does a non-int.
    """
    if type(m) is not int:
        raise ValueError(f"primality is decided for integers only, got {m!r}")
    if m < 2:
        return False
    for w in _MR_WITNESSES:
        if m == w:
            return True
        if m % w == 0:
            return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES[:4] if m < _MR_BOUND_4 else _MR_WITNESSES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_BOUND:
        raise ValueError(f"{m} is beyond the deterministic primality range")
    return True


def ensure_prime(p: int) -> int:
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    return p


def _pollard_rho(m: int) -> int:
    """A proper factor of the odd composite m: Floyd cycle finding on
    x -> x^2 + c mod m, the next c when a cycle closes mod m itself, in
    about sqrt(least prime factor of m) steps.  m must be odd (rho never
    splits 4); every divisor of (-2)^l - 1 is."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            g = gcd(x - y, m)
        if g != m:
            return g


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return n


def _check_weight(a) -> int:
    """An eigenweight: an int and not a bool (floats are refused, not cast)."""
    if type(a) is not int:
        raise ValueError(f"weight must be an integer, got {a!r}")
    return a


def minus_two_order(p: int, n: int) -> int | None:
    """The order of -2 mod the prime p when it is at most n + 2, else None.

    That is n + 2 modular powers whatever the size of p, where the order of
    -2 itself would need the factors of p - 1.
    """
    return next((ell for ell in range(1, n + 3) if pow(-2, ell, p) == 1), None)


def is_admissible(p: int, n: int) -> bool:
    """True iff p = 2 or (-2)^l = 1 mod p for some l in {1, ..., n+2}."""
    _check_dimension(n)
    ensure_prime(p)
    return p == 2 or minus_two_order(p, n) is not None


@lru_cache(maxsize=None)
def admissible_primes(n: int) -> tuple[int, ...]:
    """All admissible primes for dimension n, increasing.

    Complete by the criterion itself: an odd prime p has (-2)^l = 1 mod p
    exactly when p divides (-2)^l - 1, so the odd admissible primes are the
    prime factors of (-2)^l - 1 for l = 1, ..., n+2, and p < 2^(n+1)
    follows.  Each l is factored in full before (-2)^(l+1) - 1 is built,
    so memory stays that of one l.  A number is stripped of the primes in
    the table: a prime q of (-2)^l - 1 of order e < l divides (-2)^e - 1,
    factored earlier, so what is left at l is a product of primes of order
    exactly l.  Each prime is split off once, at its order, and is_prime
    passes it once; it raises ValueError on a part from psi_13 up that it
    cannot decide.
    """
    _check_dimension(n)
    primes = [2]
    for ell in range(1, n + 3):
        stack = [abs((-2) ** ell - 1)]
        while stack:
            m = stack.pop()
            for p in primes:
                while m % p == 0:
                    m //= p
            if m == 1:
                continue
            if is_prime(m):
                primes.append(m)
            else:
                f = _pollard_rho(m)
                stack += [f, m // f]
    return tuple(sorted(primes))


def max_admissible_prime(n: int) -> int:
    """Largest admissible prime for dimension n."""
    return admissible_primes(n)[-1]
