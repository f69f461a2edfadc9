import time

import pytest

from cubiclass.admissibility import (
    admissible_primes,
    is_admissible,
    is_prime,
    max_admissible_prime,
    mult_order,
)

# Reference tables for n = 2..10 and the maximal prime for n = 11..20.
ADMISSIBLE_TABLE = {
    2: (2, 3, 5),
    3: (2, 3, 5, 11),
    4: (2, 3, 5, 7, 11),
    5: (2, 3, 5, 7, 11, 43),
    6: (2, 3, 5, 7, 11, 17, 43),
    7: (2, 3, 5, 7, 11, 17, 19, 43),
    8: (2, 3, 5, 7, 11, 17, 19, 31, 43),
    9: (2, 3, 5, 7, 11, 17, 19, 31, 43, 683),
    10: (2, 3, 5, 7, 11, 13, 17, 19, 31, 43, 683),
}
MAX_PRIME_TABLE = {
    11: 2731, 12: 2731, 13: 2731, 14: 2731,
    15: 43691, 16: 43691,
    17: 174763, 18: 174763, 19: 174763, 20: 174763,
}


def brute_order(a, p):
    a %= p
    x, l = a, 1
    while x != 1:
        x = x * a % p
        l += 1
    return l


def test_is_prime_basics():
    primes = {2, 3, 5, 7, 11, 13, 97, 10007, 2731, 43691, 174763, 683}
    for m in primes:
        assert is_prime(m)
    for m in (0, 1, 4, 9, 91, 561, 1105, 43691 * 3, 2731 * 2731):
        assert not is_prime(m)


@pytest.mark.parametrize("a,p,expected", [(-2, 11, 5), (1, 7, 1), (-2, 43, 7)])
def test_mult_order_examples(a, p, expected):
    assert mult_order(a, p) == expected
    assert brute_order(a, p) == expected


def test_mult_order_agrees_with_scan():
    for p in (5, 7, 11, 13, 17, 43, 683):
        for a in range(1, min(p, 30)):
            assert mult_order(a, p) == brute_order(a, p)


def test_mult_order_rejects_zero():
    with pytest.raises(ValueError):
        mult_order(0, 7)
    with pytest.raises(ValueError):
        mult_order(14, 7)


def test_mult_order_rejects_composite_modulus():
    with pytest.raises(ValueError):
        mult_order(2, 15)


@pytest.mark.parametrize(
    "p,n,expected",
    [(5, 2, True), (7, 3, False), (2, 2, True), (43, 5, True), (13, 9, False)],
)
def test_is_admissible_examples(p, n, expected):
    assert is_admissible(p, n) is expected


def test_is_admissible_rejects_small_dimension():
    with pytest.raises(ValueError):
        is_admissible(5, 1)


def test_three_always_admissible():
    # (-2)^1 = 1 mod 3, so the order criterion covers p = 3 for every n.
    assert mult_order(-2, 3) == 1
    for n in range(2, 12):
        assert 3 in admissible_primes(n)


def test_tables_verbatim():
    for n, row in ADMISSIBLE_TABLE.items():
        assert admissible_primes(n) == row


def test_max_prime_table():
    for n, p in MAX_PRIME_TABLE.items():
        assert max_admissible_prime(n) == p
    assert max_admissible_prime(3) == 11


def test_admissible_against_independent_scan():
    # Independent oracle: sieve-free loop testing the order bound directly.
    for n in range(2, 9):
        bound = 2 ** (n + 1)
        expected = []
        for p in range(2, bound):
            if not is_prime(p):
                continue
            if p == 2 or brute_order(-2, p) <= n + 2:
                expected.append(p)
        assert list(admissible_primes(n)) == expected


def test_bound_property():
    for n in range(2, 21):
        for p in admissible_primes(n):
            assert p < 2 ** (n + 1)


def test_order_criterion_and_bound_above_20():
    # Factoring (-2)^l - 1 needs no sieve below 2^(n+1), so dimensions whose
    # sieve would take gigabytes are cheap.
    t0 = time.perf_counter()
    previous = set()
    for n in range(21, 31):
        primes = admissible_primes(n)
        for p in primes:
            assert p < 2 ** (n + 1)
            if p != 2:
                assert mult_order(-2, p) <= n + 2, (n, p)
        assert previous <= set(primes)
        previous = set(primes)
    assert time.perf_counter() - t0 < 1.0


def test_monotonicity():
    for n in range(2, 20):
        assert set(admissible_primes(n)) <= set(admissible_primes(n + 1))


def test_order_criterion_tight():
    for n in range(2, 11):
        for p in admissible_primes(n):
            if p > 3:
                assert mult_order(-2, p) <= n + 2


def test_is_admissible_agrees_with_order():
    # is_admissible tries the powers (-2)^l for l <= n + 2; the order of -2
    # is the definition it must match.
    for p in filter(is_prime, range(2, 2000)):
        for n in range(2, 13):
            expected = p == 2 or mult_order(-2, p) <= n + 2
            assert is_admissible(p, n) is expected, (p, n)
