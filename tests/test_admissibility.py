import random
import signal
import time
import tracemalloc

import pytest

from cubiclass import admissibility
from cubiclass.admissibility import (
    _pollard_rho,
    admissible_primes,
    ensure_prime,
    is_admissible,
    is_prime,
    max_admissible_prime,
    minus_two_order,
)
from form_helpers import brute_order

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


def test_is_prime_basics():
    primes = {2, 3, 5, 7, 11, 13, 97, 10007, 2731, 43691, 174763, 683}
    for m in primes:
        assert is_prime(m)
    for m in (0, 1, 4, 9, 91, 561, 1105, 43691 * 3, 2731 * 2731):
        assert not is_prime(m)


@pytest.mark.parametrize("m", [7.0, 2.0, True, False, "7"])
def test_is_prime_refuses_non_integers(m):
    # 7.0 is not read as 7, nor True as 1.
    with pytest.raises(ValueError, match="integers only"):
        is_prime(m)
    with pytest.raises(ValueError, match="modulus must be prime"):
        ensure_prime(m)


# The least strong pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# A composite factor of 2^91 + 1 past psi_13 (l = 91 enters at n = 89), and
# the prime (2^101 + 1)/3, a factor of (-2)^101 - 1 (n = 99).
COMPOSITE_AT_89 = 2731 * 224771 * 1210483 * 25829691707
WAGSTAFF_101 = (2**101 + 1) // 3


def test_is_prime_range():
    # Bases up to 37 pass psi_12; base 41 rejects it.  psi_13 passes base 41
    # too, so from psi_13 up a number that passes every base raises, while a
    # failing base proves a number composite at any size.
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(PSI_13 + 2) and not is_prime(2 * PSI_13)
    assert not is_prime(COMPOSITE_AT_89)
    for m in (PSI_13, WAGSTAFF_101):
        with pytest.raises(ValueError, match="deterministic"):
            is_prime(m)


# psi_3 and psi_4, the least strong pseudoprimes to the bases (2, 3, 5)
# and (2, 3, 5, 7) (Pomerance, Selfridge and Wagstaff 1980).
PSI_3 = 25326001
PSI_4 = 3215031751


def _strong_probable_prime(m, w):
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(w, d, m)
    return x in (1, m - 1) or any(pow(x, 2**r, m) == m - 1 for r in range(1, s))


def test_is_prime_four_bases_below_psi_4():
    # Below psi_4 only the bases 2, 3, 5 and 7 run.  psi_3 passes the first
    # three, so base 7 must catch it; psi_4 passes all four, so the cut at
    # psi_4 must be strict and psi_4 itself runs the 13 bases.
    assert PSI_3 == 2251 * 11251 and PSI_4 == 151 * 751 * 28351
    assert all(_strong_probable_prime(PSI_3, w) for w in (2, 3, 5))
    assert not _strong_probable_prime(PSI_3, 7)
    assert all(_strong_probable_prime(PSI_4, w) for w in (2, 3, 5, 7))
    assert not is_prime(PSI_3)
    assert not is_prime(PSI_4)
    # The primes either side of psi_4, one on each side of the cut.
    assert is_prime(3215031749) and is_prime(3215031767)


def test_is_prime_agrees_with_sympy_below_psi_4():
    sympy = pytest.importorskip("sympy")
    for m in range(200_000):
        assert is_prime(m) is sympy.isprime(m), m
    rng = random.Random(0)
    sample = [rng.randrange(200_000, PSI_4) for _ in range(20_000)]
    sample += range(PSI_4 - 2_000, PSI_4 + 2_000)
    for m in sample:
        assert is_prime(m) is sympy.isprime(m), m


def test_is_prime_agrees_with_sympy_past_psi_13():
    sympy = pytest.importorskip("sympy")
    # Every composite past psi_13 is refuted; only a number that passes all
    # 13 bases, prime or (like psi_13) not, raises.
    composites = [PSI_13 * 1000003, 2**127 + 1, 2**256 + 1]
    for m in composites + list(range(PSI_13 + 1, PSI_13 + 3000)):
        if sympy.isprime(m):
            with pytest.raises(ValueError, match="deterministic"):
                is_prime(m)
        else:
            assert is_prime(m) is False, m


def test_factor_stops_at_the_cofactor():
    # Once 3, 5, ..., 331 are split off 2^60 - 1 = (-2)^60 - 1, the prime
    # cofactor 1321 is kept by is_prime rather than searched further.
    admissible_primes.cache_clear()
    t0 = time.perf_counter()
    primes_2_60 = {3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321}
    assert primes_2_60 <= set(admissible_primes(58))
    assert time.perf_counter() - t0 < 1.0
    # 2^31 - 1 divides 2^62 - 1 = (-2)^62 - 1 and is prime.
    assert 2**31 - 1 in admissible_primes(60)
    m = 3 * 3 * 1321 * 1321
    f = _pollard_rho(m)
    assert 1 < f < m and m % f == 0


def _trial_factor(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def test_factor_matches_trial_division():
    # Every odd composite, as trial division finds them, gets a proper
    # divisor from rho.  A rho that never returned on some m (as on 4) would
    # hang; the alarm turns that into a failure.
    def timeout(*_):
        raise TimeoutError("_pollard_rho did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        for m in range(9, 20000, 2):
            if _trial_factor(m) != [m]:
                f = _pollard_rho(m)
                assert 1 < f < m and m % f == 0, m
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_factor_splits_large_cofactors():
    # Trial division would run to 7e8 on the composite cofactor
    # 715827883 * 2147483647 of 2^62 - 1, which Pollard's rho splits, and to
    # 8.8e8 on the prime cofactor of 2^61 + 1, which is_prime keeps.
    admissible_primes.cache_clear()
    t0 = time.perf_counter()
    assert {3, 715827883, 2147483647} <= set(admissible_primes(60))
    assert 768614336404564651 in admissible_primes(59)
    for m in (1000003 * 1000033 * 1009, 1000003**2 * 7):
        f = _pollard_rho(m)
        assert 1 < f < m and m % f == 0, m
    assert admissible_primes(80)[-1] == 201487636602438195784363
    # At n = 89 is_prime refutes the 26-digit composite cofactor
    # COMPOSITE_AT_89, past psi_13, and rho splits it.
    assert {2731, 224771, 1210483, 25829691707} <= set(admissible_primes(89))
    assert time.perf_counter() - t0 < 5.0
    # At n = 99 the prime cofactor (2^101 + 1)/3 of (-2)^101 - 1 is past
    # psi_13, where a prime cannot be certified.
    with pytest.raises(ValueError, match=str(WAGSTAFF_101)):
        admissible_primes(99)


def test_admissible_primes_builds_one_number_at_a_time():
    # Each (-2)^l - 1 is built only once the one before is factored, so
    # n = 20000 stops at l = 101 holding a few hundred bits.  Building all
    # n + 2 numbers up front would hold about 26 MB by then.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(WAGSTAFF_101)):
            admissible_primes(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_each_prime_is_split_off_once(monkeypatch):
    # Each number popped is stripped of the primes already found, so
    # is_prime passes each odd prime of the table once and rho only splits
    # products of primes of one order.  Handing each (-2)^l - 1 whole to the
    # factoring re-splits the small primes: 164 passes and 122 rho calls.
    passed, rho_calls = [], []

    def counting_is_prime(m):
        result = is_prime(m)
        if result:
            passed.append(m)
        return result

    def counting_rho(m):
        rho_calls.append(m)
        return _pollard_rho(m)

    monkeypatch.setattr(admissibility, "is_prime", counting_is_prime)
    monkeypatch.setattr(admissibility, "_pollard_rho", counting_rho)
    admissible_primes.cache_clear()
    try:
        table = admissible_primes(40)
    finally:
        admissible_primes.cache_clear()
    assert len(passed) == 49 and sorted(passed) == list(table[1:])
    assert len(rho_calls) == 9


def test_admissible_primes_match_trial_division():
    # Sympy-free oracle: the table for n is 2 and the trial-division primes
    # of |(-2)^l - 1| for l <= n + 2.
    primes = {2}
    for ell in range(1, 33):
        primes.update(_trial_factor(abs((-2) ** ell - 1)))
        if ell >= 4:
            assert admissible_primes(ell - 2) == tuple(sorted(primes)), ell - 2


def test_admissible_primes_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    # Sympy factors |(-2)^l - 1| by its own methods; the table for n is 2 and
    # the prime factors for l <= n + 2.
    primes = {2}
    for ell in range(1, 101):
        primes.update(sympy.primefactors(abs((-2) ** ell - 1)))
        if ell >= 4:
            assert set(admissible_primes(ell - 2)) == primes, ell - 2


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
    assert brute_order(-2, 3) == 1
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
                assert brute_order(-2, p) <= n + 2, (n, p)
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
                assert brute_order(-2, p) <= n + 2


def test_is_admissible_agrees_with_order():
    # is_admissible tries the powers (-2)^l for l <= n + 2; the order of -2
    # is the definition it must match.
    for p in filter(is_prime, range(2, 2000)):
        for n in range(2, 13):
            expected = p == 2 or brute_order(-2, p) <= n + 2
            assert is_admissible(p, n) is expected, (p, n)


def test_minus_two_order_is_the_order_up_to_n_plus_2():
    for p in filter(is_prime, range(3, 2000)):
        order = brute_order(-2, p)
        for n in range(2, 13):
            expected = order if order <= n + 2 else None
            assert minus_two_order(p, n) == expected, (p, n)
    assert minus_two_order(2, 5) is None


def test_primes_first_admissible_at_n_have_order_n_plus_2():
    # A prime that enters the table at n divides (-2)^(n+2) - 1 and no
    # earlier (-2)^l - 1, so -2 has order exactly n + 2 there.
    for n in range(21, 31):
        for p in set(admissible_primes(n)) - set(admissible_primes(n - 1)):
            assert minus_two_order(p, n) == n + 2, (n, p)
            assert minus_two_order(p, n - 1) is None, (n, p)
