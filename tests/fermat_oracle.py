"""Reference oracles for the Fermat symmetry classes: walks of the group.

The library reads the classes realized inside the Fermat symmetry group
mu_3^(n+2)/mu_3 x| S_(n+2) (Matsumura-Monsky, J. Math. Kyoto Univ. 3, 1964)
off a closed formula.  This module finds them the long way, by computing
the projective order and signature of group elements, in three sweeps of
decreasing cost:

* element_sweep: every permutation and every exponent vector;
* cycle_type_sweep: one permutation per cycle type, exps[0] = 0;
* cycle_sum_walk: one element per cycle type of lcm 1 or prime and per
  multiset of per-cycle exponent sums mod 3.

Each returns p -> frozenset of canonical value tuples, the shape of
fermat_order_classes.  weighted_family_keys walks every element again and
keeps the weight of each lift, so it returns p -> family_keys instead.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from math import gcd, lcm

from cubiclass.admissibility import is_prime
from cubiclass.signatures import Signature, _canonical_values, family_key


@dataclass(frozen=True)
class FermatGroupElement:
    """A symmetry of the Fermat form: coordinate permutation after
    per-coordinate cube-root scalings, taken modulo global scalars."""

    perm: tuple
    exps: tuple


def cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cur = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cur.append(j)
            seen[j] = True
            j = perm[j]
        out.append(cur)
    return out


def _eigen_exponents(el: FermatGroupElement):
    """(nums, D): the eigenvalues of el are exp(2 pi i k / D), k in nums,
    with D = 3*lcm(cycle lengths).  A cycle of length m whose cube-root
    exponents sum to s has the m-th roots of w^s, exponents
    (s + 3j)*(D/3m)."""
    cyc = cycles(el.perm)
    L = lcm(*(len(c) for c in cyc))
    D = 3 * L
    nums = []
    for c in cyc:
        m = len(c)
        e_sum = sum(el.exps[i] for i in c) % 3
        base = e_sum * (L // m)
        step = 3 * (L // m)
        for j in range(m):
            nums.append((base + step * j) % D)
    return nums, D


def element_order_and_signature(el: FermatGroupElement):
    """Projective order, and the signature when that order is prime.

    Eigenvalues come blockwise from the permutation cycles; their exponents
    are exact rationals with denominator 3*lcm(cycle lengths), so the order
    and the signature (the eigenvalue ratios as powers of a primitive root
    of unity) are computed without any floating point.

    Returns (order, sigma values tuple or None).
    """
    nums, D = _eigen_exponents(el)
    diffs = [(x - nums[0]) % D for x in nums]
    g = D
    for d in diffs:
        g = gcd(g, d)
    order = D // g
    if order <= 1 or not is_prime(order):
        return order, None
    p = order
    return p, tuple(d * p // D % p for d in diffs)


def element_weight(el: FermatGroupElement, p: int) -> int:
    """The weight of el's lift h = el / mu_0, mu_0 its first eigenvalue,
    whose signature element_order_and_signature returns.  el fixes the
    Fermat form exactly, so F(h x) = mu_0^-3 F(x); with
    mu_0 = exp(2 pi i k / D), D = 3L and L | p, that is zeta_p^(-k*p/L)."""
    nums, D = _eigen_exponents(el)
    return -nums[0] * p // (D // 3) % p


def weighted_family_keys(n: int) -> dict:
    """Every element of the group: p -> the family_keys of the pairs
    (sigma, weight) of its elements of prime order p."""
    m = n + 2
    keys = {}
    for perm in permutations(range(m)):
        for exps in product((0, 1, 2), repeat=m):
            el = FermatGroupElement(perm, exps)
            p, sig = element_order_and_signature(el)
            if sig is not None:
                key = family_key(Signature(p, sig), element_weight(el, p))
                keys.setdefault(p, set()).add(key)
    return keys


def _collect(elements) -> dict:
    raw = {}
    for el in elements:
        p, sig = element_order_and_signature(el)
        if sig is not None:
            raw.setdefault(p, set()).add(_canonical_values(p, sorted(sig)))
    return {p: frozenset(v) for p, v in raw.items()}


def element_sweep(n: int) -> dict:
    """Every element of the group: (n+2)! * 3^(n+2) evaluations."""
    m = n + 2
    return _collect(
        FermatGroupElement(perm, exps)
        for perm in permutations(range(m))
        for exps in product((0, 1, 2), repeat=m)
    )


def cycle_type_sweep(n: int) -> dict:
    """One permutation per cycle type, every exponent vector with
    exps[0] = 0, as a global cube root changes no projective element."""
    m = n + 2
    perms = {}
    for perm in permutations(range(m)):
        perms.setdefault(tuple(sorted(len(c) for c in cycles(perm))), perm)
    return _collect(
        FermatGroupElement(perm, (0,) + tail)
        for perm in perms.values()
        for tail in product((0, 1, 2), repeat=m - 1)
    )


def partitions(m: int, largest: int | None = None):
    """The partitions of m as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def cycle_sum_walk(n: int) -> dict:
    """One element per cycle type lambda of n + 2 and, for each cycle
    length, multiset of per-cycle exponent sums mod 3.

    The projective order is a multiple of lcm(lambda), so only lcm 1 or
    prime can give a prime.  element_order_and_signature reads a cycle only
    through its length and exponent sum, and reordering the cycles
    translates the signature, which _canonical_values absorbs; so one
    element (consecutive cycles, each sum on its cycle's first index)
    answers for every element with those cycle sums.
    """

    def elements():
        for cycle_type in partitions(n + 2):
            L = lcm(*cycle_type)
            if L != 1 and not is_prime(L):
                continue
            lengths = sorted(Counter(cycle_type).items())
            choices = (combinations_with_replacement(range(3), c) for _, c in lengths)
            for sums in product(*choices):
                perm, exps = [], []
                for (length, _), block in zip(lengths, sums):
                    for s in block:
                        start = len(perm)
                        perm += [*range(start + 1, start + length), start]
                        exps += [s] + [0] * (length - 1)
                yield FermatGroupElement(tuple(perm), tuple(exps))

    return _collect(elements())
