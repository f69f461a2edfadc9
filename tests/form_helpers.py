"""Dimension counts, variable relabelling and multiplicative orders that
only the tests use."""

from itertools import combinations_with_replacement
from math import comb

from cubiclass.classify import normalizer_dim
from cubiclass.forms import CubicForm, eigenspace_basis


def s3_dimension(n: int) -> int:
    """Dimension of the space of cubic forms in n+2 variables: C(n+4, 3)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return comb(n + 4, 3)


def brute_order(a: int, p: int) -> int:
    """Least l >= 1 with a^l = 1 mod p, by repeated multiplication."""
    a %= p
    x, l = a, 1
    while x != 1:
        x = x * a % p
        l += 1
    return l


def family_dimension(sig, a: int) -> int:
    """dim of the weight-a eigenspace minus the normalizer dimension."""
    return len(eigenspace_basis(sig, a)) - normalizer_dim(sig)


def relabel(F: CubicForm, perm) -> CubicForm:
    """Variable substitution x_i -> x_perm[i]."""
    out = {}
    for m, c in F.terms.items():
        out[tuple(sorted(perm[i] for i in m))] = c
    return CubicForm(F.n, out)


def eigenspace_scan(sig, a: int) -> tuple:
    """The weight-a monomials by testing every index triple i <= j <= k."""
    p, vals = sig.p, sig.values
    return tuple(
        m
        for m in combinations_with_replacement(range(len(vals)), 3)
        if (vals[m[0]] + vals[m[1]] + vals[m[2]] - a) % p == 0
    )


def greedy_invertible_member(sig, a: int):
    """Invertible-member targets by search: each i takes its own cube when
    3*sigma_i = a, else the least index of value a - 2*sigma_i not yet
    taken, scanning all indices; None when some i finds none."""
    p, vals = sig.p, sig.values
    a %= p
    taken = set()
    out = []
    for i, v in enumerate(vals):
        if 3 * v % p == a:
            out.append((i, i, i))
            continue
        want = (a - 2 * v) % p
        j = next(
            (j for j, w in enumerate(vals) if w == want and j not in taken), None
        )
        if j is None:
            return None
        taken.add(j)
        out.append(tuple(sorted((i, i, j))))
    return tuple(out)
