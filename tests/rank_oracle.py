"""Reference oracle for Jacobian-ring characters: weight-block ranks mod q.

The library reads the character of S/J(F) off the Koszul series.  This
module computes it the long way: the degree-d monomials of each weight,
minus the rank over F_q of the Jacobian ideal's degree-d slice in that
weight.  Rank cannot rise mod q, so the result is the character over Q
exactly when the ranks add up to complete_intersection_dim(n + 2, d), the
value for a smooth F; at a bad modulus the total falls short.
"""

from itertools import combinations_with_replacement

from cubiclass.forms import partials, weight_of


def rank_mod_q(rows: list, q: int) -> int:
    """Rank over F_q of sparse {col: coef} rows, each reduced in place by the
    monic pivots (keyed by leading column) and kept as a pivot if nonzero."""
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, q)
                pivots[lead] = {k: c * inv % q for k, c in row.items()}
                break
            f = row[lead]
            for k, c in pivot.items():
                v = (row.get(k, 0) - f * c) % q
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    return len(pivots)


def rank_character(F, sig, d: int, q: int):
    """(exponents, total rank) of the degree-d piece of S/J(F) over F_q.

    F must be an eigenvector of sig, of weight a.  Partial i then has weight
    a - sigma_i, so a degree d-2 monomial of weight w times it lands in the
    weight block (w + a - sigma_i) mod p, and each block is ranked alone.
    """
    a = weight_of(F, sig)
    assert a is not None, "form is not an eigenvector of the signature"
    p, vals, nv = sig.p, sig.values, F.n + 2
    space = {}  # weight -> {degree-d monomial: column}
    for mono in combinations_with_replacement(range(nv), d):
        block = space.setdefault(sum(vals[i] for i in mono) % p, {})
        block[mono] = len(block)
    rows = {w: [] for w in space}
    dparts = partials(F)
    lower = combinations_with_replacement(range(nv), d - 2) if d >= 2 else ()
    for mono in lower:
        mw = sum(vals[i] for i in mono)
        for i, dq in enumerate(dparts):
            w = (mw + a - vals[i]) % p
            if w not in space:
                continue
            row = {}
            for (x, y), c in dq.items():
                k = space[w][tuple(sorted(mono + (x, y)))]
                row[k] = (row.get(k, 0) + c) % q
            rows[w].append({k: c for k, c in row.items() if c})
    exps, total = [], 0
    for w, block in space.items():
        rank = rank_mod_q(rows[w], q)
        total += rank
        exps.extend([w] * (len(block) - rank))
    return tuple(sorted(exps)), total
