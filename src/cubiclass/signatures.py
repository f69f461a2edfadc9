"""Signature vectors mod p and the affine-permutation group acting on them.

A signature is a vector of n+2 residues mod p recording the exponents of a
diagonalized order-p automorphism.  Two signatures describe conjugate cyclic
subgroups exactly when one is a*pi(sigma) + b*1 of the other, so orbits of
that group action are the classification unit everywhere downstream.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

from .admissibility import (
    _check_dimension,
    _check_weight,
    ensure_prime,
    minus_two_order,
)


class Signature:
    """Length n+2 vector of residues mod p; entries must be ints and are
    reduced on construction."""

    __slots__ = ("p", "values")

    def __init__(self, p: int, values):
        ensure_prime(p)
        vals = tuple(values)
        if any(type(v) is not int for v in vals):
            raise ValueError(f"signature values must be integers: {vals!r}")
        vals = tuple(v % p for v in vals)
        if len(vals) < 4:
            raise ValueError("a signature needs at least 4 entries (n >= 2)")
        self.p = p
        self.values = vals

    @property
    def n(self) -> int:
        return len(self.values) - 2

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.p == other.p
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.p, self.values))

    def __repr__(self):
        return f"Signature(p={self.p}, values={self.values})"


class AffinePermAction:
    """A group element sigma -> a*pi(sigma) + b*1 with a != 0 mod p."""

    __slots__ = ("p", "a", "b", "perm")

    def __init__(self, p: int, a: int, b: int, perm):
        ensure_prime(p)
        perm = tuple(perm)
        if any(type(x) is not int for x in (a, b, *perm)):
            raise ValueError(f"a, b and perm must be integers: {a!r}, {b!r}, {perm!r}")
        self.p = p
        self.a = a % p
        self.b = b % p
        self.perm = perm
        if self.a == 0:
            raise ValueError("scaling part must be nonzero mod p")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")

    def __repr__(self):
        return f"AffinePermAction(p={self.p}, a={self.a}, b={self.b}, perm={self.perm})"


def act(sig: Signature, g: AffinePermAction) -> Signature:
    """Apply g: entry pi(j) of the result is a*sigma_j + b."""
    if g.p != sig.p:
        raise ValueError(f"modulus mismatch: signature mod {sig.p}, action mod {g.p}")
    if len(g.perm) != len(sig.values):
        raise ValueError("permutation length does not match signature length")
    p = sig.p
    out = [0] * len(sig.values)
    for j, v in enumerate(sig.values):
        out[g.perm[j]] = (g.a * v + g.b) % p
    return Signature(p, out)


def _lead_blocks(p: int, vals, translate: bool = True):
    """Sorted orbit members a*(sigma - u) that could be lex-least.

    Let c be the lex-least sorted member of the orbit of sigma (under
    a*pi(sigma) + b*1, or under scalings alone when translate is False).
    c opens with a block of m zeros, m the top multiplicity of any value:
    translating a more frequent value to 0 would give a smaller vector.
    Scalings fix 0, so without translation the block is the zeros of
    sigma.  If a nonzero value remains, c continues with a block of k ones,
    k the top multiplicity among the other values: scaling by the inverse
    of one of them would give a smaller vector.  So c = sort(a*(sigma - u))
    for a value u of top multiplicity (u = 0 without translation) and
    a = (v - u)^-1 for a value v != u of top multiplicity among the rest:
    at most (n+2)(n+1) candidates, whatever p is.  The set of candidates
    is the same for every member of the orbit.  vals must be residues mod
    p, as Signature values and both walks' multisets are.
    """
    counts = Counter(vals)
    if translate:
        top = max(counts.values())
        leads = [u for u, c in counts.items() if c == top]
    else:
        leads = [0]
    for u in leads:
        rest = {v: c for v, c in counts.items() if v != u}
        if not rest:
            yield (0,) * len(vals)
            continue
        k = max(rest.values())
        for v, c in rest.items():
            if c == k:
                a = pow(v - u, -1, p)
                yield tuple(sorted(a * (s - u) % p for s in vals))


def _canonical_values(p: int, vals) -> tuple:
    """Lex-least sorted vector over the a*sigma + b sweep."""
    return min(_lead_blocks(p, vals))


def canonicalize(sig: Signature) -> Signature:
    """Canonical orbit representative.

    The representative is the lexicographically least vector among
    sort(a*sigma + b*1) over all a in [1,p) and b in [0,p); sorting absorbs
    the permutation part.  Only the lead-block members of _lead_blocks are
    compared, so the cost is O((n+2)^2) sorts, independent of p.  Published
    family signatures need not coincide with this choice, so comparisons
    against external data go through equivalent() rather than tuple
    equality.
    """
    return Signature(sig.p, _canonical_values(sig.p, sig.values))


def equivalent(sig1: Signature, sig2: Signature) -> bool:
    """True iff the two signatures lie in the same orbit."""
    if sig1.p != sig2.p:
        raise ValueError("modulus mismatch")
    if len(sig1.values) != len(sig2.values):
        raise ValueError("length mismatch")
    return _canonical_values(sig1.p, sig1.values) == _canonical_values(
        sig2.p, sig2.values
    )


def scaling_canonical(sig: Signature) -> Signature:
    """Lex-least sorted vector over scalings only (no translation).

    Unlike canonicalize this preserves which eigenspace carries weight 0,
    so it is the normal form used for classified family records.  It is the
    least lead-block member with u = 0: O(n+2) sorts, independent of p.
    """
    return Signature(sig.p, min(_lead_blocks(sig.p, sig.values, False)))


def family_key(sig: Signature, a: int) -> tuple:
    """Lex-least (weight, sorted sigma) over the orbit of the pair (sigma, a).

    A form of eigenweight a under sigma has weight l*a + 3b under
    l*pi(sigma) + b*1 (replace the generator by its l-th power, then scale
    it), so the group acts on pairs by
    (sigma, a) -> (l*pi(sigma) + b, l*a + 3b), and two pairs describe one
    family exactly when they share an orbit.
    When 3 is a unit mod p, b = -l*a/3 brings every weight to 0, and the
    elements that keep weight 0 are those with 3b = 0, the scalings; so the
    key is (0, scaling_canonical(sigma + b)) for b = -a/3 mod p.  When p = 3,
    3b = 0 for every b.  Weight 0 is then kept by the whole group, so the
    key is (0, the canonical class values).  For a != 0 only l = a^-1 = a
    reaches weight 1, and the elements that keep it are the translations,
    so the key is (1, min over b of sort(a*sigma + b)).  This is the one
    place that knows 3 need not be a unit mod p.
    """
    p = sig.p
    a = _check_weight(a) % p
    if p != 3:
        b = -a * pow(3, -1, p) % p
        return 0, scaling_canonical(Signature(p, [v + b for v in sig.values])).values
    if a == 0:
        return 0, _canonical_values(p, sig.values)
    return 1, min(
        tuple(sorted((a * v + b) % p for v in sig.values)) for b in range(p)
    )


def _lead_shaped_multisets(p: int, slots: int):
    """Sorted nonzero multisets 0^m 1^k + rest with rest drawn from [2, p)
    and every multiplicity in rest at most k <= m.

    The canonical vector of every nonzero orbit has this shape (see
    _lead_blocks), and each such multiset is a lead-block member of its
    own orbit.  A rest of r > k*(p - 2) values cannot exist, as each of the
    p - 2 values comes at most k times, so that (m, k) is skipped unbuilt.
    """
    for m in range(1, slots):
        for k in range(1, min(m, slots - m) + 1):
            r = slots - m - k
            if r > k * (p - 2):
                continue
            head = (0,) * m + (1,) * k
            if k == 1:
                rests = combinations(range(2, p), r)
            else:
                rests = (
                    c
                    for c in combinations_with_replacement(range(2, p), r)
                    if all(a != b for a, b in zip(c, c[k:]))
                )
            for rest in rests:
                yield head + rest


def orbit_count(p: int, n: int) -> int:
    """Number of nonzero signature classes, len(enumerate_orbits(p, n)).

    Burnside's lemma (Harary and Palmer, Graphical Enumeration, 1973): with
    the constant class, the classes are the orbits of the p(p-1) maps
    x -> a*x + b on N-multisets of Z/p, N = n+2, so their number is the
    mean count of multisets a map fixes, those constant on its cycles.  The
    identity fixes C(p+N-1, N); a translation, one p-cycle, fixes one when
    p | N.  Each of the p maps of a unit a != 1 of order d has one fixed
    point and c = (p-1)/d d-cycles, so it fixes f(d) = sum_(j <= N/d)
    C(j+c-1, c-1) = C(N//d + c, c) multisets: j*d slots on the cycles, the
    rest on the fixed point.  f(d) = 1 when d > N, and the phi(d) units of
    order d, d | p-1, number p-1 in all, so the a != 1 add p*(p-2) and
    p*phi(d)*(f(d) - 1) per divisor 1 < d <= N of p-1: p-1 is never
    factored, and phi(d) is read off d.
    """
    ensure_prime(p)
    N = _check_dimension(n) + 2
    total = comb(p + N - 1, N) + (p - 1) * (N % p == 0) + p * (p - 2)
    for d in range(2, min(N, p - 1) + 1):
        if (p - 1) % d == 0:
            phi = sum(gcd(k, d) == 1 for k in range(d))
            total += p * phi * (comb(N // d + (p - 1) // d, N // d) - 1)
    return total // (p * (p - 1)) - 1


def _chain_multisets(p: int, n: int):
    """Multisets whose nonzero values form a union of mult-by-(-2) orbits.

    Smooth invariant forms force every nonzero signature value v to come
    with -2v, so the nonzero value set must be a union of cosets of <-2>;
    up to scaling the coset of 1 can be assumed present.  Remaining slots
    are filled from {0} and the chosen values with arbitrary multiplicity.
    Each coset has ell = ord(-2) values, so none fits when ell > n + 2, and
    a second one only when 2*ell <= n + 2: only then is F_p^* walked for
    the other cosets, and otherwise the ell powers of -2 suffice.  The
    cosets are disjoint and k < slots // ell, so a union of k + 1 of them
    has (k + 1)*ell <= slots values and always fits.
    """
    slots = n + 2
    ell = minus_two_order(p, n)
    if ell is None:
        return

    def coset(v):
        return frozenset(v * pow(-2, i, p) % p for i in range(ell))

    base = coset(1)
    others = []
    if 2 * ell <= slots:
        seen = set(base)
        for v in range(1, p):
            if v not in seen:
                others.append(coset(v))
                seen |= others[-1]
    for k in range(slots // ell):
        for combo in combinations(others, k):
            union = set(base)
            for c in combo:
                union |= c
            fillers = sorted(union | {0})
            fixed = sorted(union)
            for fill in combinations_with_replacement(fillers, slots - len(union)):
                yield tuple(sorted(fixed + list(fill)))


def _chain_multiset_count(p: int, n: int) -> int:
    """len(list(_chain_multisets(p, n))) in N // ell binomials, N = n + 2.

    The walk joins the coset of 1 and j < N // ell of the (p - 1)/ell - 1
    others, and fills the N - (j + 1)*ell slots left from their
    (j + 1)*ell values and 0: C(N, N - (j + 1)*ell) ways.
    """
    N = n + 2
    ell = minus_two_order(p, n)
    if ell is None:
        return 0
    others = (p - 1) // ell - 1
    return sum(comb(others, j) * comb(N, N - (j + 1) * ell) for j in range(N // ell))


# The most candidates an orbit walk may visit before it is refused.
DEFAULT_BUDGET = 10**8


def check_walk(p: int, n: int, strategy: str, budget: int = DEFAULT_BUDGET):
    """Raise ValueError when the strategy's orbit walk at (p, n) is over the
    budget, or the strategy is unknown or chain_pruned at p <= 3.  The
    work is closed-form, so nothing is walked: exhaustive makes one
    _lead_blocks call per class, orbit_count times (n+2)(n+1) lead-block
    candidates; chain_pruned canonicalizes the least scalings of the
    chain multisets, _chain_multiset_count times n+2 scaling candidates.
    An over-budget walk is input out of range (chain_pruned first at
    p = 43, n = 22).
    """
    ensure_prime(p)
    _check_dimension(n)
    if strategy == "exhaustive":
        work, kind = orbit_count(p, n) * (n + 2) * (n + 1), "lead-block"
        hint = "use the chain_pruned strategy" if p > 3 else "no pruning at p <= 3"
    elif strategy == "chain_pruned":
        if p <= 3:
            raise ValueError("chain_pruned requires p > 3")
        work, kind = _chain_multiset_count(p, n) * (n + 2), "scaling"
        hint = "no strategy prunes further"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if work > budget:
        raise ValueError(
            f"p={p}, n={n}: {work} {kind} candidates exceed budget {budget}; {hint}"
        )


def enumerate_orbits(
    p: int, n: int, strategy: str = "exhaustive", budget: int = DEFAULT_BUDGET
) -> list[Signature]:
    """Canonical representatives of all nonzero signature classes, sorted.

    exhaustive walks _lead_shaped_multisets, which hold the canonical vector
    of every orbit, each a lead-block member of its own orbit: handled, the
    lead-block members of the orbits seen, makes one _lead_blocks call per
    class.  chain_pruned, for p > 3, emits exactly the classes satisfying
    the closed-value-set necessary condition, a superset of the classes
    carrying a smooth invariant form.  It canonicalizes only the distinct
    least scalings of the chain multisets, as a scaling keeps the class.
    check_walk refuses a walk over the budget before it starts; an
    exhaustive one that emits other than orbit_count classes is a fault and
    raises RuntimeError.  budget stays the fourth positional parameter for
    library callers that need a larger walk.  No walk yields a constant
    vector (a lead-shaped multiset holds 0 and 1, a chain multiset the
    ell >= 2 values of the coset of 1), so no class is zero.
    """
    check_walk(p, n, strategy, budget)
    if strategy == "exhaustive":
        count = orbit_count(p, n)
        handled, classes = set(), []
        for vals in _lead_shaped_multisets(p, n + 2):
            if vals not in handled:
                orbit = set(_lead_blocks(p, vals))
                handled |= orbit
                classes.append(min(orbit))
        if len(classes) != count:
            raise RuntimeError(f"walk emitted {len(classes)} classes, not {count}")
    else:
        scaled = {min(_lead_blocks(p, v, False)) for v in _chain_multisets(p, n)}
        classes = {_canonical_values(p, v) for v in scaled}
    return [Signature(p, v) for v in sorted(classes)]
