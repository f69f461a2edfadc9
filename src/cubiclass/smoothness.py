"""Certified smoothness of cubic hypersurfaces via the Jacobian criterion.

The singular locus of V(F) is empty over the algebraic closure exactly when
the Jacobian ideal contains a pure power of every variable.  Pure powers
among leading monomials of ideal members certify that; their absence from
the full leading-term ideal refutes it.  A certificate at one good prime is
sound for smoothness over the rationals.
"""

import heapq
from dataclasses import dataclass
from math import comb, gcd

from .admissibility import ensure_prime
from .forms import CubicForm, invertible_member, partials
from .signatures import IncompleteError, Signature

# Primes avoiding 2 and 3 (degree-3 differentiation constants must stay
# units); the later entries guard against bad reduction of a single form.
DEFAULT_MODULI = (10007, 30011, 65537, 104729)


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Good-reduction smoothness proof: per-variable pure-power leading terms."""

    modulus: int
    pure_powers: tuple
    basis_size: int

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "pure_powers": list(self.pure_powers),
            "basis_size": self.basis_size,
        }


@dataclass(frozen=True)
class SingularWitness:
    """A projective point at which every partial derivative vanishes."""

    point: tuple

    def annihilates(self, F: CubicForm) -> bool:
        pt = self.point
        return any(pt) and all(
            sum(c * pt[i] * pt[j] for (i, j), c in dq.items()) == 0
            for dq in partials(F)
        )

    def to_json(self) -> dict:
        return {"point": list(self.point)}


class _Packed:
    """Exponent vectors as one int: variable i in bits [16i, 16i + 15), a
    clear guard bit 16i + 15, and the total degree above the last field.

    Total degrees stay below 2**15, so products and shifts are one + or -,
    lm | e exactly when e - lm sets no guard bit, and e ^ varmax is the
    degrevlex key (degree, then complemented fields from the last variable).
    """

    CAP = 1 << 15

    def __init__(self, nv: int):
        self.nv = nv
        self.top = 16 * nv
        self.ones = sum(1 << (16 * i) for i in range(nv))
        self.guard = self.ones << 15
        self.varmax = self.guard - self.ones
        self.key = self.varmax.__xor__

    def pack(self, e) -> int:
        if any(x < 0 for x in e) or sum(e) >= self.CAP:
            raise ValueError(f"monomial {e} is outside the packed degree range")
        return sum(x << (16 * i) for i, x in enumerate(e)) + (sum(e) << self.top)

    def unpack(self, m) -> tuple:
        return tuple(m >> (16 * i) & 0x7FFF for i in range(self.nv))

    def lcm(self, a, b) -> int:
        ge = ((a | self.guard) - b) & self.guard  # guard set where a_i >= b_i
        take_a = ge - (ge >> 15)
        v = (a & take_a) | (b & (self.varmax ^ take_a))
        # field nv - 1 of v * ones sums every field: the degree, below 2**16
        return v + ((v * self.ones >> (self.top - 16) & 0xFFFF) << self.top)

    def pure_var(self, m):
        d, v = m >> self.top, m & self.varmax
        i = (v.bit_length() - 1) // 16
        return i if d and v == d << (16 * i) else None


def _normal_form(terms: dict, basis: list, q: int, P: _Packed) -> dict:
    """Full remainder of terms modulo a list of (lm, tail) pairs, each the
    monic polynomial lm + tail.

    Terms are taken in decreasing order and a reduction only adds smaller
    ones, so a popped term never returns; cancelled terms stay as zeros.
    """
    guard, varmax = P.guard, P.varmax
    work = dict(terms)
    heap = [-(e ^ varmax) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = -heapq.heappop(heap) ^ varmax
        c = work[e]
        if not c:
            continue
        for lm, tail in basis:
            shift = e - lm
            if not shift & guard:
                break
        else:
            rem[e] = c
            continue
        for me, mc in tail.items():
            t = me + shift
            prev = work.get(t)
            if prev is None:
                work[t] = -c * mc % q
                heapq.heappush(heap, -(t ^ varmax))
            else:
                work[t] = (prev - c * mc) % q
    return rem


def _spoly(lmf, f, lmg, g, q, P: _Packed) -> dict:
    """S-polynomial of monic lmf + f and lmg + g, given by their tails."""
    lcm = P.lcm(lmf, lmg)
    sf, sg = lcm - lmf, lcm - lmg
    out = {}
    for e, c in f.items():
        t = e + sf
        out[t] = (out.get(t, 0) + c) % q
    for e, c in g.items():
        t = e + sg
        out[t] = (out.get(t, 0) - c) % q
    return {e: c for e, c in out.items() if c}


def complete_intersection_dim(nv: int, d: int) -> int:
    """dim of the degree-d slice of an ideal of nv quadrics in nv variables
    that form a regular sequence: C(nv - 1 + d, d) - C(nv, d), since the
    quotient has Hilbert series (1 + t)**nv.  Over any field this bounds
    the slice of every ideal generated by nv quadrics."""
    return comb(nv - 1 + d, d) - comb(nv, d)


def _buchberger(gens: list, q: int, P: _Packed, jacobian=False):
    """Buchberger with the coprime and chain criteria, normal selection.

    gens is a list of term dicts over packed monomials.  With jacobian set,
    gens are nv quadrics in nv variables and the run is Hilbert-driven as
    proven in is_smooth_mod_q: a pair whose degree the leading monomials
    already fill is dropped, a completed degree short of the bound ends the
    run, and so does a pure-power leading monomial for every variable.

    Returns (basis, pure) with basis a list of (lm, tail) pairs as in
    _normal_form and pure the minimal pure-power exponent per variable.
    """
    basis = []
    pure = {}
    pairheap = []
    pending = set()

    def push(h):
        lm = max(h, key=P.key)
        idx = len(basis)
        inv = pow(h[lm], -1, q)
        basis.append((lm, {e: c * inv % q for e, c in h.items() if e != lm}))
        v = P.pure_var(lm)
        if v is not None and (v not in pure or lm >> P.top < pure[v]):
            pure[v] = lm >> P.top
        for i in range(idx):
            heapq.heappush(pairheap, (P.key(P.lcm(basis[i][0], lm)), i, idx))
            pending.add((i, idx))

    for g in gens:
        h = _normal_form(g, basis, q, P)
        if h:
            push(h)
    # with jacobian: the degree-deg monomials some leading monomial divides
    deg, lead = 2, {lm for lm, _ in basis}
    steps = [(1 << 16 * i) + (1 << P.top) for i in range(P.nv)]

    while pairheap:
        if jacobian and len(pure) == P.nv:
            break
        key, i, j = heapq.heappop(pairheap)
        pending.discard((i, j))
        if key >> P.top >= P.CAP:
            raise ValueError("Groebner basis leaves the packed degree range")
        if jacobian:
            while deg < key >> P.top:
                if len(lead) < complete_intersection_dim(P.nv, deg):
                    return basis, pure
                deg += 1
                lead = {m + s for m in lead for s in steps}
            if len(lead) == complete_intersection_dim(P.nv, deg):
                continue
        lmi, fi = basis[i]
        lmj, fj = basis[j]
        lcm = key ^ P.varmax
        if lcm == lmi + lmj:
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or (lcm - basis[k][0]) & P.guard:
                continue
            a, b = min(i, k), max(i, k)
            c, d = min(j, k), max(j, k)
            if (a, b) not in pending and (c, d) not in pending:
                skip = True
                break
        if skip:
            continue
        h = _normal_form(_spoly(lmi, fi, lmj, fj, q, P), basis, q, P)
        if h:
            push(h)
            lead.add(basis[-1][0])

    return basis, pure


def _partials_mod_q(F: CubicForm, q: int, P: _Packed) -> list:
    return [
        {(1 << 16 * i) + (1 << 16 * j) + (2 << P.top): c % q
         for (i, j), c in dq.items() if c % q}
        for dq in partials(F)
    ]


def is_smooth_mod_q(F: CubicForm, q: int):
    """Certificate that V(F) is smooth over the closure of F_q, or None.

    Decided through the leading-term ideal of the Jacobian ideal J: a pure
    power of every variable certifies projective emptiness of the singular
    locus (q avoids 3, so by Euler's formula V(J) is that locus).

    The Groebner run is Hilbert-driven (Traverso, J. Symbolic Comput. 22,
    1996).  Let nv = n + 2 and h(d) = complete_intersection_dim(nv, d).
    Over any field dim J_d <= h(d): the Macaulay map's rank is lower
    semicontinuous in the coefficients, so it never exceeds its generic
    value h(d), which (x_i**2) attains.  The degree-d monomials L_d that
    some basis leading monomial divides lie in in(J)_d, so once |L_d| =
    h(d) they are all of it and every degree-d S-polynomial reduces to
    zero; such pairs are dropped unreduced, leaving the basis and the
    certificate as a full run gives them.  Pairs come in degree order, so
    when the first pair of degree d pops the basis is a truncated Groebner
    basis below d.  A completed degree with |L_d| < h(d) means the
    partials are no regular sequence, J is not artinian, and F is
    singular.  As h(d) counts every monomial for d >= nv + 1, a smooth F
    has all its pure powers by degree nv + 1 and a singular one stops at
    the first pair above it: the verdict is exact in both directions.
    """
    ensure_prime(q)
    if q in (2, 3):
        raise ValueError("modulus must avoid 2 and 3")
    nv = F.n + 2
    P = _Packed(nv)
    gens = _partials_mod_q(F, q, P)
    if not any(gens):
        raise ValueError(f"form vanishes mod {q}")
    basis, pure = _buchberger(gens, q, P, jacobian=True)
    if len(pure) == nv:
        return SmoothnessCertificate(
            modulus=q,
            pure_powers=tuple(pure[i] for i in range(nv)),
            basis_size=len(basis),
        )
    return None


def certify_smooth_over_Q(F: CubicForm):
    """First modulus of DEFAULT_MODULI that certifies F smooth, or None.

    A smooth reduction at one good prime forces the generic fiber to be
    smooth.  F is first divided by the gcd g of its coefficients, V(F/g) =
    V(F), so no modulus divides them all and the later moduli only step past
    bad reduction.  None proves nothing about singularity.
    """
    g = gcd(*F.terms.values())
    if g > 1:
        F = CubicForm(F.n, {m: c // g for m, c in F.terms.items()})
    for q in DEFAULT_MODULI:
        cert = is_smooth_mod_q(F, q)
        if cert is not None:
            return cert
    return None


def singular_point_from_lemma_base(F: CubicForm):
    """Coordinate-point singularity when some variable has degree < 2 in F."""
    nv = F.n + 2
    for i in range(nv):
        if F.degree_in(i) < 2:
            point = tuple(1 if j == i else 0 for j in range(nv))
            return SingularWitness(point)
    return None


def find_smooth_member(sig: Signature, a: int):
    """The invertible member of the weight-a eigenspace, certified smooth
    over Q, or None.

    The member has coefficient 1 on the n + 2 monomials of
    forms.invertible_member and is certified from those alone.  An
    eigenspace without one is exactly one with a coordinate-subspace
    obstruction (the lemma filter included): it has only singular members.
    Returns (monomials, certificate), or None when there is no invertible
    member; raises IncompleteError if no default modulus certifies it.

    The member is a disjoint sum of Fermat cubes, chains
    x_0^2 x_1 + ... + x_{m-1}^2 x_m + x_m^3 and loops
    x_0^2 x_1 + ... + x_{k-1}^2 x_0, so mod a prime q > 3 it is singular
    exactly when one block is.  A cube or chain never is: once
    x_0 = ... = x_{i-1} = 0, the partial in x_i reads 2 x_i x_{i+1} = 0,
    and x_{i+1} = 0 would leave x_i^2 = 0 in the next partial, so x_i = 0;
    the last partial then reads 3 x_m^2 = 0.  At a singular point of a loop
    no coordinate is 0, as x_i = 0 forces x_{i-1} = 0 around the loop, and
    the product of the k equations x_{i-1}^2 = -2 x_i x_{i+1} gives
    (-2)^k = 1 mod q.  The order of -2 mod DEFAULT_MODULI[0] = 10007 is
    10006, so that modulus certifies every invertible member in fewer than
    10006 variables; the later moduli guard only beyond that.
    """
    monomials = invertible_member(sig, a)
    if monomials is None:
        return None
    # sorted: the eigenspace basis order, which fixes the Groebner run
    F = CubicForm(sig.n, dict.fromkeys(sorted(monomials), 1))
    cert = certify_smooth_over_Q(F)
    if cert is None:
        why = f"no witness certified at moduli {list(DEFAULT_MODULI)} for family"
        raise IncompleteError(f"{why} {sig.values} at weight {a}")
    return monomials, cert
