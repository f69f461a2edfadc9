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
from .signatures import Signature

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
    """Exponent vectors as one int in w-bit fields, w = (2*nv + 2).bit_length():
    variable i in bits [w*i, w*i + w - 1), a clear guard bit w*i + w - 1,
    and the total degree above the last field, at bit top = w*nv.

    While every exponent stays below 2**(w - 1), a product or a shift is
    one + or -; lm | e exactly when e - lm sets no guard bit, since a field
    with e_i < lm_i borrows through its own guard; and e ^ varmax is the
    degrevlex key (degree, then complemented fields from the last
    variable).  lcm reads the degree of its result as field nv - 1 of
    v * ones, whose field k sums the fields 0..k of v; no field carries
    when that degree is below 2**w.  is_smooth_mod_q shows that its run
    keeps both bounds: monomials of degree at most nv + 1 < 2**(w - 1),
    and lcms of two of them, of degree at most 2*nv + 2 < 2**w.
    """

    def __init__(self, nv: int):
        w = (2 * nv + 2).bit_length()
        self.nv = nv
        self.w = w
        self.top = w * nv
        self.ones = sum(1 << (w * i) for i in range(nv))
        self.guard = self.ones << (w - 1)
        self.varmax = self.guard - self.ones
        self.key = self.varmax.__xor__

    def lcm(self, a, b) -> int:
        w = self.w
        ge = ((a | self.guard) - b) & self.guard  # guard set where a_i >= b_i
        take_a = ge - (ge >> (w - 1))
        v = (a & take_a) | (b & (self.varmax ^ take_a))
        return v + ((v * self.ones >> (self.top - w) & ((1 << w) - 1)) << self.top)

    def pure_var(self, m):
        d, v = m >> self.top, m & self.varmax
        i = (v.bit_length() - 1) // self.w
        return i if d and v == d << (self.w * i) else None


def _normal_form(terms: dict, basis: list, q: int, P: _Packed, memo: dict) -> dict:
    """Full remainder of terms modulo a list of (lm, tail) pairs, each the
    monic polynomial lm + tail; each term is reduced by the first basis
    element whose leading monomial divides it.

    Terms are taken in decreasing order and a reduction only adds smaller
    ones, so a popped term never returns; cancelled terms stay as zeros.
    Coefficients may come in and pile up unreduced: each is taken mod q
    when its term pops, so the remainder is that of the reduced input.

    memo maps a monomial to the index of the first element dividing it, or
    to ~k when none of the first k does.  _buchberger shares one memo among
    the calls of a run, as its basis only grows by appending: the first k
    elements never change, so an index stays the first divisor and ~k
    leaves only basis[k:] to scan.
    """
    guard, varmax = P.guard, P.varmax
    size = len(basis)
    work = dict(terms)
    heap = [-(e ^ varmax) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = -heapq.heappop(heap) ^ varmax
        c = work[e] % q
        if not c:
            continue
        k = memo.get(e, -1)
        if k < 0:
            for k in range(~k, size):
                if not (e - basis[k][0]) & guard:
                    break
            else:
                memo[e] = ~size
                rem[e] = c
                continue
            memo[e] = k
        lm, tail = basis[k]
        shift = e - lm
        for me, mc in tail.items():
            t = me + shift
            prev = work.get(t)
            if prev is None:
                work[t] = -c * mc
                heapq.heappush(heap, -(t ^ varmax))
            else:
                work[t] = prev - c * mc
    return rem


def _spoly(lcm, lmf, f, lmg, g) -> dict:
    """S-polynomial of monic lmf + f and lmg + g, given by their tails and
    the lcm of lmf and lmg; coefficients are left unreduced."""
    sf, sg = lcm - lmf, lcm - lmg
    out = {e + sf: c for e, c in f.items()}
    for e, c in g.items():
        t = e + sg
        out[t] = out.get(t, 0) - c
    return out


def complete_intersection_dim(nv: int, d: int) -> int:
    """dim of the degree-d slice of an ideal of nv quadrics in nv variables
    that form a regular sequence: C(nv - 1 + d, d) - C(nv, d), since the
    quotient has Hilbert series (1 + t)**nv.  Over any field this bounds
    the slice of every ideal generated by nv quadrics."""
    return comb(nv - 1 + d, d) - comb(nv, d)


def _buchberger(gens: list, q: int, P: _Packed):
    """Hilbert-driven Buchberger on a Jacobian ideal, with the coprime and
    chain criteria and normal selection.

    gens are nv quadrics in nv variables as term dicts over packed
    monomials.  As proven in is_smooth_mod_q, a pair whose degree the
    leading monomials already fill is dropped, a completed degree short of
    the bound ends the run, and so does a pure-power leading monomial for
    every variable.

    Three shortcuts leave the run as the plain loop does it: the same pairs
    reduced in the same order, each term by the same basis element.
    - Pairs pop in the order of (key, i, j), a total order, so when they
      are queued does not matter.  The generators' pairs are queued only
      once their pure-power check fails, so a run that every generator
      already certifies queues none.
    - No pair above degree nv + 1 is queued.  The plain loop never reduces
      one: is_smooth_mod_q shows that the first such pair to pop ends the
      run, and a run ended by the empty queue returns the same (basis,
      pure).  The chain criterion, for a popped pair of lcm L, asks only
      whether pairs whose lcm divides L are pending; those have degree at
      most that of L, so they are queued as before.
    - One memo of first divisors serves every _normal_form of the run, and
      S-polynomials are reduced mod q only as their terms pop (see
      _normal_form).

    Returns (basis, pure) with basis a list of (lm, tail) pairs as in
    _normal_form and pure the minimal pure-power exponent per variable.
    """
    basis = []
    pure = {}
    pairheap = []
    pending = set()
    memo = {}

    def add(h):
        lm = max(h, key=P.key)
        inv = pow(h[lm], -1, q)
        basis.append((lm, {e: c * inv % q for e, c in h.items() if e != lm}))
        v = P.pure_var(lm)
        if v is not None and (v not in pure or lm >> P.top < pure[v]):
            pure[v] = lm >> P.top

    def queue_pairs(j):
        lmj = basis[j][0]
        for i in range(j):
            key = P.key(P.lcm(basis[i][0], lmj))
            if key >> P.top <= P.nv + 1:
                heapq.heappush(pairheap, (key, i, j))
                pending.add((i, j))

    for g in gens:
        h = _normal_form(g, basis, q, P, memo)
        if h:
            add(h)
    if len(pure) == P.nv:
        return basis, pure
    for j in range(1, len(basis)):
        queue_pairs(j)
    # the degree-deg monomials some leading monomial divides
    deg, lead = 2, {lm for lm, _ in basis}
    steps = [(1 << P.w * i) + (1 << P.top) for i in range(P.nv)]

    while pairheap and len(pure) < P.nv:
        key, i, j = heapq.heappop(pairheap)
        pending.discard((i, j))
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
        for k in range(len(basis)):
            if k in (i, j) or (lcm - basis[k][0]) & P.guard:
                continue
            a, b = min(i, k), max(i, k)
            c, d = min(j, k), max(j, k)
            if (a, b) not in pending and (c, d) not in pending:
                break  # the chain criterion drops the pair
        else:
            h = _normal_form(_spoly(lcm, lmi, fi, lmj, fj), basis, q, P, memo)
            if h:
                add(h)
                queue_pairs(len(basis) - 1)
                lead.add(basis[-1][0])

    return basis, pure


def _partials_mod_q(F: CubicForm, q: int, P: _Packed) -> list:
    return [
        {(1 << P.w * i) + (1 << P.w * j) + (2 << P.top): c % q
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

    So the run reduces no pair above degree nv + 1, and _buchberger queues
    none.  The partials are homogeneous and so is every S-polynomial and
    remainder, so no monomial the run reduces or keeps exceeds degree
    nv + 1, and the lcm of two of its leading monomials has degree at most
    2*nv + 2.  _Packed's fields are w = (2*nv + 2).bit_length() bits wide:
    then nv + 1 < 2**(w - 1) and 2*nv + 2 < 2**w, all it needs.  Up to
    n = 4 a monomial fits in one 30-bit digit of a Python int.
    """
    ensure_prime(q)
    if q in (2, 3):
        raise ValueError("modulus must avoid 2 and 3")
    nv = F.n + 2
    P = _Packed(nv)
    gens = _partials_mod_q(F, q, P)
    if not any(gens):
        raise ValueError(f"form vanishes mod {q}")
    basis, pure = _buchberger(gens, q, P)
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
    forms.invertible_member and is certified from those alone.  It is
    missing exactly when forms.coordinate_subspace_obstruction finds an
    obstruction (the lemma filter included): every member is singular.
    Returns (monomials, certificate), or None when there is no invertible
    member.  A member that no default modulus certifies raises
    RuntimeError, a fault and not an input error: in fewer than 10006
    variables it contradicts the proof below.

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
        raise RuntimeError(f"{why} {sig.values} at weight {a}")
    return monomials, cert
