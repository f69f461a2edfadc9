"""Certified smoothness of cubic hypersurfaces via the Jacobian criterion.

The singular locus of V(F) is empty over the algebraic closure exactly when
the Jacobian ideal contains a pure power of every variable.  Pure powers
among leading monomials of ideal members certify that; their absence from
the full leading-term ideal refutes it.  A certificate at one good prime is
sound for smoothness over the rationals.
"""

import heapq
import random
from dataclasses import dataclass

from .admissibility import ensure_prime
from .forms import (
    CubicForm,
    coordinate_subspace_obstruction,
    eigenspace_basis,
    partials,
)
from .signatures import Signature

# Avoids 2 and 3 (degree-3 differentiation constants must stay units); the
# later entries guard against bad reduction of an individual form.
DEFAULT_MODULI = (10007, 30011, 65537, 104729)


def _sortkey(e):
    # degrevlex: compare total degree, then reversed exponents negated.
    return (sum(e), tuple(-x for x in reversed(e)))


class PolyModQ:
    """Sparse polynomial over F_q keyed by exponent vectors, degrevlex order."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms):
        ensure_prime(q)
        self.q = q
        self.terms = {}
        nvars = None
        for e, c in dict(terms).items():
            e = tuple(int(x) for x in e)
            if nvars is None:
                nvars = len(e)
            elif len(e) != nvars:
                raise ValueError("inconsistent exponent vector lengths")
            c = int(c) % q
            if c:
                self.terms[e] = c

    @property
    def nvars(self):
        return len(next(iter(self.terms))) if self.terms else 0

    def lm(self):
        return max(self.terms, key=_sortkey) if self.terms else None

    def lc(self):
        lm = self.lm()
        return self.terms[lm] if lm is not None else 0

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyModQ)
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "PolyModQ(0)"
        bits = []
        for e in sorted(self.terms, key=_sortkey, reverse=True):
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"{self.terms[e]}*{mono}" if mono else f"{self.terms[e]}")
        return f"PolyModQ({' + '.join(bits)} mod {self.q})"


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


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _normal_form(terms: dict, basis: list, q: int) -> dict:
    """Full remainder of terms modulo a list of monic (lm, terms) pairs."""
    work = dict(terms)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        _, _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        for lm, rterms in basis:
            if _divides(lm, e):
                break
        else:
            rem[e] = c
            del work[e]
            continue
        shift = tuple(a - b for a, b in zip(e, lm))
        del work[e]
        for me, mc in rterms.items():
            if me == lm:
                continue
            t = tuple(a + b for a, b in zip(me, shift))
            prev = work.get(t)
            if prev is None:
                nv = (-c * mc) % q
                if nv:
                    work[t] = nv
                    heapq.heappush(heap, (-sum(t), t[::-1], t))
            else:
                nv = (prev - c * mc) % q
                if nv:
                    work[t] = nv
                else:
                    del work[t]
    return rem


def _monic(terms: dict, q: int) -> dict:
    lm = max(terms, key=_sortkey)
    lc = terms[lm]
    if lc == 1:
        return terms
    inv = pow(lc, -1, q)
    return {e: c * inv % q for e, c in terms.items()}


def _spoly(lmf, f, lmg, g, q) -> dict:
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    sf = tuple(l - a for l, a in zip(lcm, lmf))
    sg = tuple(l - b for l, b in zip(lcm, lmg))
    out = {}
    for e, c in f.items():
        t = tuple(a + b for a, b in zip(e, sf))
        out[t] = (out.get(t, 0) + c) % q
    for e, c in g.items():
        t = tuple(a + b for a, b in zip(e, sg))
        out[t] = (out.get(t, 0) - c) % q
    return {e: c for e, c in out.items() if c}


def _pure_var(e):
    nz = [i for i, x in enumerate(e) if x]
    return nz[0] if len(nz) == 1 else None


def _buchberger(gens: list, q: int, max_deg=None, stop_at_pure: bool = False):
    """Buchberger with the coprime and chain criteria, normal selection.

    gens is a list of term dicts.  When max_deg is set (homogeneous inputs
    only), pairs above that lcm degree are discarded; the result determines
    the leading-term ideal up to max_deg.  With stop_at_pure the run ends
    as soon as every variable has a pure-power leading monomial, which is
    already a sound emptiness certificate.

    Returns (basis, pure) with basis a list of monic (lm, terms) pairs and
    pure the dict of minimal pure-power exponents found per variable.
    """
    basis = []
    pure = {}
    nvars = None
    pairheap = []
    pending = set()

    def note(lm):
        v = _pure_var(lm)
        if v is not None and (v not in pure or lm[v] < pure[v]):
            pure[v] = lm[v]

    def push(h):
        lm = max(h, key=_sortkey)
        idx = len(basis)
        basis.append((lm, _monic(h, q)))
        note(lm)
        for i in range(idx):
            lcm = tuple(max(a, b) for a, b in zip(basis[i][0], lm))
            heapq.heappush(pairheap, (_sortkey(lcm) + ((i, idx),)))
            pending.add((i, idx))
        return idx

    for g in gens:
        if not g:
            continue
        if nvars is None:
            nvars = len(next(iter(g)))
        h = _normal_form(g, basis, q)
        if h:
            push(h)

    while pairheap:
        if stop_at_pure and len(pure) == nvars:
            break
        key = heapq.heappop(pairheap)
        i, j = key[-1]
        pending.discard((i, j))
        if max_deg is not None and key[0] > max_deg:
            break
        lmi, fi = basis[i]
        lmj, fj = basis[j]
        if all(min(a, b) == 0 for a, b in zip(lmi, lmj)):
            continue
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(basis[k][0], lcm):
                continue
            a, b = min(i, k), max(i, k)
            c, d = min(j, k), max(j, k)
            if (a, b) not in pending and (c, d) not in pending:
                skip = True
                break
        if skip:
            continue
        h = _normal_form(_spoly(lmi, fi, lmj, fj, q), basis, q)
        if h:
            push(h)

    return basis, pure


def _interreduce(basis: list, q: int) -> list:
    """Minimal then fully tail-reduced basis; unique for the ideal and order."""
    kept = []
    for lm, terms in sorted(basis, key=lambda it: _sortkey(it[0])):
        if not any(_divides(k[0], lm) for k in kept):
            kept.append((lm, terms))
    out = []
    for idx, (lm, terms) in enumerate(kept):
        others = [kept[i] for i in range(len(kept)) if i != idx]
        tail = {e: c for e, c in terms.items() if e != lm}
        red = _normal_form(tail, others, q)
        red[lm] = 1
        out.append((lm, red))
    return out


def groebner_basis(gens: list) -> list:
    """Reduced degrevlex Groebner basis of PolyModQ over a common modulus."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    q = gens[0].q
    for g in gens:
        if g.q != q:
            raise ValueError("modulus mismatch among generators")
    nv = {g.nvars for g in gens}
    if len(nv) != 1:
        raise ValueError("generators must share a variable count")
    raw, _ = _buchberger([dict(g.terms) for g in gens], q)
    reduced = _interreduce(raw, q)
    return [PolyModQ(q, terms) for _, terms in reduced]


def _partials_mod_q(F: CubicForm, q: int) -> list:
    nv = F.n + 2
    out = []
    for dq in partials(F):
        terms = {}
        for (i, j), c in dq.items():
            e = [0] * nv
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = c % q
        out.append({e: c for e, c in terms.items() if c})
    return out


def is_smooth_mod_q(F: CubicForm, q: int):
    """Certificate that V(F) is smooth over the closure of F_q, or None.

    Decided through the leading-term ideal of the Jacobian ideal: a pure
    power of every variable certifies projective emptiness of the singular
    locus.  When the singular locus is empty the Jacobian ideal is an
    artinian complete intersection of n+2 quadrics, whose socle degree
    bounds every minimal pure power by n+3; the computation is therefore
    truncated there and its verdict is exact in both directions.
    """
    ensure_prime(q)
    if q in (2, 3):
        raise ValueError("modulus must avoid 2 and 3")
    gens = _partials_mod_q(F, q)
    if not any(gens):
        raise ValueError(f"form vanishes mod {q}")
    nv = F.n + 2
    basis, pure = _buchberger(gens, q, max_deg=F.n + 3, stop_at_pure=True)
    if len(pure) == nv:
        return SmoothnessCertificate(
            modulus=q,
            pure_powers=tuple(pure[i] for i in range(nv)),
            basis_size=len(basis),
        )
    return None


def certify_smooth_over_Q(F: CubicForm, q_list=DEFAULT_MODULI):
    """First modulus in q_list that certifies F smooth, or None.

    A smooth reduction at one good prime forces the generic fiber to be
    smooth, so any single certificate is conclusive; running through the
    list only guards against bad reduction.  Exhausting the list proves
    nothing about singularity.
    """
    if not q_list:
        raise ValueError("empty modulus list")
    for q in q_list:
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


def find_smooth_member(
    sig: Signature,
    a: int,
    trials: int = 20,
    seed: int = 0,
    moduli=DEFAULT_MODULI,
):
    """Search the weight-a eigenspace for a form certified smooth over Q.

    Tries the all-ones coefficient vector first, then seeded uniform
    coefficients in [1, 50].  Returns (coefficients, certificate) for the
    first certified member, or None after `trials` attempts.  Eigenspaces
    with a coordinate-subspace obstruction (the lemma filter included) have
    only singular members and are rejected without any trials; any other
    None is a presumption, not a proof, that no smooth member exists.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if coordinate_subspace_obstruction(sig, a) is not None:
        return None
    basis = eigenspace_basis(sig, a)
    if not basis.monomials:
        return None
    rng = random.Random(seed)
    for t in range(trials):
        if t == 0:
            coeffs = (1,) * len(basis.monomials)
        else:
            coeffs = tuple(rng.randint(1, 50) for _ in basis.monomials)
        F = CubicForm(sig.n, dict(zip(basis.monomials, coeffs)))
        cert = certify_smooth_over_Q(F, moduli)
        if cert is not None:
            return coeffs, cert
    return None
