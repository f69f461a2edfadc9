"""Characters on Jacobian-ring graded pieces and the Klein tangent spectra.

A diagonal automorphism fixing F acts on each graded piece of S/J(F); the
character is the weight multiset of the degree-d monomials minus the
weights absorbed by the degree-d slice of the Jacobian ideal.  For the
Klein three- and five-folds the degree-1 and degree-2 pieces carry the
action on the tangent space of the intermediate jacobian.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd

from .admissibility import ensure_prime
from .forms import CubicForm, klein, klein_signature, partials, weight_of
from .signatures import Signature
from .smoothness import (
    DEFAULT_MODULI,
    certify_smooth_over_Q,
    complete_intersection_dim,
)

# Distinct exponents of the induced automorphism on the 21-dimensional
# tangent space of the Klein fivefold's intermediate jacobian, mod 43: the
# published fixture that klein_tangent_spectrum(5) is checked against.
KLEIN5_TANGENT_EXPONENTS = frozenset(
    (2, 3, 5, 8, 9, 12, 13, 14, 15, 17, 19, 20, 22, 25, 27, 32, 33, 36, 37, 39, 42)
)


class BadReductionError(RuntimeError):
    """Rank pattern inconsistent with a good reduction; retry another modulus."""


@dataclass(frozen=True)
class SpectrumSet:
    """Multiset of exponents mod p (repeats allowed)."""

    p: int
    exponents: tuple

    def __len__(self):
        return len(self.exponents)

    def distinct(self) -> frozenset:
        return frozenset(self.exponents)

    def to_json(self) -> dict:
        return {"p": self.p, "exponents": list(self.exponents)}


def _rank_mod_q(rows: list, q: int) -> int:
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


def jacobian_ring_character(
    F: CubicForm, sig: Signature, d: int, q: int = DEFAULT_MODULI[0]
) -> SpectrumSet:
    """Weight multiset of the degree-d piece of S/J(F).

    Requires F invariant (weight 0) under sig and certified smooth.  The
    degree-d piece of the Jacobian ideal is spanned by (degree d-2
    monomials) x (partials); each partial is a pure eigenvector of weight
    -sigma_i, so ranks are taken weight by weight over F_q.  The ranks must
    add up to complete_intersection_dim(n + 2, d), the value for a smooth F.
    When they fall short, ValueError is raised if F cannot be certified
    smooth (the precondition fails at every modulus), and BadReductionError
    otherwise (retry another modulus).
    """
    ensure_prime(q)
    if d < 0:
        raise ValueError("degree must be >= 0")
    w = weight_of(F, sig)
    if w is None:
        raise ValueError("form is not an eigenvector of the given signature")
    if w != 0:
        raise ValueError(f"form has weight {w}, expected an invariant form")
    p = sig.p
    nv = F.n + 2
    vals = sig.values

    space = {}  # weight -> list of degree-d monomial index tuples
    for mono in combinations_with_replacement(range(nv), d):
        space.setdefault(sum(vals[i] for i in mono) % p, []).append(mono)

    if d < 2:
        exps = sorted(w for w, monos in space.items() for _ in monos)
        return SpectrumSet(p, tuple(exps))

    cols = {
        w: {m: k for k, m in enumerate(monos)} for w, monos in space.items()
    }
    dparts = partials(F)
    rows = {w: [] for w in space}
    for mono in combinations_with_replacement(range(nv), d - 2):
        mw = sum(vals[i] for i in mono)
        for i, dq in enumerate(dparts):
            w = (mw - vals[i]) % p
            col = cols.get(w)
            if col is None:
                continue
            row = {}
            for (a, b), c in dq.items():
                k = col[tuple(sorted(mono + (a, b)))]
                row[k] = (row.get(k, 0) + c) % q
            rows[w].append({k: c for k, c in row.items() if c})

    exps = []
    total_rank = 0
    for w, monos in space.items():
        rank = _rank_mod_q(rows[w], q)
        total_rank += rank
        exps.extend([w] * (len(monos) - rank))
    full = complete_intersection_dim(nv, d)
    if total_rank != full:
        msg = f"degree-{d} Jacobian slice has rank {total_rank} != {full} mod {q}"
        if certify_smooth_over_Q(F) is None:
            raise ValueError(f"form is not certified smooth: {msg}")
        raise BadReductionError(msg)
    return SpectrumSet(p, tuple(sorted(exps)))


def is_stable_under(S: SpectrumSet, m: int) -> bool:
    """Is the exponent multiset fixed by e -> m*e mod p?"""
    if gcd(m, S.p) != 1:
        raise ValueError("multiplier must be coprime to p")
    scaled = sorted(m * e % S.p for e in S.exponents)
    return tuple(scaled) == tuple(sorted(S.exponents))


def klein_tangent_spectrum(n: int) -> SpectrumSet:
    """Exponents of the Klein automorphism g on the tangent space of the
    intermediate jacobian J(X) of the Klein n-fold X, n in {3, 5}, with g
    acting on J(X) by push-forward.

    Let g* x_i = zeta^sigma_i x_i, so a monomial of weight w spans the
    zeta^w eigenline of g*.  Take d = (n - 1)/2.  By Griffiths' residue
    theorem (Ann. Math. 90, 1969), A -> Res(A Omega / F^(d+1)) maps (S/J)_d
    onto H^((n+1)/2, (n-1)/2)(X), and g* multiplies Omega by
    zeta^(sum sigma).  The Klein signature has sigma_i = (-2)^i, so
    sum sigma = ((-2)^(n+2) - 1)/(-3) = 0 mod p, because p divides
    (-2)^(n+2) - 1 and p != 3.  So g* acts on H^((n+1)/2, (n-1)/2) with the
    raw weights of (S/J)_d.  The tangent space of J(X) is the complex
    conjugate H^((n-1)/2, (n+1)/2), on which g* has the negated weights, so
    g_* = (g*)^-1 has the raw weights again.

    The character is computed at one modulus; no other modulus can give
    another answer.  At d < 2 it is the monomial weights alone.  At d >= 2,
    jacobian_ring_character checks that the total rank mod q equals
    complete_intersection_dim, the rank over Q for a smooth F.  Rank cannot
    rise mod q, so every weight block keeps its rank over Q, and the
    character is the one over Q.
    """
    if n not in (3, 5):
        raise ValueError("supported dimensions are 3 and 5")
    F = klein(n)
    p, sig = klein_signature(n)
    if certify_smooth_over_Q(F) is None:
        raise BadReductionError("could not certify the Klein form smooth")
    return jacobian_ring_character(F, sig, (n - 1) // 2)
