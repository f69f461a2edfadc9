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
# tangent space of the Klein fivefold's intermediate jacobian, mod 43.
KLEIN5_TANGENT_EXPONENTS = frozenset(
    (2, 3, 5, 8, 9, 12, 13, 14, 15, 17, 19, 20, 22, 25, 27, 32, 33, 36, 37, 39, 42)
)


class BadReductionError(RuntimeError):
    """Rank pattern inconsistent with a good reduction; retry another modulus."""


@dataclass(frozen=True)
class SpectrumSet:
    """Multiset of exponents mod p (repeats allowed), optionally tagged with
    which sign convention matched the published fixture."""

    p: int
    exponents: tuple
    matched_convention: str | None = None

    def __len__(self):
        return len(self.exponents)

    def distinct(self) -> frozenset:
        return frozenset(self.exponents)

    def negated(self) -> "SpectrumSet":
        return SpectrumSet(
            self.p,
            tuple(sorted((-e) % self.p for e in self.exponents)),
            self.matched_convention,
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "exponents": list(self.exponents),
            "matched_convention": self.matched_convention,
        }


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
    """Exponent set of the induced action on the intermediate-jacobian
    tangent space of the Klein n-fold, n in {3, 5}.

    Computed as the Jacobian-ring character in degree 1 (n = 3) or 2
    (n = 5) at one modulus; no other modulus can give another answer.  At
    d < 2 the character is the monomial weights alone.  At d >= 2,
    jacobian_ring_character checks that the total rank mod q equals
    complete_intersection_dim, the rank over Q for a smooth F.  Rank cannot
    rise mod q, so every weight block keeps its rank over Q, and the
    character is the one over Q.  Whether the raw set or its negation is the
    tangent-space convention is settled against the stored fivefold fixture
    and recorded; with no fixture the raw set is returned untagged.
    """
    if n not in (3, 5):
        raise ValueError("supported dimensions are 3 and 5")
    d = 1 if n == 3 else 2
    F = klein(n)
    p, sig = klein_signature(n)
    if certify_smooth_over_Q(F) is None:
        raise BadReductionError("could not certify the Klein form smooth")
    chi = jacobian_ring_character(F, sig, d)
    if n == 3:
        return chi
    raw = chi.distinct()
    neg = frozenset((-e) % p for e in raw)
    if len(chi) == len(raw) and raw == KLEIN5_TANGENT_EXPONENTS:
        return SpectrumSet(p, chi.exponents, "raw")
    if len(chi) == len(raw) and neg == KLEIN5_TANGENT_EXPONENTS:
        return SpectrumSet(
            p, tuple(sorted((-e) % p for e in chi.exponents)), "negated"
        )
    return SpectrumSet(p, chi.exponents, None)
