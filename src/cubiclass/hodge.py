"""Characters on Jacobian-ring graded pieces and the Klein tangent spectra.

A diagonal automorphism scaling F by zeta^a acts on each graded piece of
S/J(F).  When F is smooth its partials are a regular sequence of
eigenvectors of weights a - sigma_i, so the Koszul complex resolves S/J(F)
equivariantly and the character is read off the series
prod(1 - t^2 zeta^(a - sigma_i)) / prod(1 - t zeta^sigma_i), whichever
smooth F is taken.  For the Klein three- and five-folds the degree-1 and
degree-2 pieces carry the action on the tangent space of the intermediate
jacobian.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .forms import CubicForm, klein, klein_signature, weight_of
from .signatures import Signature
from .smoothness import certify_smooth_over_Q

# Distinct exponents of the induced automorphism on the 21-dimensional
# tangent space of the Klein fivefold's intermediate jacobian, mod 43: the
# published fixture that klein_tangent_spectrum(5) is checked against.
KLEIN5_TANGENT_EXPONENTS = frozenset(
    (2, 3, 5, 8, 9, 12, 13, 14, 15, 17, 19, 20, 22, 25, 27, 32, 33, 36, 37, 39, 42)
)


@dataclass(frozen=True)
class SpectrumSet:
    """Multiset of exponents mod p (repeats allowed)."""

    p: int
    exponents: tuple

    def __len__(self):
        return len(self.exponents)

    def to_json(self) -> dict:
        return {"p": self.p, "exponents": list(self.exponents)}


def jacobian_ring_character(F: CubicForm, sig: Signature, d: int) -> SpectrumSet:
    """Weight multiset of the degree-d piece of S/J(F).

    Requires F an eigenvector of sig, of some weight a, and certified smooth
    over Q.  The partials are then a regular sequence of quadrics of weights
    a - sigma_i, and the equivariant Koszul complex makes the character the
    t^d coefficient of prod(1 - t^2 z^(a - sigma_i)) / prod(1 - t z^sigma_i).
    That coefficient is built degree by degree: series[k] maps each weight to
    its signed count in degree k, first divided by every (1 - t z^sigma_i),
    then multiplied by every (1 - t^2 z^(a - sigma_i)).
    """
    if type(d) is not int or d < 0:
        raise ValueError(f"degree must be an integer >= 0, got {d!r}")
    a = weight_of(F, sig)
    if a is None:
        raise ValueError("form is not an eigenvector of the given signature")
    if certify_smooth_over_Q(F) is None:
        raise ValueError("form is not certified smooth over Q")
    p = sig.p
    series = [Counter({0: 1})] + [Counter() for _ in range(d)]
    for s in sig.values:
        for k in range(1, d + 1):
            for w, c in series[k - 1].items():
                series[k][(w + s) % p] += c
    for s in sig.values:
        for k in range(d, 1, -1):
            for w, c in series[k - 2].items():
                series[k][(w + a - s) % p] -= c
    return SpectrumSet(p, tuple(sorted(series[d].elements())))


def is_stable_under(S: SpectrumSet, m: int) -> bool:
    """Is the exponent multiset fixed by e -> m*e mod p, m an int coprime to p?"""
    if type(m) is not int:
        raise ValueError(f"multiplier must be an integer, got {m!r}")
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

    jacobian_ring_character certifies the Klein form smooth over Q and reads
    the character off the Koszul series, which holds for every smooth
    invariant form, so no modulus enters the answer.

    Only n = 3, 5: by Griffiths H^(n-q,q)_prim = (S/J)_(3q+1-n), and for odd
    n >= 7, q = (n-3)/2 gives (S/J)_((n-7)/2) != 0 (h^(5,2) = 1 at n = 7), so
    J(X) is not a ppav and (S/J)_((n-1)/2) is not its whole tangent space.
    """
    if n not in (3, 5):
        raise ValueError(f"supported dimensions are 3 and 5, not {n}")
    p, sig = klein_signature(n)
    return jacobian_ring_character(klein(n), sig, (n - 1) // 2)
