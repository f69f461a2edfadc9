"""The classification pipeline: orbits -> feasibility -> certified witnesses.

For each signature class the pipeline finds the eigenweights whose general
member is smooth, by the lemma filter and the coordinate-subspace criterion
alone.  A family is a pair (sigma, weight) up to the group action on pairs,
named by its signatures.family_key; every such key becomes a FamilyRecord
carrying the eigenspace basis, the moduli-space dimension D = dim E - dim N,
and a witness certified smooth over the rationals.  A class with no such
weight is reported with the reason that proves every member singular.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .admissibility import _check_dimension, admissible_primes, is_admissible, is_prime
from .forms import (
    coordinate_subspace_obstruction,
    eigenspace_basis,
    lemma_base_feasible,
)
from .signatures import (
    Signature,
    _lead_shaped_multisets,
    check_walk,
    enumerate_orbits,
    family_key,
)
from .smoothness import find_smooth_member


@dataclass
class FamilyRecord:
    """One classified family, or a rejected class when rejected_reason is set."""

    p: int
    n: int
    sigma: Signature
    weight: int | None
    dim_E: int | None
    dim_norm: int
    D: int | None
    basis: tuple = ()
    witness: tuple | None = None  # (coefficients, SmoothnessCertificate)
    label: str | None = None
    rejected_reason: str | None = None

    def to_json(self) -> dict:
        doc = {
            "p": self.p,
            "n": self.n,
            "sigma": list(self.sigma.values),
            "weight": self.weight,
            "dim_E": self.dim_E,
            "dim_norm": self.dim_norm,
            "D": self.D,
            "basis": [list(m) for m in self.basis],
            "witness": None,
            "label": self.label,
            "rejected_reason": self.rejected_reason,
        }
        if self.witness is not None:
            coeffs, cert = self.witness
            doc["witness"] = {
                "coeffs": list(coeffs),
                "certificate": cert.to_json(),
            }
        return doc


def normalizer_dim(sig: Signature) -> int:
    """Dimension of the GL normalizer of the cyclic group: sum of n_j^2."""
    return sum(c * c for c in Counter(sig.values).values())


def _process_class(class_sig: Signature):
    """Accept or reject one signature class; the verdict depends on sigma alone.

    A weight is searched when lemma_base_feasible accepts it and
    coordinate_subspace_obstruction finds no obstruction, which by that
    criterion is exactly when its general member is smooth; the lemma needs
    a - 2*sigma_0 among the values, so only those a are tried.  A class
    with no searched weight is rejected as lemma_base or
    coordinate_subspace, both proofs.  Searched weights that describe the
    same family share a family_key, and each distinct key becomes one
    record, whose sigma and weight are the key and whose witness is the
    member find_smooth_member certifies, written as a 0/1 vector aligned
    with the eigenspace basis.  Returns (unsorted records, rejected or None).
    """
    p, n = class_sig.p, class_sig.n
    candidates = {(w + 2 * class_sig.values[0]) % p for w in class_sig.values}
    feasible = [a for a in candidates if lemma_base_feasible(class_sig, a)[0]]
    searched = [
        a for a in feasible if coordinate_subspace_obstruction(class_sig, a) is None
    ]
    if not searched:
        rejected = FamilyRecord(
            p=p,
            n=n,
            sigma=class_sig,
            weight=None,
            dim_E=None,
            dim_norm=normalizer_dim(class_sig),
            D=None,
            rejected_reason="coordinate_subspace" if feasible else "lemma_base",
        )
        return [], rejected
    records = []
    for weight, values in {family_key(class_sig, a) for a in searched}:
        rep = Signature(p, values)
        monomials, cert = find_smooth_member(rep, weight)
        members = set(monomials)
        basis = eigenspace_basis(rep, weight).monomials
        coeffs = tuple(int(m in members) for m in basis)
        dn = normalizer_dim(rep)
        records.append(
            FamilyRecord(
                p=p,
                n=n,
                sigma=rep,
                weight=weight,
                dim_E=len(basis),
                dim_norm=dn,
                D=len(basis) - dn,
                basis=basis,
                witness=(coeffs, cert),
            )
        )
    return records, None


def _resolve_strategy(p: int, n: int) -> str:
    """exhaustive when p <= 3 (chain_pruned needs p > 3) or p^(n+2) <= 10^8,
    else chain_pruned.  The rule does not read the walk size that
    enumerate_orbits checks: at p = 43, n = 5 that walk, 1,999,998
    lead-block candidates, is under 10^8 and would add lemma_base rows
    where the Klein family is the whole classification.
    """
    return "exhaustive" if p <= 3 or p ** (n + 2) <= 10**8 else "chain_pruned"


def check_budget(n: int, p: int) -> None:
    """Raise the ValueError classify_with_audit(n, p) raises for an orbit
    walk over its budget, without walking."""
    if is_admissible(p, n):
        check_walk(p, n, _resolve_strategy(p, n))


def classify_with_audit(n: int, p: int):
    """(accepted records, rejected classes, notes) for one prime; raises
    ValueError when p is not prime (from is_admissible) or the orbit walk
    is over its budget, and RuntimeError if no default modulus certifies a
    family's witness (a fault).  The records are sorted by (sigma, weight),
    a total order since their family keys are distinct, and at n = 3 and 4
    the k-th is labelled T_p^k or F_p^k."""
    if not is_admissible(p, n):
        return [], [], [f"{p} not admissible in dimension {n}"]
    accepted, rejected = [], []
    for c in enumerate_orbits(p, n, _resolve_strategy(p, n)):
        recs, rej = _process_class(c)
        accepted.extend(recs)
        if rej is not None:
            rejected.append(rej)
    accepted.sort(key=lambda r: (r.sigma.values, r.weight))
    # The published tables number each prime's families in this order.
    if n in (3, 4):
        for k, rec in enumerate(accepted, 1):
            rec.label = f"{'TF'[n - 3]}_{p}^{k}"
    return accepted, rejected, []


def classify(n: int, p: int) -> list:
    """All families of smooth cubic n-folds with an order-p automorphism."""
    records, _, _ = classify_with_audit(n, p)
    return records


def classify_all(n: int) -> dict:
    """classify over every admissible prime for dimension n."""
    return {p: classify(n, p) for p in admissible_primes(n)}


# ---------------------------------------------------------------------------
# Fermat membership: which families contain the Fermat n-fold.


@lru_cache(maxsize=None)
def fermat_order_classes(n: int) -> dict:
    """For each prime p, the signature classes realized inside the Fermat
    symmetry group mu_3^(n+2)/mu_3 x| S_(n+2) (Matsumura-Monsky, J. Math.
    Kyoto Univ. 3, 1964): permutations after diagonal cube roots, taken
    modulo scalars.  Returns p -> frozenset of canonical value tuples.

    * p = 3.  With w a primitive cube root of unity, the diagonal element
      with cube roots w^e_i has signature e, scalar exactly when e is
      constant, so every nonzero class of F_3^(n+2) occurs.  AGL(1, 3) is
      all of S_3 on {0, 1, 2}, so they are the lead-shaped multisets
      0^a 1^b 2^c, a >= b >= c, b >= 1, that enumerate_orbits walks.
    * p != 3.  g^p is scalar only when its permutation is, so every cycle
      has length 1 or p.  On a p-cycle whose cube roots multiply to w^s,
      g^p is w^s, so the eigenvalues are t*zeta_p^j, j < p, with t the cube
      root of unity with t^p = w^s (p is a unit mod 3).  A fixed point has a
      cube root of unity.  A ratio of two cube roots of unity is a p-th
      root of unity only when it is 1, so g has order p exactly when every
      block shares t and some cycle is a p-cycle.  Dividing by t, the
      signature is 0^(n+2-kp) (0, ..., p-1)^k for k p-cycles,
      1 <= k <= (n+2)/p, and k plain p-cycles realize each of them.  Sorted,
      it is canonical: 0 has the top multiplicity and all else has k.
    """
    m = _check_dimension(n) + 2
    classes = {3: frozenset(_lead_shaped_multisets(3, m))}
    for p in range(2, m + 1):
        if p != 3 and is_prime(p):
            classes[p] = frozenset(
                tuple(sorted((0,) * (m - k * p) + tuple(range(p)) * k))
                for k in range(1, m // p + 1)
            )
    return classes


def fermat_realizes(n: int, p: int, values, weight: int) -> bool:
    """Is (values, weight) the family of a Fermat symmetry fixing the form?

    Such an element, divided by the t of fermat_order_classes, has a pair
    (sigma, 0) with sigma a listed class c (a translate of c at p = 3, where
    translations keep weight 0).  Powers and scalar multiples,
    (l*pi(sigma) + b, 3b), give the rest of the family, and each listed c
    is its own weight-0 family_key, so the family_key alone decides.  Not
    counted: when n + 2 = 3k, k 3-cycles whose cube roots multiply to one
    w != 1 on each cycle scale the form and realize (0^k 1^k 2^k, 1) too.
    """
    sig = Signature(p, values)
    if len(sig.values) != n + 2:
        raise ValueError(f"a signature in dimension {n} has {n + 2} entries")
    w, key = family_key(sig, weight)
    return w == 0 and key in fermat_order_classes(n).get(p, ())


def fermat_membership(n: int, family: FamilyRecord) -> bool:
    """True iff the Fermat n-fold belongs to the given family."""
    return fermat_realizes(n, family.p, family.sigma.values, family.weight)
