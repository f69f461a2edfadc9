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
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from .admissibility import admissible_primes, is_admissible, is_prime
from .forms import (
    coordinate_subspace_obstruction,
    eigenspace_basis,
    lemma_feasible_weights,
)
from .signatures import BudgetExceededError, Signature, _canonical_values
from .signatures import enumerate_orbits, family_key
from .smoothness import DEFAULT_MODULI, find_smooth_member


@dataclass
class RunConfig:
    """Knobs shared by classify and the command line."""

    strategy: str = "auto"
    budget: int = 10**8

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.strategy not in ("auto", "exhaustive", "chain_pruned"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


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

    @property
    def accepted(self) -> bool:
        return self.rejected_reason is None

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
    counts = {}
    for v in sig.values:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * c for c in counts.values())


def family_dimension(sig: Signature, a: int) -> int:
    """dim of the weight-a eigenspace minus the normalizer dimension."""
    return len(eigenspace_basis(sig, a)) - normalizer_dim(sig)


# Family labels for cross-referencing the published threefold/fourfold
# tables; keyed by (p,) + family_key of the row.
_THREEFOLD_LABELS = (
    ("T_2^1", 2, (0, 0, 0, 0, 1), 0),
    ("T_2^2", 2, (0, 0, 0, 1, 1), 0),
    ("T_3^1", 3, (0, 0, 0, 0, 1), 0),
    ("T_3^2", 3, (0, 0, 0, 1, 1), 0),
    ("T_3^3", 3, (0, 0, 0, 1, 2), 0),
    ("T_3^4", 3, (0, 0, 1, 1, 2), 0),
    ("T_5^1", 5, (0, 1, 2, 3, 4), 0),
    ("T_11^1", 11, (1, 3, 4, 5, 9), 0),
)
_FOURFOLD_LABELS = (
    ("F_2^1", 2, (0, 0, 0, 0, 0, 1), 0),
    ("F_2^2", 2, (0, 0, 0, 0, 1, 1), 0),
    ("F_2^3", 2, (0, 0, 0, 1, 1, 1), 0),
    ("F_3^1", 3, (0, 0, 0, 0, 0, 1), 0),
    ("F_3^2", 3, (0, 0, 0, 0, 1, 1), 0),
    ("F_3^3", 3, (0, 0, 0, 0, 1, 2), 0),
    ("F_3^4", 3, (0, 0, 0, 1, 1, 1), 0),
    ("F_3^5", 3, (0, 0, 0, 1, 1, 2), 0),
    ("F_3^6", 3, (0, 0, 1, 1, 2, 2), 0),
    ("F_3^7", 3, (0, 0, 1, 1, 2, 2), 1),
    ("F_5^1", 5, (0, 0, 1, 2, 3, 4), 0),
    ("F_5^2", 5, (1, 1, 2, 2, 3, 4), 0),
    ("F_7^1", 7, (1, 2, 3, 4, 5, 6), 0),
    ("F_11^1", 11, (0, 1, 3, 4, 5, 9), 0),
)


@lru_cache(maxsize=None)
def _label_table(n: int) -> dict:
    rows = {3: _THREEFOLD_LABELS, 4: _FOURFOLD_LABELS}.get(n, ())
    return {
        (p,) + family_key(Signature(p, vals), w): label for label, p, vals, w in rows
    }


def _process_class(class_sig: Signature):
    """Accept or reject one signature class; the verdict depends on sigma alone.

    A weight is searched when the lemma filter accepts it (it is one of
    lemma_feasible_weights) and carries no coordinate-subspace obstruction,
    which by that criterion is exactly when its general member is smooth.  A class with no searched weight is
    rejected as lemma_base or coordinate_subspace, both proofs.  Searched
    weights that describe the same family share a family_key, and each
    distinct key becomes one record, whose sigma and weight are the key and
    whose witness find_smooth_member builds.  Returns (records, rejected
    record or None, names of the keys whose witness no default modulus
    certified): that is no evidence about the family.
    """
    p, n = class_sig.p, class_sig.n
    feasible = lemma_feasible_weights(class_sig)
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
        return [], rejected, []
    records, missing = [], []
    for weight, values in sorted({family_key(class_sig, a) for a in searched}):
        rep = Signature(p, values)
        result = find_smooth_member(rep, weight)
        if result is None:
            missing.append(
                f"class {class_sig.values}, family {values} at weight {weight}"
            )
            continue
        basis = eigenspace_basis(rep, weight)
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
                basis=basis.monomials,
                witness=result,
                label=_label_table(n).get((p, weight, values)),
            )
        )
    return records, None, missing


def _resolve_strategy(p: int, n: int, config: RunConfig) -> str:
    """exhaustive for p <= 3 whatever is asked, as chain_pruned needs p > 3;
    else the strategy asked, auto meaning exhaustive when p^(n+2) fits the
    budget.  auto does not read the walk size that enumerate_orbits checks:
    at p = 43, n = 5 that walk, 36,768,270 lead-block candidates, fits the
    default budget and would add lemma_base rows where the Klein family is
    the whole classification.
    """
    if p <= 3:
        return "exhaustive"
    if config.strategy != "auto":
        return config.strategy
    return "exhaustive" if p ** (n + 2) <= config.budget else "chain_pruned"


def classify_with_audit(n: int, p: int, config: RunConfig | None = None):
    """(accepted records, rejected classes, notes) for one prime.

    Raises BudgetExceededError after every class is processed if any family
    was left without a witness, naming each such family and carrying the
    rows that were decided.
    """
    config = config or RunConfig()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_admissible(p, n):
        return [], [], [f"{p} not admissible in dimension {n}"]
    strategy = _resolve_strategy(p, n, config)
    accepted, rejected, missing = [], [], []
    for c in enumerate_orbits(p, n, strategy, config.budget):
        recs, rej, miss = _process_class(c)
        accepted.extend(recs)
        missing.extend(miss)
        if rej is not None:
            rejected.append(rej)
    accepted.sort(key=lambda r: (r.sigma.values, r.weight))
    rejected.sort(key=lambda r: r.sigma.values)
    if missing:
        raise BudgetExceededError(
            f"no witness certified at moduli {list(DEFAULT_MODULI)} for "
            f"{'; '.join(missing)}",
            accepted,
            rejected,
        )
    return accepted, rejected, []


def classify(n: int, p: int, config: RunConfig | None = None) -> list:
    """All families of smooth cubic n-folds with an order-p automorphism."""
    records, _, _ = classify_with_audit(n, p, config)
    return records


def classify_all(n: int, config: RunConfig | None = None) -> dict:
    """classify over every admissible prime for dimension n."""
    return {p: classify(n, p, config) for p in admissible_primes(n)}


# ---------------------------------------------------------------------------
# Fermat membership: which families contain the Fermat n-fold.


@dataclass(frozen=True)
class FermatGroupElement:
    """A symmetry of the Fermat form: coordinate permutation after
    per-coordinate cube-root scalings, taken modulo global scalars."""

    perm: tuple
    exps: tuple


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cur = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cur.append(j)
            seen[j] = True
            j = perm[j]
        out.append(cur)
    return out


def element_order_and_signature(el: FermatGroupElement):
    """Projective order, and the signature when that order is prime.

    Eigenvalues come blockwise from the permutation cycles; their exponents
    are exact rationals with denominator 3*lcm(cycle lengths), so the order
    and the signature (the eigenvalue ratios as powers of a primitive root
    of unity) are computed without any floating point.

    Returns (order, sigma values tuple or None).
    """
    cycles = _cycles(el.perm)
    L = lcm(*(len(c) for c in cycles))
    D = 3 * L
    nums = []
    for cyc in cycles:
        m = len(cyc)
        e_sum = sum(el.exps[i] for i in cyc) % 3
        base = e_sum * (L // m)
        step = 3 * (L // m)
        for j in range(m):
            nums.append((base + step * j) % D)
    diffs = [(x - nums[0]) % D for x in nums]
    g = D
    for d in diffs:
        g = gcd(g, d)
    order = D // g
    if order <= 1 or not is_prime(order):
        return order, None
    p = order
    return p, tuple(d * p // D % p for d in diffs)


def _partitions(m: int, largest: int | None = None):
    """The partitions of m as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def fermat_order_classes(n: int) -> dict:
    """For each prime p, the signature classes realized inside the Fermat
    symmetry group mu_3^(n+2)/mu_3 x| S_(n+2) (Matsumura-Monsky, J. Math.
    Kyoto Univ. 3, 1964): permutations after diagonal cube roots.

    The group is walked by its invariants, not its elements: one element
    per cycle type lambda of n + 2 and, for each cycle length, multiset of
    per-cycle exponent sums mod 3.

    * g^k has permutation part pi^k, and a monomial matrix is scalar only
      when its permutation is the identity, so the projective order of g
      is a multiple of lcm(lambda): only lcm 1 or prime can give a prime.
    * element_order_and_signature reads the cycles only through their
      lengths and each cycle's e_sum, so the representative built here
      (consecutive cycles, the sum on each cycle's first index, 0
      elsewhere) answers for every element with those cycle sums.
    * Reordering the cycles moves nums[0]: that translates the signature
      and keeps the gcd of the differences, hence the order, and
      _canonical_values absorbs the translation.
    * A global cube root changes no projective element, so these exps
      reach every element of the group.
    """
    raw = {}
    for cycle_type in _partitions(n + 2):
        L = lcm(*cycle_type)
        if L != 1 and not is_prime(L):
            continue
        lengths = sorted(Counter(cycle_type).items())
        choices = (combinations_with_replacement(range(3), c) for _, c in lengths)
        for sums in product(*choices):
            perm, exps = [], []
            for (length, _), block in zip(lengths, sums):
                for s in block:
                    start = len(perm)
                    perm += [*range(start + 1, start + length), start]
                    exps += [s] + [0] * (length - 1)
            el = FermatGroupElement(tuple(perm), tuple(exps))
            p, sig = element_order_and_signature(el)
            if sig is not None:
                raw.setdefault(p, set()).add(tuple(sorted(sig)))
    return {
        p: frozenset(_canonical_values(p, s) for s in sigs)
        for p, sigs in raw.items()
    }


def fermat_realizes(n: int, p: int, values, weight: int) -> bool:
    """Does the Fermat n-fold admit an automorphism with this class and weight?

    Every Fermat symmetry fixes the form exactly (cube-root scalings fix the
    cubes), so only weight 0 can match.
    """
    if n not in (3, 4):
        raise ValueError("supported dimensions are 3 and 4")
    if weight % p != 0:
        return False
    classes = fermat_order_classes(n)
    return _canonical_values(p, tuple(values)) in classes.get(p, frozenset())


def fermat_membership(n: int, family: FamilyRecord) -> bool:
    """True iff the Fermat n-fold belongs to the given family."""
    return fermat_realizes(n, family.p, family.sigma.values, family.weight)
