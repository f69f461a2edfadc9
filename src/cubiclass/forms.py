"""Cubic forms, monomial eigenspaces, and the Fermat/Klein constructors.

Monomials are sorted index triples (i, j, k); a cubic form is a sparse map
from monomials to nonzero integer coefficients.  The eigenspace of a
diagonal automorphism splits the monomial basis by the residue
sigma_i + sigma_j + sigma_k mod p.
"""

from collections import Counter

from .admissibility import (
    _check_dimension,
    _check_weight,
    admissible_primes,
    minus_two_order,
)
from .signatures import Signature

Monomial = tuple  # (i, j, k) with i <= j <= k


def _check_monomial(m, n: int) -> Monomial:
    m = tuple(m)
    if (
        len(m) != 3
        or any(type(i) is not int for i in m)
        or not (0 <= m[0] <= m[1] <= m[2] <= n + 1)
    ):
        raise ValueError(f"invalid monomial {m} for n={n}")
    return m


class CubicForm:
    """Sparse integer cubic form in n+2 variables; n, indices and
    coefficients must be ints (bools and floats are refused, not cast)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = _check_dimension(n)
        self.terms = {}
        for m, c in dict(terms).items():
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
            m = _check_monomial(m, n)
            if c:
                self.terms[m] = c

    def __eq__(self, other):
        return (
            isinstance(other, CubicForm)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def degree_in(self, i: int) -> int:
        """Largest multiplicity of variable i over the monomials present."""
        return max((m.count(i) for m in self.terms), default=0)

    def __repr__(self):
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}" for i in m)
            parts.append(f"{c}*{mono}" if c != 1 else mono)
        return " + ".join(parts) if parts else "0"


class EigenspaceBasis:
    """The monomials of a fixed weight under a diagonal automorphism."""

    __slots__ = ("monomials",)

    def __init__(self, monomials):
        self.monomials = tuple(monomials)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def eigenspace_basis(sig: Signature, a: int) -> EigenspaceBasis:
    """All monomials x_i x_j x_k with sigma_i + sigma_j + sigma_k = a mod p,
    i <= j <= k, in increasing order.

    For each pair i <= j the k are the indices from j on of value
    a - sigma_i - sigma_j, read in increasing order off a value -> indices
    map; so the pairs are walked, not all C(n + 4, 3) triples.
    """
    p = sig.p
    a = _check_weight(a) % p
    vals = sig.values
    where = {}
    for k, v in enumerate(vals):
        where.setdefault(v, []).append(k)
    mons = []
    for i, vi in enumerate(vals):
        for j in range(i, len(vals)):
            for k in where.get((a - vi - vals[j]) % p, ()):
                if k >= j:
                    mons.append((i, j, k))
    return EigenspaceBasis(mons)


def lemma_base_feasible(sig: Signature, a: int):
    """Can every variable reach degree >= 2 inside the weight-a eigenspace?

    A smooth form must have degree >= 2 in each variable, which inside the
    eigenspace requires some j with 2*sigma_i + sigma_j = a mod p.  Returns
    (True, None) or (False, i) with i the first variable that fails.
    """
    p = sig.p
    a = _check_weight(a) % p
    present = set(sig.values)
    for i, v in enumerate(sig.values):
        if (a - 2 * v) % p not in present:
            return False, i
    return True, None


def invertible_member(sig: Signature, a: int):
    """Monomials x_i^2 x_j(i), one per variable i, of an invertible
    polynomial in the weight-a eigenspace, or None when there is none.

    x_i^2 x_j lies in the eigenspace when 2*sigma_i + sigma_j = a mod p,
    and j = i gives x_i^3.  When no j is the target of two different
    i != j, the sum of these n + 2 monomials is a disjoint sum of Fermat
    cubes, chains ending in a cube and loops (Kreuzer-Skarke, On the
    classification of quasihomogeneous functions, CMP 150, 1992), which
    has an isolated singularity for any nonzero coefficients.

    Each i with 3*sigma_i = a takes its own cube; each other i of value v
    takes the next unused index of value f(v) = a - 2v.  For odd p, f is a
    bijection whose only fixed values are the cube values; at p = 2 every
    non-cube draws on the cube value a.  So the indices of one value f(v)
    serve only the non-cubes of value v, none of them its own target, and
    they run out exactly when mult(f(v)) < mult(v), where no choice exists.
    That is coordinate_subspace_obstruction's test (it catches every
    lemma_base_feasible failure), and None comes from it.
    """
    if coordinate_subspace_obstruction(sig, a) is not None:
        return None
    p = sig.p
    a %= p
    unused = {}
    for k, v in enumerate(sig.values):
        unused.setdefault(v, []).append(k)
    return tuple(
        (i, i, i) if 3 * v % p == a
        else tuple(sorted((i, i, unused[(a - 2 * v) % p].pop(0))))
        for i, v in enumerate(sig.values)
    )


def coordinate_subspace_obstruction(sig: Signature, a: int):
    """Variable subset T on whose coordinate subspace every member of the
    weight-a eigenspace is singular, or None when the general member is
    smooth.

    On L_T = {x_j = 0, j not in T} the partial in x_k of every member
    vanishes identically unless the eigenspace holds some monomial
    x_k * m with m quadratic in x_T; call such k counted.  When fewer than
    |T| indices are counted, fewer than |T| quadrics cut L_T = P^(|T|-1),
    so they share a zero and every member is singular there.  Any T with
    value set V = {sigma_i : i in T} has the same quadric weights V + V and
    counted k as T_V = {i : sigma_i in V} and is no larger, so T_V
    obstructs whenever T does.  One value set suffices:
    - Rejection.  For V = {v}, on L_{T_v} only the mult(a - 2v) partials of
      weight a - 2v survive; when they are fewer than mult(v), these
      quadrics on P^(mult(v)-1) share a zero.
    - Acceptance.  When no v has mult(a - 2v) < mult(v), the targets
      invertible_member assigns never run out (its docstring shows why),
      and the invertible member it returns is smooth, so the smooth
      members form a nonempty Zariski-open subset of the eigenspace
      defined over Q and no larger T can obstruct.
    Returns T_v for the least such v, or None.
    """
    p = sig.p
    a = _check_weight(a) % p
    mult = Counter(sig.values)
    for v in sorted(mult):
        if mult[(a - 2 * v) % p] < mult[v]:
            return tuple(i for i, w in enumerate(sig.values) if w == v)
    return None


def fermat(n: int) -> CubicForm:
    """Sum of the n+2 variable cubes."""
    return CubicForm(n, {(i, i, i): 1 for i in range(n + 2)})


def klein(n: int) -> CubicForm:
    """The cyclic form x_0^2 x_1 + x_1^2 x_2 + ... + x_{n+1}^2 x_0."""
    m = n + 2
    return CubicForm(n, {tuple(sorted((i, i, (i + 1) % m))): 1 for i in range(m)})


def klein_signature(n: int) -> tuple[int, Signature]:
    """The prime p with (-2)^(n+2) = 1 mod p of full order, and sigma_i = (-2)^i.

    The Klein n-fold is invariant under the diagonal automorphism with this
    signature.  Takes the largest admissible prime whose order of -2 is
    exactly n+2.  One exists for every n >= 2, and it is neither 2 nor 3.
    Let m = n + 2 >= 4, and let q be a primitive prime divisor of 2^k - 1
    (Zsigmondy, Monatsh. Math. Phys. 3, 1892), with k = 2m for odd m,
    k = m when 4 | m, and k = m/2 when m = 2 mod 4; then ord_q(-2) = m.
    For base 2 and k >= 2 the theorem's only exception is 2^6 - 1, and no
    m >= 4 needs k = 6.  q is odd, and q != 3 since ord_3(-2) = 1.
    """
    p = max(q for q in admissible_primes(n) if minus_two_order(q, n) == n + 2)
    return p, Signature(p, [pow(-2, i, p) for i in range(n + 2)])


def weight_of(F: CubicForm, sig: Signature):
    """Common eigenweight of all terms of F, or None when weights are mixed."""
    if len(sig.values) != F.n + 2:
        raise ValueError("signature length does not match form dimension")
    weights = {sum(sig.values[i] for i in m) % sig.p for m in F.terms}
    if len(weights) != 1:
        return None
    return weights.pop()


def partials(F: CubicForm) -> list[dict]:
    """Exact integer partial derivatives, one quadratic form per variable.

    The partial in x_v maps each sorted pair m minus one v to c * m.count(v).
    That key determines m, so each key gets one term and no entry is zero.
    """
    out = [dict() for _ in range(F.n + 2)]
    for m, c in F.terms.items():
        for v in set(m):
            rest = list(m)
            rest.remove(v)
            out[v][tuple(rest)] = c * m.count(v)
    return out


def form_to_json(F: CubicForm) -> dict:
    """The interchange format: {"n": ..., "terms": [{"c": ..., "m": [i,j,k]}]}."""
    return {
        "n": F.n,
        "terms": [
            {"c": c, "m": list(m)} for m, c in sorted(F.terms.items())
        ],
    }


def form_from_json(doc: dict) -> CubicForm:
    """Parse and validate the interchange format; duplicate monomials rejected."""
    if not (isinstance(doc, dict) and "n" in doc
            and isinstance(doc.get("terms"), list)):
        raise ValueError("form document needs 'n' and a 'terms' list")
    terms = {}
    for entry in doc["terms"]:
        if not (isinstance(entry, dict) and set(entry) == {"c", "m"}
                and isinstance(entry["m"], list)
                and all(type(i) is int for i in entry["m"])):
            raise ValueError(f"bad term entry {entry!r}")
        m = tuple(entry["m"])
        if m in terms:
            raise ValueError(f"duplicate monomial {list(m)}")
        terms[m] = entry["c"]
    return CubicForm(doc["n"], terms)
