"""Reference Groebner bases over F_q on explicit exponent vectors.

A textbook Buchberger (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, 2.7 and 2.10) on polynomials keyed by exponent tuples: normal
selection, Buchberger's coprime and chain criteria, and interreduction to
the reduced degrevlex basis.  It shares no code with the library's packed
engine, so the tests can check that engine against it, and it against
textbook examples and sympy.
"""

import heapq

from cubiclass.admissibility import ensure_prime


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
            e = tuple(e)
            if type(c) is not int or any(type(x) is not int for x in e):
                raise ValueError(f"non-integer term {e!r}: {c!r}")
            if nvars is None:
                nvars = len(e)
            elif len(e) != nvars:
                raise ValueError("inconsistent exponent vector lengths")
            c %= q
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


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monic(f: dict, q: int):
    """(lm, f / lc) for a nonzero term dict f."""
    lm = max(f, key=_sortkey)
    inv = pow(f[lm], -1, q)
    return lm, {e: c * inv % q for e, c in f.items()}


def _remainder(f: dict, basis: list, q: int) -> dict:
    """Full remainder of f on division by the monic (lm, poly) pairs of
    basis, each leading term cancelled by the first element dividing it."""
    f = {e: c % q for e, c in f.items() if c % q}
    rem = {}
    while f:
        lead = max(f, key=_sortkey)
        c = f.pop(lead)
        for lm, g in basis:
            if _divides(lm, lead):
                shift = [a - b for a, b in zip(lead, lm)]
                for e, gc in g.items():
                    if e == lm:
                        continue
                    t = tuple(a + b for a, b in zip(e, shift))
                    v = (f.get(t, 0) - c * gc) % q
                    if v:
                        f[t] = v
                    else:
                        f.pop(t, None)
                break
        else:
            rem[lead] = c
    return rem


def _spoly(f, g, q: int) -> dict:
    """S-polynomial of the monic (lm, poly) pairs f and g."""
    (lf, pf), (lg, pg) = f, g
    lcm = tuple(map(max, lf, lg))
    out = {}
    for (lm, p), sign in (((lf, pf), 1), ((lg, pg), -1)):
        shift = [a - b for a, b in zip(lcm, lm)]
        for e, c in p.items():
            t = tuple(a + b for a, b in zip(e, shift))
            out[t] = (out.get(t, 0) + sign * c) % q
    return out


def _buchberger(gens: list, q: int) -> list:
    """A Groebner basis of the ideal of gens, as monic (lm, poly) pairs.

    Pairs are treated in increasing degrevlex order of their lcm (normal
    selection).  A pair is skipped when its leading monomials are coprime,
    since its S-polynomial then reduces to zero (Buchberger's first
    criterion), or when some third element's leading monomial divides the
    lcm and its pairs with both are already treated (the chain criterion).
    """
    basis = [_monic(g, q) for g in gens]
    pairs, pending = [], set()

    def queue(j):
        for i in range(j):
            lcm = tuple(map(max, basis[i][0], basis[j][0]))
            heapq.heappush(pairs, (_sortkey(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        queue(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        li, lj = basis[i][0], basis[j][0]
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        lcm = tuple(map(max, li, lj))
        if any(
            k != i and k != j and _divides(basis[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        h = _remainder(_spoly(basis[i], basis[j], q), basis, q)
        if h:
            basis.append(_monic(h, q))
            queue(len(basis) - 1)
    return basis


def _interreduce(basis: list, q: int) -> list:
    """Minimal then fully tail-reduced basis; unique for the ideal and order."""
    kept = []
    for lm, g in sorted(basis, key=lambda it: _sortkey(it[0])):
        if not any(_divides(k, lm) for k, _ in kept):
            kept.append((lm, g))
    out = []
    for idx, (lm, g) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        out.append(_remainder(g, others, q))
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
    if len({g.nvars for g in gens}) != 1:
        raise ValueError("generators must share a variable count")
    basis = _buchberger([g.terms for g in gens], q)
    return [PolyModQ(q, t) for t in _interreduce(basis, q)]
