"""Reference Groebner bases over F_q on explicit exponent vectors.

The library runs Buchberger on packed monomials and reads only the leading
terms it needs.  This module wraps the same engine for whole ideals: a
sparse polynomial type, and the reduced degrevlex basis of a list of them,
so the engine can be checked against textbook examples and sympy.
"""

from cubiclass.admissibility import ensure_prime
from cubiclass.smoothness import _buchberger, _normal_form, _Packed


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


def _pack(P: _Packed, e) -> int:
    """Exponent vector e as a packed monomial of P's layout."""
    if any(x < 0 for x in e) or sum(e) >= P.CAP:
        raise ValueError(f"monomial {e} is outside the packed degree range")
    return sum(x << (P.w * i) for i, x in enumerate(e)) + (sum(e) << P.top)


def _unpack(P: _Packed, m) -> tuple:
    return tuple(m >> (P.w * i) & (P.CAP - 1) for i in range(P.nv))


def _interreduce(basis: list, q: int, P: _Packed) -> list:
    """Minimal then fully tail-reduced basis; unique for the ideal and order."""
    kept = []
    for lm, tail in sorted(basis, key=lambda it: P.key(it[0])):
        if all((lm - k[0]) & P.guard for k in kept):
            kept.append((lm, tail))
    out = []
    for idx, (lm, tail) in enumerate(kept):
        others = [kept[i] for i in range(len(kept)) if i != idx]
        red = _normal_form(tail, others, q, P, {})
        red[lm] = 1
        out.append((lm, red))
    return out


def groebner_basis(gens: list) -> list:
    """Reduced degrevlex Groebner basis of PolyModQ over a common modulus.

    Monomials are packed in 16-bit fields, so this raises ValueError once
    any monomial or S-pair reaches total degree 2**15.
    """
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
    P = _Packed(nv.pop(), 16)
    packed = [{_pack(P, e): c for e, c in g.terms.items()} for g in gens]
    raw, _ = _buchberger(packed, q, P)
    reduced = _interreduce(raw, q, P)
    return [PolyModQ(q, {_unpack(P, e): c for e, c in t.items()}) for _, t in reduced]
