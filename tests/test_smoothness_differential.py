"""Differential checks against an independent computer-algebra system.

Skipped when sympy is not installed; the bundled test suite never depends
on it.  These cross-validate both the reduced-basis computation and the
smoothness verdict on randomized inputs.
"""

import json
import random
from itertools import combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")

from cubiclass.cli import GOLDEN_DIR
from cubiclass.forms import CubicForm
from cubiclass.smoothness import is_smooth_mod_q, singular_point_from_lemma_base
from groebner_oracle import PolyModQ, groebner_basis


def sympy_reduced_basis(gens_terms, nvars, q):
    xs = sympy.symbols(f"x0:{nvars}")
    polys = [
        sum(c * sympy.prod(x**e for x, e in zip(xs, mono)) for mono, c in g.items())
        for g in gens_terms
    ]
    G = sympy.groebner(polys, *xs, order="grevlex", modulus=q)
    out = set()
    for g in G.polys:
        terms = {}
        for mono, c in g.terms():
            terms[tuple(mono)] = int(c) % q
        out.add(tuple(sorted(terms.items())))
    return out


def test_reduced_basis_matches_reference():
    # Exponents up to 20 in up to 4 variables cross several packed fields;
    # high-exponent generators stay binomial so the reference finishes fast.
    rng = random.Random(17)
    for _ in range(30):
        nv = rng.choice((2, 3, 4))
        q = rng.choice((7, 13, 101))
        top = rng.choice((3, 21))
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {}
            for _ in range(rng.randrange(2, 5 if top == 3 else 3)):
                e = tuple(rng.randrange(top) for _ in range(nv))
                c = rng.randrange(1, q)
                terms[e] = c
            if terms:
                gens.append(terms)
        if not gens:
            continue
        mine = groebner_basis([PolyModQ(q, g) for g in gens])
        got = {tuple(sorted(p.terms.items())) for p in mine}
        assert got == sympy_reduced_basis(gens, nv, q)


def sympy_certifies(Fs, xs, q):
    """Does the reference reduced basis of the partials hold a pure power of
    every variable among its leading monomials?"""
    G = sympy.groebner([sympy.diff(Fs, v) for v in xs], *xs, order="grevlex", modulus=q)
    pure = set()
    for g in G.polys:
        lm = g.LM(order="grevlex")
        nz = [(i, e) for i, e in enumerate(lm.exponents) if e]
        if len(nz) == 1:
            pure.add(nz[0][0])
    return len(pure) == len(xs)


def nodal_cubic(rng, n):
    """x0*Q(x1..) + C(x1..) after x_i -> x_i + x0 for i >= 1: singular at
    (1:-1:...:-1), and every variable has degree >= 2, so the lemma witness
    does not fire."""
    xs = sympy.symbols(f"x0:{n + 2}")
    rest = xs[1:]
    G = xs[0] * sum(rng.randint(-10, 10) * a * b
                    for a, b in combinations_with_replacement(rest, 2))
    G += sum(rng.randint(-10, 10) * a * b * c
             for a, b, c in combinations_with_replacement(rest, 3))
    Fs = sympy.expand(G.subs({x: x + xs[0] for x in rest}, simultaneous=True))
    terms = {
        tuple(i for i, e in enumerate(exps) for _ in range(e)): int(c)
        for exps, c in sympy.Poly(Fs, *xs).terms()
    }
    return CubicForm(n, terms), Fs, xs


def test_smoothness_verdicts_match_reference():
    rng = random.Random(23)
    q = 10007
    checked = 0
    for _ in range(25):
        n = rng.choice((2, 3))
        nv = n + 2
        terms = {}
        for m in combinations_with_replacement(range(nv), 3):
            if rng.random() < 0.35:
                c = rng.randint(-10, 10)
                if c:
                    terms[m] = c
        if not terms:
            continue
        F = CubicForm(n, terms)
        mine = is_smooth_mod_q(F, q) is not None
        xs = sympy.symbols(f"x0:{nv}")
        Fs = sum(c * xs[i] * xs[j] * xs[k] for (i, j, k), c in terms.items())
        assert mine is sympy_certifies(Fs, xs, q)
        checked += 1
    assert checked >= 20
    # Singular cubics with no singular coordinate point: the run must stop on
    # a completed degree that falls short of the complete-intersection bound.
    for n in (2, 2, 3, 3):
        F, Fs, xs = nodal_cubic(rng, n)
        assert singular_point_from_lemma_base(F) is None
        assert is_smooth_mod_q(F, q) is None
        assert not sympy_certifies(Fs, xs, q)


@pytest.mark.parametrize("n", [2, 3])
def test_golden_invertible_witnesses_match_reference(n):
    # Each golden witness is an invertible member, n + 2 monomials with
    # coefficient 1; the reference basis of its partials must hold a pure
    # power of every variable at the certificate's modulus.
    doc = json.loads((GOLDEN_DIR / f"classify_n{n}.json").read_text())
    xs = sympy.symbols(f"x0:{n + 2}")
    for row in doc["families"]:
        w = row["witness"]
        ones = [0] * (len(w["coeffs"]) - n - 2) + [1] * (n + 2)
        assert sorted(w["coeffs"]) == ones, row["sigma"]
        support = [m for m, c in zip(row["basis"], w["coeffs"]) if c]
        Fs = sum(xs[i] * xs[j] * xs[k] for i, j, k in support)
        assert sympy_certifies(Fs, xs, w["certificate"]["modulus"]), row["sigma"]
