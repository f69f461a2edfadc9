"""Differential checks against an independent computer-algebra system.

Skipped when sympy is not installed; the bundled test suite never depends
on it.  These cross-validate both the reduced-basis computation and the
smoothness verdict on randomized inputs.
"""

import random
from itertools import combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")

from cubiclass.forms import CubicForm
from cubiclass.smoothness import PolyModQ, groebner_basis, is_smooth_mod_q


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


def test_smoothness_verdicts_match_reference():
    rng = random.Random(23)
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
        q = 10007
        mine = is_smooth_mod_q(F, q) is not None
        xs = sympy.symbols(f"x0:{nv}")
        Fs = sum(c * xs[i] * xs[j] * xs[k] for (i, j, k), c in terms.items())
        G = sympy.groebner([sympy.diff(Fs, v) for v in xs], *xs, order="grevlex", modulus=q)
        pure = set()
        for g in G.polys:
            lm = g.LM(order="grevlex")
            nz = [(i, e) for i, e in enumerate(lm.exponents) if e]
            if len(nz) == 1:
                pure.add(nz[0][0])
        assert mine is (len(pure) == nv)
        checked += 1
    assert checked >= 20
