"""Acceptance suite: one test per criterion, at exact tolerance.

conftest prints a PASS/FAIL line per criterion.  The threefold and
fourfold family tables pinned here are the published rows, kept verbatim
in PUBLISHED_THREEFOLD_TABLE and PUBLISHED_FOURFOLD_TABLE, plus two proven
errata in ERRATA: the threefold family at (0,0,1,1,2) mod 3 has D = 4, not
2, and the fourfold row (1,1,2,2,3,4) mod 5 is an empty family.  Criteria
3 and 4 compare the classifier with the corrected tables; criteria 5 and 9
check properties of the published rows.  The proofs of the errata are the
test_erratum_* tests at the end of this module; none of them runs the
classifier.
"""

import random
import time
from itertools import combinations_with_replacement

import pytest

from cubiclass.admissibility import admissible_primes, max_admissible_prime
from cubiclass.classify import (
    classify,
    classify_all,
    fermat_membership,
    fermat_realizes,
    normalizer_dim,
)
from cubiclass.forms import (
    CubicForm,
    eigenspace_basis,
    fermat,
    klein,
    klein_signature,
    partials,
)
from cubiclass.hodge import (
    is_stable_under,
    jacobian_ring_character,
    klein_tangent_spectrum,
)
from cubiclass.signatures import (
    AffinePermAction,
    Signature,
    act,
    canonicalize,
    equivalent,
)
from cubiclass.smoothness import certify_smooth_over_Q, singular_point_from_lemma_base
from form_helpers import family_dimension, relabel, s3_dimension
from rank_oracle import rank_character

ADMISSIBLE_TABLE = {
    2: (2, 3, 5),
    3: (2, 3, 5, 11),
    4: (2, 3, 5, 7, 11),
    5: (2, 3, 5, 7, 11, 43),
    6: (2, 3, 5, 7, 11, 17, 43),
    7: (2, 3, 5, 7, 11, 17, 19, 43),
    8: (2, 3, 5, 7, 11, 17, 19, 31, 43),
    9: (2, 3, 5, 7, 11, 17, 19, 31, 43, 683),
    10: (2, 3, 5, 7, 11, 13, 17, 19, 31, 43, 683),
}
MAX_PRIMES_11_20 = (2731, 2731, 2731, 2731, 43691, 43691, 174763, 174763, 174763, 174763)

# (p, signature, D) rows of the published threefold and fourfold tables.
PUBLISHED_THREEFOLD_TABLE = (
    (2, (0, 0, 0, 0, 1), 7),
    (2, (0, 0, 0, 1, 1), 6),
    (3, (0, 0, 0, 0, 1), 4),
    (3, (0, 0, 0, 1, 1), 1),
    (3, (0, 0, 0, 1, 2), 4),
    (3, (0, 0, 1, 1, 2), 2),
    (5, (0, 1, 2, 3, 4), 2),
    (11, (1, 3, 4, 5, 9), 0),
)
PUBLISHED_FOURFOLD_TABLE = (
    (2, (0, 0, 0, 0, 0, 1), 14),
    (2, (0, 0, 0, 0, 1, 1), 12),
    (2, (0, 0, 0, 1, 1, 1), 10),
    (3, (0, 0, 0, 0, 0, 1), 10),
    (3, (0, 0, 0, 0, 1, 1), 4),
    (3, (0, 0, 0, 0, 1, 2), 8),
    (3, (0, 0, 0, 1, 1, 1), 2),
    (3, (0, 0, 0, 1, 1, 2), 7),
    (3, (0, 0, 1, 1, 2, 2), 8),
    (3, (0, 0, 1, 1, 2, 2), 6),
    (5, (0, 0, 1, 2, 3, 4), 4),
    (5, (1, 1, 2, 2, 3, 4), 2),
    (7, (1, 2, 3, 4, 5, 6), 2),
    (11, (0, 1, 3, 4, 5, 9), 0),
)

# Published rows disproved by exact computation, each mapped to its
# correction (None: the family is empty).  An entry is admitted only with a
# proof test at the end of this module that does not run the classifier.
ERRATA = {
    (3, (0, 0, 1, 1, 2), 2): (3, (0, 0, 1, 1, 2), 4),
    (5, (1, 1, 2, 2, 3, 4), 2): None,
}


def corrected(table):
    """The published rows with ERRATA applied."""
    rows = (ERRATA.get(row, row) for row in table)
    return tuple(row for row in rows if row is not None)


THREEFOLD_TABLE = corrected(PUBLISHED_THREEFOLD_TABLE)
FOURFOLD_TABLE = corrected(PUBLISHED_FOURFOLD_TABLE)

KLEIN5_SPECTRUM = frozenset(
    (2, 3, 5, 8, 9, 12, 13, 14, 15, 17, 19, 20, 22, 25, 27, 32, 33, 36, 37, 39, 42)
)


@pytest.fixture(scope="session")
def threefolds():
    t0 = time.perf_counter()
    out = classify_all(3)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fourfolds():
    t0 = time.perf_counter()
    out = classify_all(4)
    return out, time.perf_counter() - t0


def flatten(by_prime):
    return [rec for recs in by_prime.values() for rec in recs]


def triples(by_prime):
    """(p, canonical class, D) multiset of a classification result."""
    return sorted(
        (r.p, canonicalize(r.sigma).values, r.D) for r in flatten(by_prime)
    )


def expected_triples(table):
    return sorted(
        (p, canonicalize(Signature(p, vals)).values, d) for p, vals, d in table
    )


def test_criterion_1_admissible_tables():
    admissible_primes.cache_clear()
    t0 = time.perf_counter()
    for n, row in ADMISSIBLE_TABLE.items():
        assert admissible_primes(n) == row
    for n, p in zip(range(11, 21), MAX_PRIMES_11_20):
        assert max_admissible_prime(n) == p
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_bound_property():
    t0 = time.perf_counter()
    for n in range(2, 21):
        for p in admissible_primes(n):
            assert p < 2 ** (n + 1)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_threefold_classification(threefolds):
    by_prime, elapsed = threefolds
    records = flatten(by_prime)
    assert len(records) == 8
    assert triples(by_prime) == expected_triples(THREEFOLD_TABLE)
    assert elapsed < 60.0


def test_criterion_4_fourfold_classification(fourfolds):
    by_prime, elapsed = fourfolds
    records = flatten(by_prime)
    weights = {
        (canonicalize(r.sigma).values, r.weight, r.D)
        for r in records
        if r.p == 3 and canonicalize(r.sigma).values
        == canonicalize(Signature(3, (0, 0, 1, 1, 2, 2))).values
    }
    assert {(w, d) for _, w, d in weights} == {(0, 8), (1, 6)}
    assert len(records) == 13
    assert triples(by_prime) == expected_triples(FOURFOLD_TABLE)
    assert elapsed < 600.0


def test_criterion_5_dimension_formula():
    assert family_dimension(Signature(2, (0, 0, 0, 0, 1)), 0) == 24 - 17 == 7
    assert family_dimension(Signature(3, (0, 0, 1, 1, 2, 2)), 1) == 18 - 12 == 6
    assert family_dimension(Signature(5, (1, 1, 2, 2, 3, 4)), 0) == 12 - 10 == 2
    assert family_dimension(Signature(11, (1, 3, 4, 5, 9)), 0) == 5 - 5 == 0
    # every published D arises from the formula at some eigenweight
    for p, vals, d in PUBLISHED_THREEFOLD_TABLE + PUBLISHED_FOURFOLD_TABLE:
        sig = Signature(p, vals)
        assert any(family_dimension(sig, a) == d for a in range(p)), (p, vals, d)


def _assert_klein_unique(n, p, records):
    assert len(records) == 1
    rec = records[0]
    assert rec.D == 0
    coeffs, cert = rec.witness
    assert set(coeffs) == {1}
    kp, ksig = klein_signature(n)
    assert kp == p
    member = CubicForm(n, dict(zip(rec.basis, coeffs)))
    order = sorted(range(n + 2), key=lambda i: ksig.values[i])
    perm = [0] * (n + 2)
    for rank, idx in enumerate(order):
        perm[idx] = rank
    assert member == relabel(klein(n), perm)


def test_criterion_6_klein_uniqueness():
    # Above 2^n only the Klein family occurs, with D = 0, at every n <= 98,
    # the reach of the admissible tables.  For n >= 3 a prime p > 2^n that
    # divides some (-2)^l - 1 with l <= n + 2 needs l = n + 2 odd and
    # p = (2^(n+2) + 1)/3, a Wagstaff prime (Bateman, Selfridge and
    # Wagstaff, Amer. Math. Monthly 96, 1989).  So the n below are 2 and
    # those with n + 2 a Wagstaff exponent: 5, 7, 11, ..., 61, 79.  The next
    # exponent, 101, gives n = 99, past the tables.
    t0 = time.perf_counter()
    pairs = [(n, p) for n in range(2, 99) for p in admissible_primes(n) if p > 2**n]
    assert {n for n, _ in pairs} == {2, 3, 5, 9, 11, 15, 17, 21, 29, 41, 59, 77}
    assert all(p == (2 ** (n + 2) + 1) // 3 for n, p in pairs if n >= 3)
    for n, p in pairs:
        _assert_klein_unique(n, p, classify(n, p))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_7_smoothness_certification():
    t0 = time.perf_counter()
    for n in range(2, 7):
        assert certify_smooth_over_Q(fermat(n)) is not None
        assert certify_smooth_over_Q(klein(n)) is not None
    rng = random.Random(0)
    for n in (2, 3, 4):
        # random cubic omitting the last variable entirely
        terms = {
            m: rng.randrange(1, 20)
            for m in combinations_with_replacement(range(n + 1), 3)
        }
        F = CubicForm(n, terms)
        w = singular_point_from_lemma_base(F)
        assert w is not None and w.point[-1] == 1
        assert w.annihilates(F)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_8_klein_fivefold_spectrum():
    t0 = time.perf_counter()
    spec = klein_tangent_spectrum(5)
    distinct = frozenset(spec.exponents)
    assert len(spec) == 21 and len(distinct) == 21
    assert distinct == KLEIN5_SPECTRUM
    assert is_stable_under(spec, 11)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_9_fermat_membership(threefolds):
    t0 = time.perf_counter()
    by_prime, _ = threefolds
    for rec in flatten(by_prime):
        expected = rec.p != 11
        assert fermat_membership(3, rec) is expected, rec
    # fourfold memberships evaluated on the published family data
    klein3_class = canonicalize(Signature(3, (0, 0, 1, 1, 2, 2))).values
    for p, vals, d in PUBLISHED_FOURFOLD_TABLE:
        weight = 1 if (p, canonicalize(Signature(p, vals)).values, d) == (
            3,
            klein3_class,
            6,
        ) else 0
        expected = not (
            (p, vals, d) in (
                (3, (0, 0, 1, 1, 2, 2), 6),
                (5, (1, 1, 2, 2, 3, 4), 2),
                (7, (1, 2, 3, 4, 5, 6), 2),
                (11, (0, 1, 3, 4, 5, 9), 0),
            )
        )
        assert fermat_realizes(4, p, vals, weight) is expected, (p, vals, d)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_property_suites():
    rng = random.Random(2024)

    # orbit action: canonical form constant on orbits, idempotent
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7, 11))
        m = rng.randrange(4, 8)
        sig = Signature(p, [rng.randrange(p) for _ in range(m)])
        perm = list(range(m))
        rng.shuffle(perm)
        g = AffinePermAction(p, rng.randrange(1, p), rng.randrange(p), perm)
        c = canonicalize(sig)
        assert canonicalize(act(sig, g)) == c
        assert canonicalize(c) == c

    # eigenspace weight covariance and dimension partition
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(2, 5)
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        assert sum(len(eigenspace_basis(sig, a)) for a in range(p)) == s3_dimension(n)
        a = rng.randrange(p)
        perm = list(range(n + 2))
        rng.shuffle(perm)
        g = AffinePermAction(p, rng.randrange(1, p), rng.randrange(p), perm)
        assert len(eigenspace_basis(sig, a)) == len(
            eigenspace_basis(act(sig, g), (g.a * a + 3 * g.b) % p)
        )

    # partial derivatives are eigenvectors of weight a - sigma_i
    for _ in range(50):
        p = rng.choice((5, 7, 11))
        n = rng.randrange(2, 5)
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        a = rng.randrange(p)
        basis = eigenspace_basis(sig, a)
        if not basis.monomials:
            continue
        F = CubicForm(n, {m: rng.randrange(1, 50) for m in basis.monomials})
        for i, dq in enumerate(partials(F)):
            for (x, y) in dq:
                assert (sig.values[x] + sig.values[y]) % p == (a - sig.values[i]) % p

    # the rank oracle agrees with the library's character at two moduli
    for n, d in ((3, 1), (5, 2)):
        _, sig = klein_signature(n)
        spec = jacobian_ring_character(klein(n), sig, d)
        for q in (10007, 30011):
            assert rank_character(klein(n), sig, d, q)[0] == spec.exponents


# Proofs of the ERRATA.  Each (p, signature, weight, T, k) below names an
# eigenspace of a disproved row and a coordinate line L = {x_j = 0, j not in
# T}: on L every partial of every member vanishes identically except
# dF/dx_k, which is a binary quadric in x_T.  A root of that quadric is a
# common zero of all partials, hence (Euler) a singular point of F, so no
# member is smooth.
DISPROVED_EIGENSPACES = (
    # the tabled threefold D = 2 is the dimension count of weights 1 and 2
    (3, (0, 0, 1, 1, 2), 1, (2, 3), 4),
    (3, (0, 0, 1, 1, 2), 2, (0, 1), 4),
    # weight 0 of the tabled fourfold row; weights 1 to 4 fail the lemma
    (5, (1, 1, 2, 2, 3, 4), 0, (0, 1), 4),
)


def test_errata_amend_published_rows():
    published = PUBLISHED_THREEFOLD_TABLE + PUBLISHED_FOURFOLD_TABLE
    assert all(published.count(row) == 1 for row in ERRATA)


def test_labels_number_the_published_rows(threefolds, fourfolds):
    # The published tables number each prime's families T_p^k and F_p^k.
    # The k-th family at p must be the k-th published row at p, errata
    # included, and carry that row's corrected D; so an erratum that removes
    # a row is possible only at the end of its prime's rows.
    for n, letter, by_prime, table in (
        (3, "T", threefolds[0], PUBLISHED_THREEFOLD_TABLE),
        (4, "F", fourfolds[0], PUBLISHED_FOURFOLD_TABLE),
    ):
        assert sorted(by_prime) == sorted({p for p, _, _ in table})
        for p, records in by_prime.items():
            rows = [row for row in table if row[0] == p]
            assert len(records) <= len(rows), (n, p)
            for k, (rec, row) in enumerate(zip(records, rows), 1):
                assert rec.label == f"{letter}_{p}^{k}", (n, p, k)
                assert equivalent(rec.sigma, Signature(p, row[1])), rec.label
                fixed = ERRATA.get(row, row)
                assert fixed is not None and rec.D == fixed[2], rec.label
            assert all(ERRATA.get(row) is None for row in rows[len(records):])


@pytest.mark.parametrize("p, vals, a, T, k", DISPROVED_EIGENSPACES)
def test_erratum_eigenspace_singular_on_coordinate_line(p, vals, a, T, k):
    # surviving[i]: terms of dF/dx_i that do not vanish identically on L
    surviving = {}
    for m in eigenspace_basis(Signature(p, vals), a):
        for i, quad in enumerate(partials(CubicForm(len(vals) - 2, {m: 1}))):
            for pair in quad:
                if set(pair) <= set(T):
                    surviving.setdefault(i, set()).add(pair)
    assert set(surviving) == {k}
    assert surviving[k] == set(combinations_with_replacement(T, 2))


def test_erratum_threefold_family_dimension():
    # weight 0 holds every cube, so the certified Fermat threefold is a
    # member; N = GL2 x GL2 x GL1, so D = 13 - 9 = 4.  The tabled 2 = 11 - 9
    # belongs to weights 1 and 2, which hold no smooth member.
    sig = Signature(3, (0, 0, 1, 1, 2))
    assert [len(eigenspace_basis(sig, a)) for a in range(3)] == [13, 11, 11]
    assert set(fermat(3).terms) <= set(eigenspace_basis(sig, 0))
    assert certify_smooth_over_Q(fermat(3)) is not None
    assert normalizer_dim(sig) == 9
    assert family_dimension(sig, 0) == 4


def test_erratum_fourfold_other_weights_fail_lemma():
    # a member without any x_i^2 x_j is singular at the coordinate point e_i
    sig = Signature(5, (1, 1, 2, 2, 3, 4))
    for a in range(1, 5):
        mons = eigenspace_basis(sig, a)
        assert any(all(m.count(i) < 2 for m in mons) for i in range(6)), a


@pytest.mark.parametrize("p, vals, a, T, k", DISPROVED_EIGENSPACES)
def test_erratum_singular_point_exact(p, vals, a, T, k):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    xs = sympy.symbols(f"x0:{len(vals)}")
    F = sum(
        rng.randrange(1, 50) * xs[i] * xs[j] * xs[l]
        for i, j, l in eigenspace_basis(Signature(p, vals), a)
    )
    t = sympy.Symbol("t")
    line = {x: 0 for x in xs}
    line[xs[T[0]]], line[xs[T[1]]] = t, 1
    q = sympy.Poly(sympy.diff(F, xs[k]).subs(line), t)
    assert q.degree() == 2
    line[xs[T[0]]] = next(iter(sympy.roots(q)))
    assert sympy.simplify(F.subs(line)) == 0
    for x in xs:
        assert sympy.simplify(sympy.diff(F, x).subs(line)) == 0
