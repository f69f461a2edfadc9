import random
from itertools import combinations_with_replacement

import pytest

from cubiclass.admissibility import admissible_primes
from cubiclass.forms import (
    CubicForm,
    coordinate_subspace_obstruction,
    eigenspace_basis,
    fermat,
    form_from_json,
    form_to_json,
    klein,
    klein_signature,
    lemma_base_feasible,
    monomial_weight,
    partials,
    s3_dimension,
    weight_of,
)
from cubiclass.signatures import AffinePermAction, Signature, act, enumerate_orbits
from cubiclass.smoothness import is_smooth_mod_q


def test_s3_dimension():
    assert s3_dimension(2) == 20
    assert s3_dimension(3) == 35
    assert s3_dimension(4) == 56


def test_eigenspace_klein_threefold():
    basis = eigenspace_basis(Signature(11, (1, 3, 4, 5, 9)), 0)
    assert basis.monomials == ((0, 0, 4), (0, 3, 3), (1, 1, 3), (1, 2, 2), (2, 4, 4))


def test_eigenspace_dimensions_mod3():
    sig = Signature(3, (0, 0, 1, 1, 2, 2))
    # independent recount straight from the weight condition
    def count(a):
        return sum(
            1
            for m in combinations_with_replacement(range(6), 3)
            if sum(sig.values[i] for i in m) % 3 == a
        )
    assert len(eigenspace_basis(sig, 0)) == count(0) == 20
    assert len(eigenspace_basis(sig, 1)) == count(1) == 18


def test_eigenspace_identity_signature():
    for n in (2, 3, 4):
        sig = Signature(5, (0,) * (n + 2))
        assert len(eigenspace_basis(sig, 0)) == s3_dimension(n)


def test_eigenspace_partition():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7, 11))
        n = rng.randrange(2, 5)
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        total = sum(len(eigenspace_basis(sig, a)) for a in range(p))
        assert total == s3_dimension(n)


def test_eigenspace_weight_covariance():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(2, 5)
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        a = rng.randrange(p)
        perm = list(range(n + 2))
        rng.shuffle(perm)
        g = AffinePermAction(p, rng.randrange(1, p), rng.randrange(p), perm)
        moved = act(sig, g)
        a_moved = (g.a * a + 3 * g.b) % p
        assert len(eigenspace_basis(sig, a)) == len(eigenspace_basis(moved, a_moved))


def test_lemma_base_examples():
    ok, wit = lemma_base_feasible(Signature(5, (0, 1, 2, 3, 4)), 0)
    assert ok and wit is None
    ok, wit = lemma_base_feasible(Signature(5, (0, 0, 1, 2, 3)), 0)
    assert not ok and wit == 4  # the weight-3 variable needs -6 = 4, absent
    ok, _ = lemma_base_feasible(Signature(7, (0, 0, 0, 0, 0)), 0)
    assert ok


def _class_weights(n):
    for p in admissible_primes(n):
        for sig in enumerate_orbits(p, n):
            for a in range(p):
                yield sig, a


def test_coordinate_subspace_obstruction_examples():
    # the empty F_5^2 family: singular where only x_0, x_1 are nonzero
    assert coordinate_subspace_obstruction(Signature(5, (1, 1, 2, 2, 3, 4)), 0) == (0, 1)
    assert coordinate_subspace_obstruction(Signature(3, (0, 0, 1, 1, 2)), 1) == (2, 3)
    assert coordinate_subspace_obstruction(Signature(5, (0, 1, 2, 3, 4)), 0) is None


@pytest.mark.parametrize("n", [3, 4])
def test_obstruction_of_size_one_is_the_lemma(n):
    for sig, a in _class_weights(n):
        T = coordinate_subspace_obstruction(sig, a)
        feasible, i = lemma_base_feasible(sig, a)
        assert (T is not None and len(T) == 1) == (not feasible)
        if not feasible:
            assert T == (i,)


@pytest.mark.parametrize("n", [3, 4])
def test_obstructed_members_are_singular(n):
    rng = random.Random(n)
    seen = 0
    for sig, a in _class_weights(n):
        T = coordinate_subspace_obstruction(sig, a)
        if T is None or len(T) < 2:
            continue
        seen += 1
        basis = eigenspace_basis(sig, a)
        F = CubicForm(n, {m: rng.randint(1, 50) for m in basis})
        assert is_smooth_mod_q(F, 10007) is None, (sig, a, T)
    assert seen > 0


def test_fermat():
    F = fermat(2)
    assert F.terms == {(i, i, i): 1 for i in range(4)}
    assert len(fermat(5).terms) == 7
    assert weight_of(fermat(4), Signature(5, (0,) * 6)) == 0


def test_klein_shift_invariance():
    for n in (2, 3, 5):
        F = klein(n)
        assert len(F.terms) == n + 2
        m = n + 2
        shift = [(i + 1) % m for i in range(m)]
        assert F.relabel(shift) == F


def test_klein_shift_signature_class():
    # The cyclic relabeling of klein(3) is an order-5 automorphism whose
    # diagonalization has all fifth roots of unity: class (0,1,2,3,4) mod 5.
    from cubiclass.classify import FermatGroupElement, element_order_and_signature
    from cubiclass.signatures import equivalent

    shift = FermatGroupElement(perm=(1, 2, 3, 4, 0), exps=(0,) * 5)
    order, sigma = element_order_and_signature(shift)
    assert order == 5
    assert equivalent(Signature(5, sigma), Signature(5, (0, 1, 2, 3, 4)))


def test_klein_weights():
    p, sig = klein_signature(5)
    assert p == 43
    assert sig.values == (1, 41, 4, 35, 16, 11, 21)
    assert weight_of(klein(5), sig) == 0


@pytest.mark.parametrize(
    "n,p,values",
    [
        (2, 5, (1, 3, 4, 2)),
        (3, 11, (1, 9, 4, 3, 5)),
        (4, 7, (1, 5, 4, 6, 2, 3)),
        (6, 17, (1, 15, 4, 9, 16, 2, 13, 8)),
    ],
)
def test_klein_signature_values(n, p, values):
    got_p, got_sig = klein_signature(n)
    assert got_p == p
    assert got_sig.values == values
    assert weight_of(klein(n), got_sig) == 0


def test_weight_of_mixed():
    F = CubicForm(3, {(0, 0, 0): 1, (0, 0, 1): 1})
    assert weight_of(F, Signature(5, (1, 2, 3, 4, 0))) is None


def test_partials_fermat():
    assert partials(fermat(2)) == [{(i, i): 3} for i in range(4)]


def test_partials_klein():
    d = partials(klein(3))
    assert d[0] == {(0, 1): 2, (4, 4): 1}
    for q in d:
        assert all(len(pair) == 2 for pair in q)


def test_partial_eigenvector_law():
    # d/dx_i maps a weight-a eigenform to a weight (a - sigma_i) eigenvector.
    rng = random.Random(9)
    cases = [(klein(3), klein_signature(3)[1], 0), (klein(5), klein_signature(5)[1], 0)]
    for _ in range(20):
        p = rng.choice((5, 7, 11))
        n = rng.randrange(2, 5)
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        a = rng.randrange(p)
        basis = eigenspace_basis(sig, a)
        if not basis.monomials:
            continue
        terms = {m: rng.randrange(1, 50) for m in basis.monomials}
        cases.append((CubicForm(n, terms), sig, a))
    for F, sig, a in cases:
        p = sig.p
        for i, dq in enumerate(partials(F)):
            for (x, y) in dq:
                assert (sig.values[x] + sig.values[y]) % p == (a - sig.values[i]) % p


def test_monomial_validation():
    with pytest.raises(ValueError):
        CubicForm(2, {(0, 2, 1): 1})
    with pytest.raises(ValueError):
        CubicForm(2, {(0, 1, 7): 1})


def test_form_json_roundtrip():
    F = klein(3)
    doc = form_to_json(F)
    assert form_from_json(doc) == F


def test_form_json_rejects_duplicates():
    doc = {"n": 2, "terms": [{"c": 1, "m": [0, 0, 0]}, {"c": 2, "m": [0, 0, 0]}]}
    with pytest.raises(ValueError):
        form_from_json(doc)


def test_form_json_rejects_unsorted():
    doc = {"n": 2, "terms": [{"c": 1, "m": [1, 0, 0]}]}
    with pytest.raises(ValueError):
        form_from_json(doc)


def test_monomial_weight_helper():
    sig = Signature(11, (1, 3, 4, 5, 9))
    assert monomial_weight((0, 0, 4), sig) == (1 + 1 + 9) % 11
