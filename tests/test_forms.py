import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

from cubiclass.admissibility import admissible_primes, minus_two_order
from cubiclass.forms import (
    CubicForm,
    coordinate_subspace_obstruction,
    eigenspace_basis,
    fermat,
    form_from_json,
    form_to_json,
    invertible_member,
    klein,
    klein_signature,
    lemma_base_feasible,
    partials,
    weight_of,
)
from cubiclass.classify import _resolve_strategy, classify, fermat_realizes
from cubiclass.signatures import AffinePermAction, Signature, act, enumerate_orbits
from cubiclass.smoothness import DEFAULT_MODULI, is_smooth_mod_q
from form_helpers import (
    brute_order,
    eigenspace_scan,
    greedy_invertible_member,
    relabel,
    s3_dimension,
)


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


def test_eigenspace_basis_matches_the_triple_scan():
    # Same monomials in the same order, at weights outside range(p) too.
    rng = random.Random(17)
    cases = [(3, 60), (43, 20)] + [
        (rng.choice((2, 3, 5, 7, 11, 13, 43, 683)), rng.randrange(2, 9)) for _ in range(3000)
    ]
    for p, n in cases:
        sig = Signature(p, [rng.randrange(p) for _ in range(n + 2)])
        a = rng.randrange(-p, 2 * p)
        assert eigenspace_basis(sig, a).monomials == eigenspace_scan(sig, a), (sig, a)


WEIGHT_TAKERS = {
    "eigenspace_basis": lambda a: eigenspace_basis(Signature(5, (0, 1, 2, 3, 4)), a),
    "lemma_base_feasible": lambda a: lemma_base_feasible(Signature(5, (0, 1, 2, 3, 4)), a),
    "invertible_member": lambda a: invertible_member(Signature(5, (0, 1, 2, 3, 4)), a),
    "coordinate_subspace_obstruction":
        lambda a: coordinate_subspace_obstruction(Signature(5, (0, 1, 2, 3, 4)), a),
    "fermat_realizes": lambda a: fermat_realizes(3, 5, (0, 1, 2, 3, 4), a),
}


@pytest.mark.parametrize("weight", [0.0, 5.0, False, True], ids=repr)
@pytest.mark.parametrize("name", sorted(WEIGHT_TAKERS))
def test_weights_must_be_integers(name, weight):
    # A float is not truncated and a bool is not read as 0 or 1; the int
    # weights 0 and 5 are accepted.
    with pytest.raises(ValueError, match="weight must be an integer"):
        WEIGHT_TAKERS[name](weight)
    WEIGHT_TAKERS[name](int(weight))


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


def _invertible_blocks(monomials, nv):
    """Split x_i^2 x_j(i) terms into Fermat, chain and loop blocks, or fail.

    Each variable must be squared in exactly one term and no index may be
    the target j of two others; then following i -> j(i) from a variable
    no other one targets ends in a cube (a Fermat cube or a chain), and the
    variables left over lie on loops.
    """
    target = {}
    for m in monomials:
        i = next(v for v in m if m.count(v) >= 2)
        assert i not in target, m
        target[i] = (set(m) - {i} or {i}).pop()
    assert sorted(target) == list(range(nv))
    moved = [j for i, j in target.items() if j != i]
    assert len(moved) == len(set(moved))
    blocks, seen = [], set()
    for head in sorted(set(target) - set(moved)):
        block = [head]
        while target[block[-1]] != block[-1]:
            block.append(target[block[-1]])
        blocks.append(("fermat" if len(block) == 1 else "chain", block))
        seen |= set(block)
    for start in range(nv):
        if start in seen:
            continue
        block = [start]
        while target[block[-1]] != start:
            block.append(target[block[-1]])
        blocks.append(("loop", block))
        seen |= set(block)
    return blocks


def _admits_invertible_member(sig, a):
    p, vals = sig.p, sig.values
    choices = [
        [j for j, w in enumerate(vals) if (2 * v + w) % p == a % p]
        for v in vals
    ]
    for pick in product(*choices):
        moved = [j for i, j in enumerate(pick) if j != i]
        if len(moved) == len(set(moved)):
            return True
    return False


@pytest.mark.parametrize("p, nv", [(2, 6), (3, 5), (5, 5), (7, 4)])
def test_invertible_member_against_brute_force(p, nv):
    # Every signature and weight: None exactly when no choice of targets
    # exists, in particular whenever the lemma fails; otherwise n + 2
    # eigenspace monomials, one per variable, with no index the target of
    # two others.
    for vals in product(range(p), repeat=nv):
        sig = Signature(p, vals)
        for a in range(p):
            mons = invertible_member(sig, a)
            if mons is None:
                assert not _admits_invertible_member(sig, a), (vals, a)
                assert coordinate_subspace_obstruction(sig, a) is not None, (vals, a)
                continue
            assert lemma_base_feasible(sig, a)[0], (vals, a)
            assert set(mons) <= set(eigenspace_basis(sig, a).monomials)
            _invertible_blocks(mons, nv)


def test_invertible_member_examples():
    # Chains ending in a cube: T_2^1 is x4^2 x0 + x0^3 beside three cubes,
    # T_2^2 has two such chains.
    assert invertible_member(Signature(2, (0, 0, 0, 0, 1)), 0) == (
        (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (0, 4, 4),
    )
    mons = invertible_member(Signature(2, (0, 0, 0, 1, 1)), 0)
    assert _invertible_blocks(mons, 5) == [
        ("fermat", [2]), ("chain", [3, 0]), ("chain", [4, 1]),
    ]
    # Loops: the Klein threefold and fivefold are their own invertible
    # member, and F_3^7 is two loops of length 3.
    for n in (3, 5):
        _, sig = klein_signature(n)
        assert set(invertible_member(sig, 0)) == set(klein(n).terms)
    mons = invertible_member(Signature(3, (0, 0, 1, 1, 2, 2)), 1)
    assert _invertible_blocks(mons, 6) == [("loop", [0, 2, 4]), ("loop", [1, 3, 5])]
    # The lemma holds, but the loop 1 -> 3 -> 4 -> 2 -> 1 of values has two
    # indices of value 1 and only one of value 3.
    sig = Signature(5, (0, 1, 1, 2, 3, 4))
    assert lemma_base_feasible(sig, 0)[0]
    assert invertible_member(sig, 0) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_invertible_member_matches_the_greedy_search(n):
    # The same targets as the least-free-index search, on every class the
    # classifier walks and every weight.
    for p in admissible_primes(n):
        for sig in enumerate_orbits(p, n, _resolve_strategy(p, n)):
            for a in range(p):
                expected = greedy_invertible_member(sig, a)
                assert invertible_member(sig, a) == expected, (sig.values, a)


def test_invertible_member_matches_the_greedy_search_at_random():
    # Whole cycles of v -> a - 2v, padded with the cube value a/3, leave
    # the eigenspace unobstructed; one value in four signatures is then
    # redrawn, which mostly obstructs it.  The shuffle interleaves the
    # indices of each value with the others'.
    rng = random.Random(11)
    found = 0
    for _ in range(1500):
        p = rng.choice((5, 7, 11, 13, 43))
        n = rng.randrange(2, 41)
        a = rng.randrange(p)
        vals = []
        while True:
            cycle = [rng.randrange(p)]
            while (a - 2 * cycle[-1]) % p != cycle[0]:
                cycle.append((a - 2 * cycle[-1]) % p)
            if len(vals) + len(cycle) > n + 2:
                break
            vals += cycle
        vals += [a * pow(3, -1, p) % p] * (n + 2 - len(vals))
        if rng.random() < 0.25:
            vals[rng.randrange(n + 2)] = rng.randrange(p)
        rng.shuffle(vals)
        sig = Signature(p, vals)
        mons = invertible_member(sig, a)
        assert mons == greedy_invertible_member(sig, a), (vals, a)
        found += mons is not None
    assert found > 1000


def test_every_witness_is_an_invertible_member():
    # Each witness is the invertible member itself: n + 2 ones on a
    # disjoint sum of Fermat, chain and loop blocks, certified at the
    # first modulus.
    kinds = set()
    for n in range(2, 9):
        for p in admissible_primes(n):
            for r in classify(n, p):
                coeffs, cert = r.witness
                support = [m for m, c in zip(r.basis, coeffs) if c]
                assert sorted(coeffs) == [0] * (len(coeffs) - n - 2) + [1] * (n + 2)
                kinds |= {k for k, _ in _invertible_blocks(support, n + 2)}
                assert cert.modulus == DEFAULT_MODULI[0]
                F = CubicForm(n, {m: 1 for m in support})
                assert is_smooth_mod_q(F, DEFAULT_MODULI[0]) == cert, (p, r.label)
    assert kinds == {"fermat", "chain", "loop"}


def test_coordinate_subspace_obstruction_examples():
    # the empty F_5^2 family: singular where only x_0, x_1 are nonzero
    assert coordinate_subspace_obstruction(Signature(5, (1, 1, 2, 2, 3, 4)), 0) == (0, 1)
    assert coordinate_subspace_obstruction(Signature(3, (0, 0, 1, 1, 2)), 1) == (2, 3)
    assert coordinate_subspace_obstruction(Signature(5, (0, 1, 2, 3, 4)), 0) is None


def _index_subset_obstruction(sig, a):
    """The criterion searched over index subsets T, smallest first."""
    p, vals = sig.p, sig.values
    partner = [(a - v) % p for v in vals]  # weight of m in x_k * m
    for size in range(1, len(vals) + 1):
        for T in combinations(range(len(vals)), size):
            quads = {
                (vals[i] + vals[j]) % p
                for i, j in combinations_with_replacement(T, 2)
            }
            if sum(w in quads for w in partner) < size:
                return T
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_value_set_search_matches_index_subsets(n):
    # Same verdict on every class the classifier walks and every weight,
    # though only one-value sets are tried: the T returned is exactly the
    # indices of one value, since an invertible member rules out every
    # larger obstruction.
    for p in admissible_primes(n):
        for sig in enumerate_orbits(p, n, _resolve_strategy(p, n)):
            for a in range(p):
                T = coordinate_subspace_obstruction(sig, a)
                assert (T is None) == (_index_subset_obstruction(sig, a) is None), (
                    sig.values, a,
                )
                if T is not None:
                    (v,) = {sig.values[i] for i in T}
                    assert T == tuple(i for i, w in enumerate(sig.values) if w == v)


@pytest.mark.parametrize("n", [3, 4])
def test_obstruction_of_size_one_is_the_lemma(n):
    # The value set V found has one value exactly when there is no
    # invertible member.  For V = {v} the counted k are the indices of
    # value a - 2v, and a count of 0 is exactly the lemma failing there.
    for sig, a in _class_weights(n):
        p, vals = sig.p, sig.values
        T = coordinate_subspace_obstruction(sig, a)
        V = {vals[i] for i in T} if T is not None else set()
        assert (len(V) == 1) == (invertible_member(sig, a) is None), (vals, a)
        mult = Counter(vals)
        zero = [i for i, v in enumerate(vals) if mult[(a - 2 * v) % p] == 0]
        feasible, i = lemma_base_feasible(sig, a)
        assert feasible == (not zero)
        if not feasible:
            assert i == zero[0]
        if len(V) == 1:
            (v,) = V
            counted = [k for k, w in enumerate(vals) if (a - w - 2 * v) % p == 0]
            assert len(counted) < len(T)
            assert (not counted) <= (not feasible)


@pytest.mark.parametrize("n", [3, 4])
def test_obstructed_members_are_singular(n):
    rng = random.Random(n)
    seen = 0
    # Obstructions past the lemma: its own failures are proven singular at
    # a coordinate point, and their eigenspaces may be empty.
    for sig, a in _class_weights(n):
        T = coordinate_subspace_obstruction(sig, a)
        if T is None or not lemma_base_feasible(sig, a)[0]:
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
        assert relabel(F, shift) == F


def test_klein_shift_signature_class():
    # The cyclic relabeling of klein(3) is an order-5 automorphism whose
    # diagonalization has all fifth roots of unity: class (0,1,2,3,4) mod 5.
    from cubiclass.signatures import equivalent
    from fermat_oracle import FermatGroupElement, element_order_and_signature

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


def test_klein_signature_takes_the_largest_prime_of_full_order():
    # Zsigmondy gives every n >= 2 a prime of full order, never 2 or 3;
    # n = 98 is the last dimension the admissible tables reach.  The largest
    # such prime is checked against a brute-force order up to n = 14.
    for n in range(2, 99):
        p, sig = klein_signature(n)
        assert p > 3 and minus_two_order(p, n) == n + 2, n
        assert sig.values == tuple(pow(-2, i, p) for i in range(n + 2))
        if n <= 14:
            full = [q for q in admissible_primes(n) if q > 3 and brute_order(-2, q) == n + 2]
            assert p == max(full), n


def test_weight_of_mixed():
    F = CubicForm(3, {(0, 0, 0): 1, (0, 0, 1): 1})
    assert weight_of(F, Signature(5, (1, 2, 3, 4, 0))) is None


def test_weight_of_refuses_a_signature_of_the_wrong_length():
    with pytest.raises(ValueError, match="signature length does not match form dimension"):
        weight_of(fermat(3), Signature(5, (0, 1, 2, 3)))


def test_partials_fermat():
    assert partials(fermat(2)) == [{(i, i): 3} for i in range(4)]


def test_partials_klein():
    d = partials(klein(3))
    assert d[0] == {(0, 1): 2, (4, 4): 1}
    for q in d:
        assert all(len(pair) == 2 for pair in q)


def test_partials_have_one_nonzero_term_per_key():
    # A key of the partial in x_v is m minus one v, which determines m, so
    # no two terms of F meet on a key: every coefficient is c * m.count(v),
    # never zero, and the keys number sum over m of |set(m)|.
    rng = random.Random(13)
    for n in range(2, 7):
        monomials = list(combinations_with_replacement(range(n + 2), 3))
        for _ in range(20):
            chosen = rng.sample(monomials, rng.randrange(1, len(monomials) + 1))
            terms = {m: rng.choice((-1, 1)) * rng.randrange(1, 10**6) for m in chosen}
            qs = partials(CubicForm(n, terms))
            assert all(c != 0 for q in qs for c in q.values())
            assert sum(map(len, qs)) == sum(len(set(m)) for m in terms)


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


@pytest.mark.parametrize(
    "n, terms",
    [
        (2, {(0, 0, 0): 1.5}),
        (2, {(1, 1, 2.9): 1}),
        (2, {(0, 0, 0): True}),
        (2, {(0, 0, True): 1}),
        (2.0, {(0, 0, 0): 1}),
    ],
)
def test_cubic_form_refuses_non_integers(n, terms):
    # Floats are not truncated and booleans are not read as 0 or 1.
    with pytest.raises(ValueError):
        CubicForm(n, terms)


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


MALFORMED_TERMS = [
    ["cm"],
    [1],
    [{"c": 1, "m": 5}],
    [{"c": 1, "m": [[0], 0, 0]}],
    [{"c": 1, "m": "000"}],
    [{"c": 1, "m": [0, 0, True]}],
]


@pytest.mark.parametrize("terms", MALFORMED_TERMS, ids=repr)
def test_form_json_rejects_malformed_terms(terms):
    # Each entry is a dict with exactly c and m, m a list of ints; these
    # raised TypeError with Python's own messages before.
    with pytest.raises(ValueError, match="bad term entry"):
        form_from_json({"n": 2, "terms": terms})


def test_form_json_terms_must_be_a_list():
    with pytest.raises(ValueError, match="a 'terms' list"):
        form_from_json({"n": 2, "terms": 5})


def test_monomial_weight_helper():
    # A one-term form has the weight of its monomial.
    sig = Signature(11, (1, 3, 4, 5, 9))
    assert weight_of(CubicForm(3, {(0, 0, 4): 1}), sig) == (1 + 1 + 9) % 11
