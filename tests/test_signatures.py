import random
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from cubiclass.admissibility import admissible_primes
from cubiclass.classify import _resolve_strategy, fermat_order_classes, fermat_realizes
from cubiclass.forms import CubicForm, lemma_base_feasible
from cubiclass.signatures import (
    AffinePermAction,
    Signature,
    act,
    canonicalize,
    check_walk,
    enumerate_orbits,
    equivalent,
    family_key,
    scaling_canonical,
    _canonical_values,
    _chain_multiset_count,
    _chain_multisets,
    _lead_shaped_multisets,
    orbit_count,
)
from cubiclass import signatures


def sorting_action(sig):
    order = sorted(range(len(sig.values)), key=lambda i: (sig.values[i], i))
    perm = [0] * len(order)
    for rank, idx in enumerate(order):
        perm[idx] = rank
    return AffinePermAction(sig.p, 1, 0, perm)


def brute_canonical(p, vals):
    # Reference oracle: smallest sorted vector over the whole affine sweep.
    return min(
        tuple(sorted((a * v + b) % p for v in vals))
        for a in range(1, p)
        for b in range(p)
    )


def random_action(rng, p, m):
    perm = list(range(m))
    rng.shuffle(perm)
    return AffinePermAction(p, rng.randrange(1, p), rng.randrange(p), perm)


def test_act_sorting_permutation():
    sig = Signature(11, (1, 9, 4, 3, 5))
    assert act(sig, sorting_action(sig)).values == (1, 3, 4, 5, 9)


def test_act_translation_kills_constant():
    sig = Signature(5, (1, 1, 1, 1, 1))
    g = AffinePermAction(5, 1, 4, range(5))
    assert act(sig, g).values == (0, 0, 0, 0, 0)


def test_act_scaling():
    sig = Signature(5, (0, 1, 2, 3, 4))
    g = AffinePermAction(5, 2, 0, range(5))
    assert act(sig, g).values == (0, 2, 4, 1, 3)


def test_signature_refuses_non_integers():
    # A float is not truncated and a boolean is not read as 0 or 1.
    with pytest.raises(ValueError):
        Signature(5, [0, 1.7, 2, 3])
    with pytest.raises(ValueError):
        Signature(5, [0, True, 2, 3])
    assert Signature(5, [0, 6, -1, 3]).values == (0, 1, 4, 3)


@pytest.mark.parametrize(
    "a, b, perm",
    [
        (1.5, 0, range(5)),
        (2, 0.0, range(5)),
        (True, 0, range(5)),
        (1, False, range(5)),
        (1, 0, [0.0, 1.0, 2.0, 3.0, 4.0]),
        (1, 0, [0, True, 2, 3, 4]),
    ],
    ids=repr,
)
def test_action_refuses_non_integers(a, b, perm):
    # A float is not reduced mod p, and a boolean is not read as 0 or 1.
    with pytest.raises(ValueError, match="a, b and perm must be integers"):
        AffinePermAction(5, a, b, perm)


def test_signature_needs_four_entries():
    with pytest.raises(ValueError, match=r"at least 4 entries \(n >= 2\)"):
        Signature(5, (0, 1, 2))


@pytest.mark.parametrize(
    "a, perm, message",
    [
        (10, range(4), "scaling part must be nonzero mod p"),
        (1, (0, 0, 1, 2), "perm is not a permutation"),
        (1, (1, 2, 3, 4), "perm is not a permutation"),
    ],
)
def test_action_refuses_zero_scaling_and_non_permutations(a, perm, message):
    with pytest.raises(ValueError, match=message):
        AffinePermAction(5, a, 0, perm)


def test_act_modulus_mismatch():
    with pytest.raises(ValueError):
        act(Signature(5, (0, 1, 2, 3)), AffinePermAction(7, 1, 0, range(4)))


def test_act_permutation_length_mismatch():
    with pytest.raises(ValueError, match="permutation length does not match"):
        act(Signature(5, (0, 1, 2, 3)), AffinePermAction(5, 1, 0, range(5)))


def test_act_is_group_action():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11))
        m = rng.randrange(4, 8)
        sig = Signature(p, [rng.randrange(p) for _ in range(m)])
        g = random_action(rng, p, m)
        h = random_action(rng, p, m)
        # h after g: entry h.perm[g.perm[j]] is h.a*(g.a*sigma_j + g.b) + h.b
        hg = AffinePermAction(
            p, h.a * g.a, h.a * g.b + h.b, [h.perm[g.perm[j]] for j in range(m)]
        )
        assert act(act(sig, g), h) == act(sig, hg)


def test_canonicalize_mod2_example():
    sig = Signature(2, (1, 1, 0, 0, 0))
    assert canonicalize(sig).values == (0, 0, 0, 1, 1)
    assert canonicalize(sig).values == brute_canonical(2, sig.values)


def test_canonicalize_zero_fixed():
    for p in (2, 5, 11):
        sig = Signature(p, (0,) * 5)
        assert canonicalize(sig).values == (0,) * 5


def test_canonicalize_klein_threefold_class():
    # The published representative (1,3,4,5,9) is not the lex-least vector in
    # its orbit, so equality holds at the level of classes, not tuples.
    sig = Signature(11, (1, 9, 4, 3, 5))
    canon = canonicalize(sig)
    assert canon.values == brute_canonical(11, sig.values)
    assert equivalent(canon, Signature(11, (1, 3, 4, 5, 9)))


def test_canonicalize_idempotent_and_orbit_constant():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 31, 127))
        m = rng.randrange(4, 8)
        sig = Signature(p, [rng.randrange(p) for _ in range(m)])
        g = random_action(rng, p, m)
        c = canonicalize(sig)
        assert c.values == brute_canonical(p, sig.values)
        assert canonicalize(act(sig, g)) == c
        assert canonicalize(c) == c


def tied_vector(rng, p, m):
    # Two or three values share the top multiplicity, so the lead block has
    # several candidate values u; the other values often tie below it.
    ties = rng.randrange(2, 4)
    top = rng.randrange(1, m // ties + 1)
    values = rng.sample(range(p), min(p, ties + m))
    vals = [v for v in values[:ties] for _ in range(top)]
    pool = [v for v in values[ties:] for _ in range(top)]
    need = m - len(vals)
    if len(pool) >= need:
        vals += rng.sample(pool, need)
    else:
        vals += [rng.randrange(p) for _ in range(need)]
    rng.shuffle(vals)
    return vals


def test_canonicalize_matches_brute_force_with_tied_multiplicities():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice((3, 5, 7, 11, 13, 31, 43))
        m = rng.randrange(4, 10)
        vals = tied_vector(rng, p, m)
        assert canonicalize(Signature(p, vals)).values == brute_canonical(p, vals)


def test_scaling_canonical_matches_sweep_over_every_scaling():
    rng = random.Random(29)
    for p in (2, 3, 5, 43, 683):
        for _ in range(60):
            m = rng.randrange(4, 10)
            vals = tied_vector(rng, p, m)
            sweep = min(tuple(sorted(a * v % p for v in vals)) for a in range(1, p))
            assert scaling_canonical(Signature(p, vals)).values == sweep


def test_fermat_realizes_reduces_values_mod_p():
    # Unreduced entries must count with their residues: shifting every
    # other entry by +p changes no answer.
    rng = random.Random(31)
    for n in (3, 4):
        for p, classes in fermat_order_classes(n).items():
            for vals in sorted(classes):
                moved = [v + p * (i % 2) for i, v in enumerate(vals)]
                assert fermat_realizes(n, p, vals, 0)
                assert fermat_realizes(n, p, moved, 0)
            for _ in range(40):
                vals = [rng.randrange(p) for _ in range(n + 2)]
                moved = [v + p * (i % 2) for i, v in enumerate(vals)]
                assert fermat_realizes(n, p, moved, 0) == fermat_realizes(
                    n, p, vals, 0
                )


def test_equivalent_examples():
    assert equivalent(Signature(2, (0, 0, 0, 1, 1)), Signature(2, (1, 1, 1, 0, 0)))
    assert equivalent(Signature(5, (0, 1, 2, 3, 4)), Signature(5, (0, 2, 4, 1, 3)))
    s1 = Signature(5, (0, 0, 1, 2, 3))
    s2 = Signature(5, (0, 1, 2, 3, 4))
    assert not equivalent(s1, s2)
    # brute force over all 20 affine maps confirms the negative case
    assert brute_canonical(5, s1.values) != brute_canonical(5, s2.values)


def test_equivalent_modulus_mismatch():
    with pytest.raises(ValueError):
        equivalent(Signature(5, (0, 1, 2, 3)), Signature(7, (0, 1, 2, 3)))


def test_equivalent_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        equivalent(Signature(5, (0, 1, 2, 3)), Signature(5, (0, 1, 2, 3, 4)))


def test_normalize_weight_identity():
    # family_key leaves a weight-0 pair at weight 0 and only scales sigma.
    sig = Signature(5, (0, 0, 0, 0, 0))
    assert family_key(sig, 0) == (0, sig.values)
    sig = Signature(11, (2, 6, 8, 10, 7))
    assert family_key(sig, 0) == (0, scaling_canonical(sig).values)


def test_normalize_weight_example():
    # Weight 1 mod 5 moves to 0 by b = -1/3 = 3, so sigma + 3 = (4, 0, 1, 2, 3),
    # whose least scaling is (0, 1, 2, 3, 4).
    sig = Signature(5, (1, 2, 3, 4, 0))
    assert family_key(sig, 1) == (0, (0, 1, 2, 3, 4))


def test_scaling_canonical_preserves_multiset_class():
    sig = Signature(11, (1, 3, 4, 5, 9))
    assert scaling_canonical(sig).values == (1, 3, 4, 5, 9)
    assert scaling_canonical(Signature(11, (2, 6, 8, 10, 7))).values == (1, 3, 4, 5, 9)


def brute_family_key(p, vals, a):
    # Reference oracle: smallest (weight, sorted sigma) over every (l, b).
    return min(
        ((l * a + 3 * b) % p, tuple(sorted((l * v + b) % p for v in vals)))
        for l in range(1, p)
        for b in range(p)
    )


def test_family_key_matches_sweep_over_every_scaling_and_translation():
    rng = random.Random(37)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(40):
            m = rng.randrange(4, 9)
            sig = Signature(p, tied_vector(rng, p, m))
            for a in range(p):
                key = family_key(sig, a)
                assert key == brute_family_key(p, sig.values, a)
                g = random_action(rng, p, m)
                assert family_key(act(sig, g), g.a * a + 3 * g.b) == key


def test_family_key_folds_weight_two_onto_one_exactly_when_p3_doubling_translates():
    rng = random.Random(41)
    for _ in range(200):
        sig = Signature(3, tied_vector(rng, 3, rng.randrange(4, 10)))
        ref = tuple(sorted(sig.values))
        translate = any(
            tuple(sorted((2 * v + b) % 3 for v in sig.values)) == ref
            for b in range(3)
        )
        assert (family_key(sig, 1) == family_key(sig, 2)) == translate


@pytest.mark.parametrize("weight", [0.0, 1.0, False, True], ids=repr)
@pytest.mark.parametrize("p", [3, 5])
def test_family_key_refuses_non_integer_weights(p, weight):
    # At p = 3 a float weight gave a float key and True was read as 1; at
    # p = 5 a float failed later, inside Signature.  The int is accepted.
    sig = Signature(p, (0, 1, 2, 0, 1))
    with pytest.raises(ValueError, match="weight must be an integer"):
        family_key(sig, weight)
    assert all(type(v) is int for v in family_key(sig, int(weight))[1])


def orbit_partition_oracle(p, m):
    """Union-find over the full vector space under generator moves."""
    vectors = list(product(range(p), repeat=m))
    index = {v: i for i, v in enumerate(vectors)}
    parent = list(range(len(vectors)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for v in vectors:
        i = index[v]
        union(i, index[tuple((x + 1) % p for x in v)])
        if p > 2:
            union(i, index[tuple(2 * x % p for x in v)])
        union(i, index[v[1:] + v[:1]])
        union(i, index[(v[1], v[0]) + v[2:]])
    roots = {find(i) for i in range(len(vectors))}
    zero_root = find(index[(0,) * m])
    return len(roots) - 1, zero_root  # classes excluding zero


def test_enumerate_p2_n3():
    got = [s.values for s in enumerate_orbits(2, 3)]
    assert got == [(0, 0, 0, 0, 1), (0, 0, 0, 1, 1)]


def test_enumerate_counts():
    assert len(enumerate_orbits(3, 3)) == 4
    assert len(enumerate_orbits(3, 4)) == 6


def test_enumerate_against_orbit_partition():
    # The oracle's scaling move is x -> 2x, so p > 2 must have 2 as a
    # primitive root.
    for p, m in ((2, 5), (3, 4), (5, 4), (11, 4), (13, 4)):
        count, _ = orbit_partition_oracle(p, m)
        assert len(enumerate_orbits(p, m - 2)) == count


def burnside_orbit_count(p, n):
    """Nonzero orbits of AGL(1, p) on (n+2)-multisets of Z/p (cycle index).

    A reference for signatures.orbit_count: it walks every a in F_p^* and
    finds each order by repeated multiplication."""
    N = n + 2
    total = comb(p + N - 1, N)  # identity
    if N % p == 0:
        total += p - 1  # translations: one p-cycle each
    for a in range(2, p):
        o, x = 1, a
        while x != 1:
            x, o = x * a % p, o + 1
        c = (p - 1) // o
        # x -> a*x + b: one fixed point and c cycles of length o, for each b.
        total += p * sum(comb(j + c - 1, c - 1) for j in range(N // o + 1))
    assert total % (p * (p - 1)) == 0
    return total // (p * (p - 1)) - 1


@pytest.mark.parametrize(
    "p,n,count",
    [
        (2, 3, 2), (2, 7, 4), (3, 2, 3), (3, 4, 6), (3, 6, 9), (5, 3, 8),
        (5, 5, 19), (7, 4, 27), (11, 4, 79), (11, 7, 853), (13, 4, 129),
        (17, 5, 912), (43, 3, 856),
    ],
)
def test_enumerate_matches_burnside_count(p, n, count):
    assert burnside_orbit_count(p, n) == count
    assert orbit_count(p, n) == count
    assert len(enumerate_orbits(p, n, "exhaustive", 10**10)) == count


def test_exhaustive_walk_is_exactly_the_lead_shaped_multisets():
    # Lead shape read off the multiplicities: 0 has the top multiplicity,
    # and 1 the top multiplicity among the nonzero values.
    def lead_shaped(c):
        counts = Counter(c)
        rest = [k for v, k in counts.items() if v != 0]
        return (
            counts[0] == max(counts.values())
            and bool(rest)
            and counts[1] == max(rest)
        )

    for p, slots in ((2, 5), (3, 8), (5, 5), (7, 8), (11, 5), (13, 4)):
        walk = list(_lead_shaped_multisets(p, slots))
        assert len(walk) == len(set(walk))
        assert all(list(c) == sorted(c) for c in walk)
        brute = {
            c
            for c in combinations_with_replacement(range(p), slots)
            if lead_shaped(c)
        }
        assert set(walk) == brute


def test_enumerate_budget():
    # Over budget is input out of range, named by p, n, the candidate
    # count and the budget; the budget is still the fourth positional.
    work = orbit_count(11, 4) * 6 * 5
    with pytest.raises(ValueError) as info:
        enumerate_orbits(11, 4, "exhaustive", 1000)
    assert str(info.value) == (
        f"p=11, n=4: {work} lead-block candidates exceed budget 1000; "
        "use the chain_pruned strategy"
    )


@pytest.mark.parametrize(
    "p, n, strategy, budget",
    [(11, 4, "exhaustive", 1000), (3, 2, "exhaustive", 10),
     (43, 8, "chain_pruned", 10), (43, 22, "chain_pruned", 10**8)],
)
def test_check_walk_is_the_budget_enumerate_orbits_applies(p, n, strategy, budget):
    # classify checks every prime with check_walk before the first walk;
    # enumerate_orbits refuses with the same call, so the two agree.
    with pytest.raises(ValueError) as checked:
        check_walk(p, n, strategy, budget)
    with pytest.raises(ValueError) as walked:
        enumerate_orbits(p, n, strategy, budget)
    assert str(checked.value) == str(walked.value)
    assert "exceed budget" in str(checked.value)
    if n < 22:
        assert check_walk(p, n, strategy) is None


@pytest.mark.parametrize(
    "p, slots",
    [(2, 4), (2, 9), (3, 4), (3, 12), (5, 7), (7, 6), (11, 6), (17, 5), (43, 4)],
)
def test_lead_shaped_count_is_the_walk_length(p, slots, monkeypatch):
    # The budget reads orbit_count: the walk calls _lead_blocks once per
    # class, and it visits at least that many multisets, exactly that many
    # at p <= 3, where every lead-shaped multiset is its own class.
    walk = sum(1 for _ in _lead_shaped_multisets(p, slots))
    count = orbit_count(p, slots - 2)
    assert walk >= count and (walk == count or p > 3)
    calls, lead_blocks = [], signatures._lead_blocks

    def counting(p, vals, translate=True):
        calls.append(vals)
        return lead_blocks(p, vals, translate)

    monkeypatch.setattr(signatures, "_lead_blocks", counting)
    assert len(enumerate_orbits(p, slots - 2)) == len(calls) == count


def test_exhaustive_walk_raises_on_a_missed_class(monkeypatch):
    # (0, 0, 0, 0, 0, 1) is the only lead-shaped member of its class, so a
    # walk without it emits 78 of the 79 classes.  That is a fault, not an
    # input error, so it is no ValueError (exit 2 in the CLI).
    walk = signatures._lead_shaped_multisets
    monkeypatch.setattr(
        signatures,
        "_lead_shaped_multisets",
        lambda p, slots: (v for v in walk(p, slots) if v != (0, 0, 0, 0, 0, 1)),
    )
    with pytest.raises(RuntimeError, match="walk emitted 78 classes, not 79") as info:
        enumerate_orbits(11, 4)
    assert not isinstance(info.value, ValueError)


def test_orbit_count_matches_brute_force_orbits():
    # Every (n+2)-multiset of Z/p under all p(p-1) maps x -> a*x + b.
    for p in (2, 3, 5, 7):
        for slots in (4, 5, 6):
            seen, orbits = set(), 0
            for c in combinations_with_replacement(range(p), slots):
                if c not in seen:
                    orbits += 1
                    seen |= {
                        tuple(sorted((a * v + b) % p for v in c))
                        for a in range(1, p)
                        for b in range(p)
                    }
            assert orbit_count(p, slots - 2) == orbits - 1, (p, slots)


def test_orbit_count_at_p2_and_the_budget_thresholds():
    # At p = 2 the classes are 0^(n+2-k) 1^k, 1 <= k <= (n+2)/2.  The least
    # n whose walk exceeds the default budget of 10^8 lead-block candidates
    # is the README's: 183 at p = 3 and 584 at p = 2.
    for n in range(2, 601):
        assert orbit_count(2, n) == (n + 2) // 2
    for p, first in ((3, 183), (2, 584)):
        over = [orbit_count(p, n) * (n + 2) * (n + 1) > 10**8 for n in range(2, 700)]
        assert over.index(True) + 2 == first


def test_orbit_count_is_the_exhaustive_class_count():
    # Every prime the classifier walks exhaustively at n <= 16, and the
    # small primes at n <= 5 (61 pairs, 52 distinct).
    cases = {(p, n) for p in (5, 7, 11, 13) for n in range(2, 6)}
    for n in range(2, 17):
        cases |= {
            (p, n)
            for p in admissible_primes(n)
            if _resolve_strategy(p, n) == "exhaustive"
        }
    assert len(cases) == 52
    for p, n in sorted(cases):
        assert orbit_count(p, n) == len(enumerate_orbits(p, n, "exhaustive")), (p, n)


def test_exhaustive_budget_bounds_the_walk_not_the_raw_signatures():
    # 3^17 raw signatures exceed the default budget, but there are 32
    # classes; a walk larger than the budget is still refused.
    assert orbit_count(3, 15) == 32
    assert len(enumerate_orbits(3, 15, "exhaustive")) == burnside_orbit_count(3, 15)
    work = 32 * 17 * 16
    assert enumerate_orbits(3, 15, "exhaustive", budget=work)
    with pytest.raises(ValueError, match=f"p=3, n=15: {work} lead-block"):
        enumerate_orbits(3, 15, "exhaustive", budget=work - 1)


def test_chain_pruned_klein_fivefold():
    got = enumerate_orbits(43, 5, "chain_pruned")
    assert len(got) == 1
    assert equivalent(got[0], Signature(43, (1, 41, 4, 35, 16, 11, 21)))


def test_chain_pruned_rejects_small_p():
    with pytest.raises(ValueError):
        enumerate_orbits(2, 3, "chain_pruned")
    with pytest.raises(ValueError):
        enumerate_orbits(3, 3, "chain_pruned")


def test_enumerate_orbits_refuses_an_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
        enumerate_orbits(5, 3, "greedy")


def test_chain_pruned_walks_nothing_at_an_inadmissible_prime():
    # ord_13(-2) = 12 > n + 2 = 6: the coset of 1 fits in no multiset.
    assert enumerate_orbits(13, 4, "chain_pruned") == []


def exhaustive_cases():
    """Admissible p > 3 at n <= 7 with a small exhaustive walk: the 16 pairs
    whose lead-shaped multisets times (n+2)(n+1) are at most 2e6."""
    return [
        (5, 2), (5, 3), (11, 3), (5, 4), (7, 4), (11, 4), (5, 5), (7, 5),
        (11, 5), (5, 6), (7, 6), (11, 6), (17, 6), (5, 7), (7, 7), (11, 7),
    ]


def test_chain_pruned_subset_of_exhaustive():
    # chain_pruned skips exactly the classes that fail the lemma at every
    # weight on each of the exhaustive cases.
    cases = exhaustive_cases()
    assert len(cases) == 16
    for p, n in cases:
        chain = {s.values for s in enumerate_orbits(p, n, "chain_pruned")}
        full = {
            s.values
            for s in enumerate_orbits(p, n)
            if any(lemma_base_feasible(s, a)[0] for a in range(p))
        }
        assert chain == full, (p, n)


def test_chain_walk_canonicalizes_least_scalings_only():
    # Chain multisets that differ by a scaling share a class, so the walk
    # canonicalizes only their least scalings; the class lists equal those
    # of canonicalizing every multiset.
    cases = exhaustive_cases() + [(p, 12) for p in admissible_primes(12) if p > 3]
    for p, n in cases:
        every = sorted({_canonical_values(p, v) for v in _chain_multisets(p, n)})
        chain = [s.values for s in enumerate_orbits(p, n, "chain_pruned")]
        assert chain == every, (p, n)


def test_chain_multiset_count_is_the_walk_length():
    # The chain budget reads the closed form, never the walk: they agree at
    # every admissible p > 3 for n = 2..14 where the walk is small.
    cases = 0
    for n in range(2, 15):
        for p in admissible_primes(n):
            count = _chain_multiset_count(p, n)
            if p > 3 and count <= 2 * 10**5:
                assert count == sum(1 for _ in _chain_multisets(p, n)), (p, n)
                cases += 1
    assert cases == 91


def test_chain_budget_first_refuses_p43_at_n22():
    # n + 2 scaling candidates per chain multiset: p = 43 fits the default
    # budget at n = 21 and is refused before any walk at n = 22, and no
    # prime classify walks chain-pruned below n = 22 is refused.
    assert _chain_multiset_count(43, 21) == 4_333_637
    assert 4_333_637 * 23 <= 10**8
    assert _chain_multiset_count(43, 22) == 10_172_624
    with pytest.raises(ValueError) as info:
        enumerate_orbits(43, 22, "chain_pruned")
    assert str(info.value) == (
        f"p=43, n=22: {10_172_624 * 24} scaling candidates exceed budget "
        "100000000; no strategy prunes further"
    )
    for n in range(2, 22):
        for p in admissible_primes(n):
            if _resolve_strategy(p, n) == "chain_pruned":
                assert _chain_multiset_count(p, n) * (n + 2) <= 10**8, (p, n)


def test_chain_multisets_are_closed_unions_holding_one():
    # Every chain multiset fits its n + 2 slots without a length check: it
    # is sorted, holds 1, and its nonzero values are closed under x -> -2x.
    # At (43, 12) two of the six cosets of <-2> fit, so the walk takes a
    # second one.
    for p, n in exhaustive_cases() + [(43, 12), (683, 9)]:
        multisets = list(_chain_multisets(p, n))
        assert multisets, (p, n)
        for vals in multisets:
            assert len(vals) == n + 2 and list(vals) == sorted(vals), (p, n, vals)
            assert 1 in vals, (p, n, vals)
            nonzero = set(vals) - {0}
            assert {-2 * v % p for v in nonzero} == nonzero, (p, n, vals)


@pytest.mark.parametrize("n", [2.5, "3", 3.0, True, 1])
def test_enumerate_orbits_checks_dimension_like_cubic_form(n):
    # One check for every entry point: floats and strings are refused with
    # ValueError, not TypeError from range or <.
    for call in (
        lambda: enumerate_orbits(5, n),
        lambda: enumerate_orbits(5, n, "chain_pruned"),
        lambda: CubicForm(n, {}),
    ):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            call()


def test_walks_emit_increasing_nonconstant_classes():
    # classify_with_audit keeps this order for its rejected rows, and no
    # walk needs a filter for the zero class.
    cases = {(683, 9, "chain_pruned"), (11, 7, "exhaustive"), (17, 5, "exhaustive")}
    for n in range(2, 11):
        for p in admissible_primes(n):
            cases.add((p, n, _resolve_strategy(p, n)))
            if p > 3:
                cases.add((p, n, "chain_pruned"))
    assert {s for _, _, s in cases} == {"exhaustive", "chain_pruned"}
    for p, n, strategy in sorted(cases):
        got = [s.values for s in enumerate_orbits(p, n, strategy)]
        assert all(a < b for a, b in zip(got, got[1:])), (p, n, strategy)
        assert all(len(set(v)) > 1 for v in got), (p, n, strategy)


@pytest.mark.parametrize(
    "p,n,rep",
    [
        (5, 3, (0, 1, 2, 3, 4)),
        (11, 3, (1, 3, 4, 5, 9)),
        (11, 4, (0, 1, 3, 4, 5, 9)),
        (7, 4, (1, 2, 3, 4, 5, 6)),
        (43, 5, (1, 41, 4, 35, 16, 11, 21)),
    ],
)
def test_chain_pruned_contains_published_families(p, n, rep):
    target = canonicalize(Signature(p, rep)).values
    assert target in {s.values for s in enumerate_orbits(p, n, "chain_pruned")}


def test_chain_pruned_large_prime_single_class():
    got = enumerate_orbits(683, 9, "chain_pruned")
    assert len(got) == 1
    klein_like = Signature(683, [pow(-2, i, 683) for i in range(11)])
    assert equivalent(got[0], klein_like)
