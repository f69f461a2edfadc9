import json
import random
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from cubiclass.cli import GOLDEN_DIR
from cubiclass.forms import CubicForm, eigenspace_basis, fermat, klein, klein_signature
from cubiclass.hodge import (
    KLEIN5_TANGENT_EXPONENTS,
    SpectrumSet,
    is_stable_under,
    jacobian_ring_character,
    klein_tangent_spectrum,
)
from cubiclass.signatures import Signature
from cubiclass.smoothness import (
    DEFAULT_MODULI,
    certify_smooth_over_Q,
    complete_intersection_dim,
)
from rank_oracle import rank_character

ORACLE_MODULI = (10007, 30011)


def multiset_difference_oracle(sig, d):
    """Degree-d weights minus one copy of each partial weight (-sigma_i).

    Valid whenever the partials are independent and pairwise in distinct
    weight subspaces, which holds for the Klein forms since the -sigma_i
    are pairwise distinct.
    """
    p = sig.p
    counts = Counter(
        sum(sig.values[i] for i in m) % p
        for m in combinations_with_replacement(range(len(sig.values)), d)
    )
    if d >= 2:
        for v in sig.values:
            counts[(-v) % p] -= 1
    return tuple(sorted(counts.elements()))


def koszul_cases():
    for n in (3, 5, 7):
        p, sig = klein_signature(n)
        yield klein(n), sig
    rng = random.Random(11)
    # the last case is the weight-1 eigenspace of F_3^7
    for p, vals, a in ((3, (0, 0, 1, 1, 2, 2), 0), (5, (0, 0, 1, 4, 2, 3), 0),
                       (11, (0, 1, 3, 4, 5, 9), 0), (3, (0, 0, 1, 1, 2, 2), 1)):
        sig = Signature(p, vals)
        monos = eigenspace_basis(sig, a).monomials
        yield CubicForm(4, {m: rng.randint(1, 1000) for m in monos}), sig


def test_character_matches_koszul_series():
    # The library reads the Koszul series; the oracle ranks the Jacobian
    # slice weight block by weight block, at two moduli.
    for F, sig in koszul_cases():
        assert certify_smooth_over_Q(F) is not None
        for d in range(F.n + 3):
            spec = jacobian_ring_character(F, sig, d)
            for q in ORACLE_MODULI:
                exps, rank = rank_character(F, sig, d, q)
                assert rank == complete_intersection_dim(F.n + 2, d), (sig, d, q)
                assert spec.exponents == exps, (sig, d, q)


def test_degree_zero_is_constants():
    p, sig = klein_signature(3)
    spec = jacobian_ring_character(klein(3), sig, 0)
    assert spec.exponents == (0,)


def test_klein_threefold_degree_one():
    p, sig = klein_signature(3)
    spec = jacobian_ring_character(klein(3), sig, 1)
    assert spec.exponents == (1, 3, 4, 5, 9)
    assert spec.exponents == multiset_difference_oracle(sig, 1)


def test_klein_fivefold_degree_two():
    p, sig = klein_signature(5)
    spec = jacobian_ring_character(klein(5), sig, 2)
    assert len(spec) == 28 - 7 == 21
    assert spec.exponents == multiset_difference_oracle(sig, 2)
    assert len(set(spec.exponents)) == 21


def test_klein_fivefold_scaled_by_every_default_modulus():
    # Every default modulus divides every coefficient, but the scaled form
    # is the same smooth cubic: its character is the unscaled one.
    p, sig = klein_signature(5)
    scale = prod(DEFAULT_MODULI)
    F = CubicForm(5, {m: scale * c for m, c in klein(5).terms.items()})
    assert jacobian_ring_character(F, sig, 2) == jacobian_ring_character(klein(5), sig, 2)


def test_two_modulus_agreement():
    for n, d in ((3, 1), (3, 2), (5, 2), (7, 7)):
        p, sig = klein_signature(n)
        spec = jacobian_ring_character(klein(n), sig, d)
        for q in ORACLE_MODULI:
            assert rank_character(klein(n), sig, d, q)[0] == spec.exponents, (n, d, q)


def test_character_bad_reduction_when_partials_vanish():
    # Every partial of the Fermat cubic is 3 x_i^2, zero mod 3: all of the
    # oracle's rows are empty and its degree-2 rank total falls short.  The
    # library takes no modulus and gives the character over Q.
    sig = Signature(7, (0,) * 5)
    exps, rank = rank_character(fermat(3), sig, 2, 3)
    assert len(exps) == comb(6, 2)
    assert rank == 0 < complete_intersection_dim(5, 2)
    assert jacobian_ring_character(fermat(3), sig, 2).exponents == (0,) * comb(5, 2)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_character_bad_reduction_above_degree_two(d):
    # At a good modulus the piece has C(5, d) exponents.  At q = 3 every row
    # is empty, so the oracle's piece holds every degree-d monomial (35 at
    # d = 3); only its rank total against complete_intersection_dim shows it.
    sig = Signature(7, (0,) * 5)
    spec = jacobian_ring_character(fermat(3), sig, d)
    assert len(spec) == comb(5, d)
    assert rank_character(fermat(3), sig, d, 10007)[0] == spec.exponents
    exps, rank = rank_character(fermat(3), sig, d, 3)
    assert len(exps) == comb(4 + d, d)
    assert rank == 0 < complete_intersection_dim(5, d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_character_rejects_singular_form(d):
    # A cone over the Fermat surface is singular over Q, so the rank falls
    # short at every modulus: the precondition fails, not the reduction.
    cone = CubicForm(3, {(i, i, i): 1 for i in range(4)})
    assert certify_smooth_over_Q(cone) is None
    with pytest.raises(ValueError, match="not certified smooth"):
        jacobian_ring_character(cone, Signature(7, (0,) * 5), d)


@pytest.mark.parametrize("d", [1.0, True, False, -1], ids=repr)
def test_character_refuses_a_degree_that_is_no_natural_number(d):
    # 1.0 raised TypeError from range and True gave the degree-1 piece.
    with pytest.raises(ValueError, match="degree must be an integer"):
        jacobian_ring_character(klein(3), klein_signature(3)[1], d)


def test_character_rejects_mixed_weight():
    F = CubicForm(3, {(0, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(ValueError):
        jacobian_ring_character(F, Signature(5, (1, 2, 3, 4, 0)), 2)


def test_character_weight_a_matches_oracle():
    # klein(3) has weight 3 under the shifted signature sigma + 1, and every
    # degree-d monomial shifts by d, so the character shifts by d too.
    p, sig = klein_signature(3)
    shifted = Signature(p, [(v + 1) % p for v in sig.values])
    for d in range(6):
        spec = jacobian_ring_character(klein(3), shifted, d)
        base = jacobian_ring_character(klein(3), sig, d)
        assert spec.exponents == tuple(sorted((e + d) % p for e in base.exponents))
        assert spec.exponents == rank_character(klein(3), shifted, d, 10007)[0]


def test_cardinality_invariant_degree_two():
    # |character at d=2| = C(n+3,2) - (n+2) when the partials are independent.
    cases = [(klein(3), klein_signature(3)[1]), (klein(5), klein_signature(5)[1])]
    sig0 = Signature(7, (0,) * 5)
    cases.append((fermat(3), sig0))
    for F, sig in cases:
        n = F.n
        spec = jacobian_ring_character(F, sig, 2)
        assert len(spec) == (n + 3) * (n + 2) // 2 - (n + 2)


def test_identity_signature_character():
    sig = Signature(7, (0,) * 4)
    spec = jacobian_ring_character(fermat(2), sig, 2)
    assert spec.exponents == (0,) * 6


def test_klein_tangent_spectrum_fivefold():
    spec = klein_tangent_spectrum(5)
    assert spec.p == 43
    assert len(spec) == 21
    assert frozenset(spec.exponents) == KLEIN5_TANGENT_EXPONENTS
    assert is_stable_under(spec, 11)
    assert is_stable_under(spec, 1)
    assert not is_stable_under(spec, -1)
    # stability verdicts agree for the set and its negation
    negated = SpectrumSet(43, tuple(sorted(-e % 43 for e in spec.exponents)))
    assert is_stable_under(negated, 11)


def test_klein_tangent_spectrum_threefold():
    spec = klein_tangent_spectrum(3)
    assert spec.p == 11
    assert len(spec) == 5
    assert frozenset(spec.exponents) == frozenset((1, 3, 4, 5, 9))


def test_klein_signature_weights_sum_to_zero():
    # klein_tangent_spectrum reads the raw weights of (S/J)_d because the
    # residue form Omega has weight sum(sigma) = 0 mod p.
    for n in (3, 5, 7, 9):
        p, sig = klein_signature(n)
        assert sum(sig.values) % p == 0, n


def test_klein_tangent_spectrum_rejects_other_n():
    with pytest.raises(ValueError):
        klein_tangent_spectrum(4)


def test_is_stable_under_rejects_zero():
    spec = SpectrumSet(5, (1, 2))
    with pytest.raises(ValueError):
        is_stable_under(spec, 0)
    with pytest.raises(ValueError):
        is_stable_under(spec, 10)


@pytest.mark.parametrize("m", [True, 1.5, 11.0])
def test_is_stable_under_refuses_non_integer_multipliers(m):
    # True is not read as 1; a float raises ValueError, not gcd's TypeError.
    with pytest.raises(ValueError, match="multiplier must be an integer"):
        is_stable_under(SpectrumSet(43, (1, 11, 35)), m)


def test_full_space_character_permutation_invariant():
    # The weight multiset of all degree-d monomials only depends on the
    # signature up to coordinate permutation.
    import random

    rng = random.Random(4)
    for _ in range(25):
        p = rng.choice((3, 5, 7))
        m = rng.randrange(4, 7)
        vals = [rng.randrange(p) for _ in range(m)]
        perm = list(range(m))
        rng.shuffle(perm)
        permuted = [vals[perm[i]] for i in range(m)]
        d = rng.randrange(0, 4)
        def weights(vs):
            return sorted(
                Counter(
                    sum(vs[i] for i in mono) % p
                    for mono in combinations_with_replacement(range(m), d)
                ).elements()
            )
        assert weights(vals) == weights(permuted)


def test_spectrum_json():
    spec = klein_tangent_spectrum(5)
    doc = spec.to_json()
    assert sorted(doc) == ["exponents", "p"]
    assert doc["p"] == 43
    assert doc["exponents"] == sorted(doc["exponents"])


def golden_characters(n, d):
    """(row, degree-d character of its witness) for each family of the
    classify_n{n} golden."""
    doc = json.loads((GOLDEN_DIR / f"classify_n{n}.json").read_text())
    for row in doc["families"]:
        coeffs = row["witness"]["coeffs"]
        F = CubicForm(n, {tuple(m): c for m, c in zip(row["basis"], coeffs)})
        sig = Signature(row["p"], row["sigma"])
        yield row, jacobian_ring_character(F, sig, d).exponents


@pytest.mark.parametrize(
    "n, count", [(2, 6), (3, 8), (4, 13), (5, 14), (6, 19), (7, 23), (8, 28)]
)
def test_invariant_deformations_count_D(n, count):
    # (S/J(F))_3 is the tangent space to the deformations of a smooth cubic,
    # and the weight-a part is the tangent space to the family of weight-a
    # eigenvectors, so weight a occurs D = dim E - dim N times in the
    # character of each golden witness.  Every row is checked, F_3^7 (weight
    # 1, D = 6) among them.
    checked = 0
    for row, chi in golden_characters(n, 3):
        assert chi.count(row["weight"]) == row["D"], (row["p"], row["sigma"])
        checked += 1
    assert checked == count


def test_invariant_deformations_near_misses_disagree():
    # Each slip in the identity above breaks it on some golden family:
    # counting weight 0 instead of a (only the p = 3 weight-1 keys differ),
    # reading degree 2 instead of 3, or sum n_j instead of sum n_j^2 in D.
    rows3 = [rc for n in range(2, 9) for rc in golden_characters(n, 3)]
    rows2 = [rc for n in range(2, 9) for rc in golden_characters(n, 2)]
    assert len(rows3) == len(rows2) == 111
    assert any(chi.count(0) != row["D"] for row, chi in rows3)
    assert any(chi.count(row["weight"]) != row["D"] for row, chi in rows2)
    assert any(
        chi.count(row["weight"]) != row["dim_E"] - len(row["sigma"])
        for row, chi in rows3
    )
