import io
import json
import sys
from itertools import product

import pytest

from cubiclass.admissibility import admissible_primes
from cubiclass.classify import (
    FamilyRecord,
    _resolve_strategy,
    classify,
    classify_all,
    classify_with_audit,
    fermat_membership,
    fermat_order_classes,
    fermat_realizes,
    normalizer_dim,
)
from cubiclass.cli import GOLDEN_DIR, main
from cubiclass.forms import (
    CubicForm,
    coordinate_subspace_obstruction,
    eigenspace_basis,
    lemma_base_feasible,
    weight_of,
)
from cubiclass.signatures import (
    Signature,
    _canonical_values,
    canonicalize,
    enumerate_orbits,
    equivalent,
    family_key,
    orbit_count,
)
from cubiclass import smoothness
from cubiclass.smoothness import DEFAULT_MODULI, find_smooth_member, is_smooth_mod_q
from fermat_oracle import (
    FermatGroupElement,
    cycle_sum_walk,
    cycle_type_sweep,
    element_order_and_signature,
    element_sweep,
    weighted_family_keys,
)
from form_helpers import family_dimension


def test_normalizer_dim():
    assert normalizer_dim(Signature(2, (0, 0, 0, 0, 1))) == 17
    assert normalizer_dim(Signature(5, (0, 1, 2, 3, 4))) == 5
    assert normalizer_dim(Signature(5, (1, 1, 2, 2, 3, 4))) == 10


def test_family_dimension_spot_values():
    assert family_dimension(Signature(2, (0, 0, 0, 0, 1)), 0) == 24 - 17
    assert family_dimension(Signature(3, (0, 0, 1, 1, 2, 2)), 0) == 20 - 12
    assert family_dimension(Signature(11, (1, 3, 4, 5, 9)), 0) == 5 - 5


def test_classify_klein_threefold_prime():
    records = classify(3, 11)
    assert len(records) == 1
    rec = records[0]
    assert rec.sigma.values == (1, 3, 4, 5, 9)
    assert rec.weight == 0 and rec.D == 0 and rec.label == "T_11^1"


def test_classify_p3_threefolds():
    records = classify(3, 3)
    data = [(r.sigma.values, r.weight, r.D) for r in records]
    assert data == [
        ((0, 0, 0, 0, 1), 0, 4),
        ((0, 0, 0, 1, 1), 0, 1),
        ((0, 0, 0, 1, 2), 0, 4),
        ((0, 0, 1, 1, 2), 0, 4),
    ]


def test_classify_surface_klein():
    records = classify(2, 5)
    assert len(records) == 1
    assert records[0].D == 0
    assert equivalent(records[0].sigma, Signature(5, (1, 3, 4, 2)))


def test_classify_inadmissible_prime():
    records, rejected, notes = classify_with_audit(4, 13)
    assert records == [] and rejected == []
    assert notes == ["13 not admissible in dimension 4"]


def test_classify_rejects_non_prime():
    # is_admissible refuses the modulus; classify makes no check of its own.
    with pytest.raises(ValueError, match="modulus must be prime, got 6"):
        classify(3, 6)


def test_record_witness_consistency():
    for rec in classify(3, 11) + classify(3, 2):
        coeffs, cert = rec.witness
        F = CubicForm(rec.n, dict(zip(rec.basis, coeffs)))
        assert weight_of(F, rec.sigma) == rec.weight
        assert rec.dim_E == len(rec.basis) == len(eigenspace_basis(rec.sigma, rec.weight))
        assert rec.D == rec.dim_E - rec.dim_norm
        assert is_smooth_mod_q(F, cert.modulus) == cert


def test_every_class_accounted_for():
    accepted, rejected, _ = classify_with_audit(3, 5)
    seen = {canonicalize(r.sigma).values for r in accepted}
    seen |= {canonicalize(r.sigma).values for r in rejected}
    expected = {s.values for s in enumerate_orbits(5, 3)}
    assert seen == expected


def test_process_class_keeps_exactly_the_lemma_sweep(monkeypatch):
    # Every weight lemma_base_feasible accepts in a range(p) sweep lies in
    # values + 2*sigma_0, and _process_class keeps exactly those, for every
    # class classify walks at every admissible prime.
    classify_mod = sys.modules["cubiclass.classify"]
    kept = []

    def recording_lemma(sig, a):
        verdict = lemma_base_feasible(sig, a)
        if verdict[0]:
            kept.append(a)
        return verdict

    monkeypatch.setattr(classify_mod, "lemma_base_feasible", recording_lemma)
    for n in range(2, 7):
        for p in admissible_primes(n):
            for sig in enumerate_orbits(p, n, _resolve_strategy(p, n)):
                swept = [a for a in range(p) if lemma_base_feasible(sig, a)[0]]
                translates = {(w + 2 * sig.values[0]) % p for w in sig.values}
                assert set(swept) <= translates, (p, sig.values)
                kept.clear()
                classify_mod._process_class(sig)
                assert sorted(kept) == swept, (p, sig.values)


# The verdict functions classify's pipeline reads at its own bindings.
# bench/tracing.py traces lemma_base_feasible and find_smooth_member
# there, whose counters read 0 unless classify calls them;
# coordinate_subspace_obstruction is not traced, but each rejected
# coordinate_subspace row rests on it.
TRACED_VERDICTS = (
    "lemma_base_feasible", "coordinate_subspace_obstruction", "find_smooth_member"
)


def test_classify_calls_the_traced_verdict_functions(monkeypatch):
    classify_mod = sys.modules["cubiclass.classify"]
    called = set()
    for name in TRACED_VERDICTS:
        real = getattr(classify_mod, name)

        def recording(*args, real=real, name=name):
            called.add(name)
            return real(*args)

        monkeypatch.setattr(classify_mod, name, recording)
    classify_with_audit(3, 5)
    assert called == set(TRACED_VERDICTS)


# The admissible pairs with n <= 8 that classify walks chain-pruned.
CHAIN_PRUNED = {
    (43, 5),
    (11, 6), (17, 6), (43, 6),
    (11, 7), (17, 7), (19, 7), (43, 7),
    (7, 8), (11, 8), (17, 8), (19, 8), (31, 8), (43, 8),
}


def test_resolve_strategy_reads_p_and_n_only():
    # Exhaustive when p <= 3 or p^(n+2) <= 10^8.  Wherever that holds up to
    # n = 40 the walk is far inside enumerate_orbits' default budget; the
    # budget first makes a classify run exit 2 at n = 183 for p = 3 and
    # n = 584 for p = 2 (see test_cli.test_classify_past_the_budget_exits_2).
    pruned = {
        (p, n)
        for n in range(2, 9)
        for p in admissible_primes(n)
        if _resolve_strategy(p, n) == "chain_pruned"
    }
    assert pruned == CHAIN_PRUNED
    for n in range(2, 41):
        assert _resolve_strategy(2, n) == _resolve_strategy(3, n) == "exhaustive"
        for p in admissible_primes(n):
            if _resolve_strategy(p, n) == "exhaustive":
                work = orbit_count(p, n) * (n + 2) * (n + 1)
                assert work <= 10**8, (p, n, work)


def test_rejection_reasons():
    _, rejected, _ = classify_with_audit(3, 5)
    reasons = {r.sigma.values: r.rejected_reason for r in rejected}
    assert reasons[(0, 0, 1, 2, 3)] == "coordinate_subspace"
    assert reasons[(0, 0, 0, 0, 1)] == "lemma_base"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_obstruction_spares_golden_families(n):
    doc = json.loads((GOLDEN_DIR / f"classify_n{n}.json").read_text())
    for row in doc["families"]:
        sig = Signature(row["p"], tuple(row["sigma"]))
        assert coordinate_subspace_obstruction(sig, row["weight"]) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_golden_families_are_their_own_distinct_family_keys(n):
    # Each golden file joins one classify_with_audit run per prime.
    doc = json.loads((GOLDEN_DIR / f"classify_n{n}.json").read_text())
    keys = set()
    for row in doc["families"]:
        key = family_key(Signature(row["p"], row["sigma"]), row["weight"])
        assert key == (row["weight"], tuple(row["sigma"]))
        keys.add((row["p"],) + key)
    assert len(keys) == len(doc["families"])


def test_rejected_rows_come_sorted():
    # The orbit walks emit classes in increasing order and each class gives
    # at most one rejected row, so classify_with_audit needs no sort.
    for n in range(2, 9):
        for p in admissible_primes(n):
            _, rejected, _ = classify_with_audit(n, p)
            values = [r.sigma.values for r in rejected]
            assert all(a < b for a, b in zip(values, values[1:])), (n, p)


def test_fivefold_rejections_are_proofs():
    for p in admissible_primes(5):
        _, rejected, _ = classify_with_audit(5, p)
        for r in rejected:
            assert r.rejected_reason in ("lemma_base", "coordinate_subspace"), (
                p, r.sigma.values, r.rejected_reason,
            )


@pytest.mark.parametrize("n, pairs", [(2, 7), (3, 12), (4, 15), (5, 20)])
def test_unobstructed_eigenspaces_have_certified_members(n, pairs):
    # The converse of the obstruction: on every weight, family key or not,
    # that no coordinate subspace obstructs, the general member is smooth,
    # so the default witness search certifies one.
    found = []
    for p in admissible_primes(n):
        for c in enumerate_orbits(p, n, _resolve_strategy(p, n)):
            for a in range(p):
                if coordinate_subspace_obstruction(c, a) is None:
                    assert find_smooth_member(c, a) is not None, (p, c.values, a)
                    found.append((p, c.values, a))
    assert len(found) == pairs


def test_witness_search_running_out_is_not_a_rejection(refuse_witnesses):
    # No modulus certifies T_2^2 or F_7^1.  Below 10006 variables that
    # contradicts find_smooth_member's proof, so it is a fault: a
    # RuntimeError naming the family and the moduli tried, never a
    # rejection, and no ValueError, which cli.main would turn into exit 2.
    refused = ((3, 2, (0, 0, 0, 1, 1)), (4, 7, (1, 2, 3, 4, 5, 6)))
    refuse_witnesses(*((Signature(p, values), 0) for _, p, values in refused))
    moduli = f"no witness certified at moduli {list(DEFAULT_MODULI)} for family "
    for n, p, values in refused:
        with pytest.raises(RuntimeError) as info:
            classify_with_audit(n, p)
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == f"{moduli}{values} at weight 0"
        out = io.StringIO()
        with pytest.raises(RuntimeError) as info:
            main(["classify", "--n", str(n), "--p", str(p)], out)
        assert str(info.value) == f"{moduli}{values} at weight 0"
        assert out.getvalue() == ""


def test_each_witness_costs_one_certification(monkeypatch):
    # The invertible member is smooth mod every q > 3 with (-2)^k != 1 for
    # each loop length k, so DEFAULT_MODULI[0] certifies it at once: one
    # is_smooth_mod_q call per family, for all 181 families of n = 2..10.
    import cubiclass.smoothness as smoothness

    real = smoothness.is_smooth_mod_q
    moduli = []

    def counting(F, q):
        moduli.append(q)
        return real(F, q)

    monkeypatch.setattr(smoothness, "is_smooth_mod_q", counting)
    families = 0
    for n in range(2, 11):
        for p in admissible_primes(n):
            families += len(classify_with_audit(n, p)[0])
    assert families == 181
    assert moduli == [DEFAULT_MODULI[0]] * families


def test_each_family_reads_its_eigenspace_once(monkeypatch):
    # The witness is certified from its own n + 2 monomials; only the
    # record, which aligns it with the basis, reads the eigenspace.
    classify_mod = sys.modules["cubiclass.classify"]
    forms = sys.modules["cubiclass.forms"]
    assert not hasattr(smoothness, "eigenspace_basis")
    real_basis, real_certify = forms.eigenspace_basis, smoothness.certify_smooth_over_Q
    basis_calls, terms = [], []

    def counting_basis(sig, a):
        basis_calls.append((sig.values, a))
        return real_basis(sig, a)

    def counting_certify(F):
        terms.append((F.n, len(F.terms)))
        return real_certify(F)

    monkeypatch.setattr(forms, "eigenspace_basis", counting_basis)
    monkeypatch.setattr(classify_mod, "eigenspace_basis", counting_basis)
    monkeypatch.setattr(smoothness, "certify_smooth_over_Q", counting_certify)
    records = []
    for n in range(2, 7):
        for p in admissible_primes(n):
            records += classify_with_audit(n, p)[0]
    assert len(records) == 60
    assert sorted(basis_calls) == sorted((r.sigma.values, r.weight) for r in records)
    assert len(terms) == len(records)
    assert all(k == n + 2 for n, k in terms)


@pytest.mark.parametrize("n, p", [(20, 2), (20, 3), (30, 3)])
def test_large_n_witnesses_are_n_plus_2_monomials(n, p):
    records, _, _ = classify_with_audit(n, p)
    assert records
    for rec in records:
        coeffs, cert = rec.witness
        assert set(coeffs) <= {0, 1} and sum(coeffs) == n + 2, rec.sigma.values
        F = CubicForm(n, dict(zip(rec.basis, coeffs)))
        assert cert.modulus == DEFAULT_MODULI[0] == 10007
        assert is_smooth_mod_q(F, 10007) == cert


def test_classify_all_keys():
    out = classify_all(2)
    assert sorted(out) == [2, 3, 5]
    assert len(out[5]) == 1


def test_element_order_and_signature():
    # a 5-cycle fixing the last coordinate, no scalings
    el = FermatGroupElement(perm=(1, 2, 3, 4, 0, 5), exps=(0,) * 6)
    order, sigma = element_order_and_signature(el)
    assert order == 5
    assert sorted(sigma) == [0, 0, 1, 2, 3, 4]
    # a transposition has projective order 2 with a single odd eigenvalue
    el = FermatGroupElement(perm=(1, 0, 2, 3, 4, 5), exps=(0,) * 6)
    order, sigma = element_order_and_signature(el)
    assert order == 2
    assert sorted(sigma) == [0, 0, 0, 0, 0, 1]
    # a pure cube-root scaling has order 3 with the scaling exponents
    el = FermatGroupElement(perm=(0, 1, 2, 3, 4), exps=(0, 0, 1, 1, 2))
    order, sigma = element_order_and_signature(el)
    assert order == 3
    assert sorted(sigma) == [0, 0, 1, 1, 2]
    # the identity is not of prime order
    el = FermatGroupElement(perm=(0, 1, 2, 3), exps=(0, 0, 0, 0))
    order, sigma = element_order_and_signature(el)
    assert order == 1 and sigma is None


# The closed formula of fermat_order_classes against walks of the Fermat
# symmetry group, from every element down to one element per cycle sums.
def test_fermat_order_classes_match_full_group_sweep():
    for n in (2, 3):
        assert fermat_order_classes(n) == element_sweep(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fermat_order_classes_match_cycle_type_sweep(n):
    assert fermat_order_classes(n) == cycle_type_sweep(n)


@pytest.mark.parametrize("n", range(7, 13))
def test_fermat_order_classes_match_cycle_sum_walk(n):
    assert fermat_order_classes(n) == cycle_sum_walk(n)


@pytest.mark.parametrize("n", range(2, 31))
def test_fermat_order_classes_at_3_are_every_nonzero_class(n):
    # The p = 3 list (the lead-shaped multisets) against the orbit walk.
    assert fermat_order_classes(n)[3] == {c.values for c in enumerate_orbits(3, n)}


def sorted_multiplicity_triples(m):
    # Every 0^a 1^b 2^c with a >= b >= c, b >= 1 and a + b + c = m.
    return frozenset(
        (0,) * a + (1,) * b + (2,) * (m - a - b)
        for a in range(m) for b in range(1, a + 1) if 0 <= m - a - b <= b
    )


def test_fermat_order_classes_at_3_are_the_sorted_multiplicity_triples():
    # Uncached: the tables for n = 2..200 together hold about 280 MB.
    for n in range(2, 201):
        classes = fermat_order_classes.__wrapped__(n)[3]
        assert classes == sorted_multiplicity_triples(n + 2), n
        assert len(classes) == orbit_count(3, n), n


@pytest.mark.parametrize("n", [2, 3])
def test_fermat_realizes_matches_the_weighted_group_walk(n):
    # Every non-constant sigma and every weight, at each prime with a
    # Fermat symmetry of that order: True exactly for the families of the
    # group's elements, each weighted by its lift.
    keys = weighted_family_keys(n)
    assert set(keys) == set(fermat_order_classes(n))
    for p, realized in keys.items():
        for vals in product(range(p), repeat=n + 2):
            if len(set(vals)) == 1:
                continue
            for a in range(p):
                expected = family_key(Signature(p, vals), a) in realized
                assert fermat_realizes(n, p, vals, a) is expected, (p, vals, a)


def test_fermat_realizes_answers_by_family():
    # The lift -g of a transposition has sigma (1, 1, 1, 1, 0) and scales
    # the form by -1: T_2^1 at weight 1, no family at weight 0.
    assert fermat_realizes(3, 2, (1, 1, 1, 1, 0), 1) is True
    assert fermat_realizes(3, 2, (1, 1, 1, 1, 0), 0) is False
    # T_5^1 at weight 3, a scalar multiple of the 5-cycle.
    assert family_key(Signature(5, (1, 2, 3, 4, 0)), 3) == (0, (0, 1, 2, 3, 4))
    assert fermat_realizes(3, 5, (1, 2, 3, 4, 0), 3) is True


def test_fermat_classes_are_their_own_weight_0_keys():
    for n in range(2, 41):
        for p, classes in fermat_order_classes(n).items():
            for c in classes:
                assert family_key(Signature(p, c), 0) == (0, c), (n, p, c)


@pytest.mark.parametrize("n", [1, 0, -3, 2.0, True, "4"])
def test_fermat_order_classes_refuses_a_bad_dimension(n):
    fermat_order_classes(2)  # a cached int must not answer for 2.0 or True
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        fermat_order_classes(n)


def test_fermat_realizes_past_the_orbit_walk_budget():
    # From n = 183 enumerate_orbits(3, n) exceeds its budget; the formula
    # does not walk, and it lists every class that orbit_count counts.
    assert fermat_realizes(183, 3, (0,) * 184 + (1,), 0) is True
    assert fermat_realizes(183, 3, (0,) * 185, 0) is False
    assert len(fermat_order_classes(183)[3]) == orbit_count(3, 183) == 2944


def test_fermat_realizes_threefolds():
    assert fermat_realizes(3, 11, (1, 3, 4, 5, 9), 0) is False
    assert fermat_realizes(3, 5, (0, 1, 2, 3, 4), 0) is True
    assert fermat_realizes(3, 2, (0, 0, 0, 1, 1), 0) is True


def test_fermat_realizes_fourfolds():
    assert fermat_realizes(4, 3, (0, 0, 1, 1, 2, 2), 1) is False  # weight 1
    assert fermat_realizes(4, 3, (0, 0, 1, 1, 2, 2), 0) is True
    assert fermat_realizes(4, 5, (0, 0, 1, 2, 3, 4), 0) is True
    assert fermat_realizes(4, 5, (1, 1, 2, 2, 3, 4), 0) is False
    assert fermat_realizes(4, 7, (1, 2, 3, 4, 5, 6), 0) is False
    assert fermat_realizes(4, 11, (0, 1, 3, 4, 5, 9), 0) is False


def test_fermat_realizes_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="modulus must be prime, got 4"):
        fermat_realizes(3, 4, (0, 0, 0, 1, 2), 0)


def test_fermat_realizes_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="dimension 3 has 5 entries"):
        fermat_realizes(3, 5, (0, 1, 2, 3), 0)


@pytest.mark.parametrize("last", [1.5, 1.0, True])
def test_fermat_realizes_refuses_non_integer_values(last):
    # Signature's check: no TypeError from pow, no bool read as 1.
    with pytest.raises(ValueError, match="signature values must be integers"):
        fermat_realizes(3, 5, (0, 0, 0, 0, last), 0)


def test_fermat_membership_on_records():
    records = classify(3, 11)
    assert fermat_membership(3, records[0]) is False
    records = classify(3, 2)
    assert all(fermat_membership(3, r) for r in records)


@pytest.mark.parametrize("n", [2, 5, 6, 7, 8])
def test_fermat_membership_matches_the_oracle_on_golden_families(n):
    # fermat_membership holds in every dimension: on each golden family it
    # agrees with the class sets a walk of the Fermat symmetry group finds.
    oracle = cycle_type_sweep(n) if n <= 6 else cycle_sum_walk(n)
    doc = json.loads((GOLDEN_DIR / f"classify_n{n}.json").read_text())
    verdicts = []
    for row in doc["families"]:
        p, sigma, weight = row["p"], Signature(row["p"], row["sigma"]), row["weight"]
        rec = FamilyRecord(p, n, sigma, weight, row["dim_E"], row["dim_norm"], row["D"])
        expected = weight == 0 and _canonical_values(p, sigma.values) in oracle.get(
            p, frozenset()
        )
        assert fermat_membership(n, rec) is expected, (p, sigma.values, weight)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_record_json_shape():
    rec = classify(3, 11)[0]
    doc = rec.to_json()
    assert set(doc) == {
        "p", "n", "sigma", "weight", "dim_E", "dim_norm", "D",
        "basis", "witness", "label", "rejected_reason",
    }
    assert doc["witness"]["coeffs"] == [1, 1, 1, 1, 1]
    assert set(doc["witness"]["certificate"]) == {"modulus", "pure_powers", "basis_size"}
