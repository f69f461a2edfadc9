import hashlib
import json
import operator
import random
from itertools import combinations_with_replacement, product
from math import comb, prod

import pytest

from cubiclass.admissibility import is_prime
from cubiclass.forms import (
    CubicForm,
    eigenspace_basis,
    fermat,
    klein,
    klein_signature,
    partials,
)
from cubiclass.signatures import Signature
from cubiclass import smoothness
from cubiclass.smoothness import (
    DEFAULT_MODULI,
    certify_smooth_over_Q,
    complete_intersection_dim,
    find_smooth_member,
    is_smooth_mod_q,
    singular_point_from_lemma_base,
)
from form_helpers import brute_order, relabel
from groebner_oracle import PolyModQ, groebner_basis
from rank_oracle import rank_mod_q


def spoly(f, g):
    q = f.q
    lf, lg = f.lm(), g.lm()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    for e, c in f.terms.items():
        t = tuple(x + l - a for x, l, a in zip(e, lcm, lf))
        out[t] = (out.get(t, 0) + c * pow(f.lc(), -1, q)) % q
    for e, c in g.terms.items():
        t = tuple(x + l - a for x, l, a in zip(e, lcm, lg))
        out[t] = (out.get(t, 0) - c * pow(g.lc(), -1, q)) % q
    return PolyModQ(q, out)


def reduces_to_zero(f, basis):
    q = f.q
    work = dict(f.terms)
    while work:
        lead = max(work, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
        for g in basis:
            lg = g.lm()
            if all(a >= b for a, b in zip(lead, lg)):
                c = work[lead] * pow(g.terms[lg], -1, q) % q
                shift = tuple(a - b for a, b in zip(lead, lg))
                for e, gc in g.terms.items():
                    t = tuple(a + b for a, b in zip(e, shift))
                    v = (work.get(t, 0) - c * gc) % q
                    if v:
                        work[t] = v
                    elif t in work:
                        del work[t]
                break
        else:
            return False
    return True


def test_groebner_monomial_generators():
    f = PolyModQ(7, {(2, 0): 1})
    g = PolyModQ(7, {(0, 2): 1})
    G = groebner_basis([f, g])
    assert {p.lm() for p in G} == {(2, 0), (0, 2)}


def test_groebner_hand_example():
    # S(xy - 1, y^2 - 1) = x - y, which is already irreducible.
    f = PolyModQ(7, {(1, 1): 1, (0, 0): -1})
    g = PolyModQ(7, {(0, 2): 1, (0, 0): -1})
    G = groebner_basis([f, g])
    assert PolyModQ(7, {(1, 0): 1, (0, 1): -1}) in G


def test_groebner_fermat_partials():
    q = 10007
    gens = []
    for i in range(4):
        e = [0] * 4
        e[i] = 2
        gens.append(PolyModQ(q, {tuple(e): 3}))
    G = groebner_basis(gens)
    assert sorted(p.lm() for p in G) == sorted(
        tuple(2 if j == i else 0 for j in range(4)) for i in range(4)
    )
    assert all(p.lc() == 1 for p in G)


def test_groebner_buchberger_property():
    # Every pairwise S-polynomial and every generator reduces to zero.
    rng = random.Random(1)
    systems = []
    f = PolyModQ(13, {(1, 1, 0): 1, (0, 0, 1): 2})
    g = PolyModQ(13, {(2, 0, 0): 1, (0, 1, 0): 5})
    h = PolyModQ(13, {(0, 0, 2): 1, (1, 0, 0): 1})
    systems.append([f, g, h])
    for _ in range(3):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                e = tuple(rng.randrange(3) for _ in range(3))
                terms[e] = rng.randrange(1, 13)
            gens.append(PolyModQ(13, terms))
        systems.append([g for g in gens if g])
    for gens in systems:
        G = groebner_basis(gens)
        for gen in gens:
            assert reduces_to_zero(gen, G)
        for i in range(len(G)):
            for j in range(i):
                assert reduces_to_zero(spoly(G[i], G[j]), G)


def test_poly_refuses_non_integers():
    # A float is not truncated and a boolean is not read as 0 or 1.
    for terms in ({(1, 0): 1.0}, {(1.0, 0): 1}, {(1, 0): True}, {(True, 0): 1}):
        with pytest.raises(ValueError):
            PolyModQ(7, terms)


def test_groebner_modulus_mismatch():
    with pytest.raises(ValueError):
        groebner_basis([PolyModQ(7, {(1,): 1}), PolyModQ(11, {(1,): 1})])


def test_is_smooth_fermat():
    cert = is_smooth_mod_q(fermat(3), 10007)
    assert cert is not None
    assert cert.pure_powers == (2, 2, 2, 2, 2)
    assert cert.modulus == 10007


def test_is_smooth_klein():
    assert is_smooth_mod_q(klein(5), 10007) is not None


def test_is_smooth_rejects_bad_modulus():
    with pytest.raises(ValueError):
        is_smooth_mod_q(fermat(2), 3)
    with pytest.raises(ValueError):
        is_smooth_mod_q(fermat(2), 2)
    with pytest.raises(ValueError, match="modulus must be prime"):
        is_smooth_mod_q(fermat(2), 10005)


def test_is_smooth_rejects_zero_form():
    F = CubicForm(2, {(0, 0, 0): 10007})
    with pytest.raises(ValueError):
        is_smooth_mod_q(F, 10007)


def test_singular_cone_not_certified():
    # Cone direction over a triangle of lines, capped with a cube: the point
    # (1:1:1:0) zeroes every partial.
    F = CubicForm(
        2, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (0, 1, 2): -3, (3, 3, 3): 1}
    )
    assert is_smooth_mod_q(F, 10007) is None
    assert certify_smooth_over_Q(F) is None
    point = (1, 1, 1, 0)
    assert all(
        sum(c * point[i] * point[j] for (i, j), c in dq.items()) == 0
        for dq in partials(F)
    )


def macaulay_rank(quadrics, nv, d, q):
    """Rank over F_q of the degree-d slice of the ideal of quadrics given as
    {(i, j): c} dicts: the span of every degree d-2 monomial times each."""
    cols = {m: k for k, m in enumerate(combinations_with_replacement(range(nv), d))}
    rows = []
    for mono in combinations_with_replacement(range(nv), d - 2):
        for g in quadrics:
            row = {}
            for (a, b), c in g.items():
                k = cols[tuple(sorted(mono + (a, b)))]
                row[k] = (row.get(k, 0) + c) % q
            rows.append({k: c for k, c in row.items() if c})
    return rank_mod_q(rows, q)


def nodal_cubic(rng, n):
    """x0 * Q(x1, ...) + C(x1, ...): singular at the point (1:0:...:0)."""
    rest = range(1, n + 2)
    terms = {(0,) + m: rng.randint(1, 99) for m in combinations_with_replacement(rest, 2)}
    terms.update({m: rng.randint(1, 99) for m in combinations_with_replacement(rest, 3)})
    return CubicForm(n, terms)


def test_jacobian_bound_against_macaulay_rank():
    # complete_intersection_dim bounds the degree-d slice of any nv quadrics,
    # with equality for the partials of a smooth cubic; degenerate systems
    # fall short at degree nv + 1, where the bound counts every monomial.
    q = 10007
    rng = random.Random(29)
    degenerate = []
    for nv in (3, 4, 5):
        for _ in range(3):
            gens = [{m: rng.randint(1, 10**4) for m in combinations_with_replacement(range(nv), 2)}
                    for _ in range(nv)]
            for d in range(2, nv + 2):
                assert macaulay_rank(gens, nv, d, q) <= complete_intersection_dim(nv, d)
            degenerate.append((nv, gens[:-1] + [{}]))
            degenerate.append((nv, gens[:-1] + [{m: 3 * c for m, c in gens[0].items()}]))
    for n in (2, 3):
        cone = CubicForm(n, {m: rng.randint(1, 99)
                             for m in combinations_with_replacement(range(n + 1), 3)})
        for F in (cone, nodal_cubic(rng, n)):
            degenerate.append((n + 2, partials(F)))
    for nv, gens in degenerate:
        for d in range(2, nv + 2):
            assert macaulay_rank(gens, nv, d, q) <= complete_intersection_dim(nv, d)
        assert macaulay_rank(gens, nv, nv + 1, q) < comb(2 * nv, nv + 1)
    smooth = [fermat(2), klein(2), fermat(3), klein(3)]
    for n in (2, 3):
        mons = list(combinations_with_replacement(range(n + 2), 3))
        smooth += [CubicForm(n, {m: rng.randint(1, 10**4) for m in mons}) for _ in range(2)]
    for F in smooth:
        assert is_smooth_mod_q(F, q) is not None
        nv = F.n + 2
        for d in range(2, nv + 2):
            assert macaulay_rank(partials(F), nv, d, q) == complete_intersection_dim(nv, d)


def test_hilbert_driven_run_reduces_no_pair_to_zero(monkeypatch):
    # On a smooth dense cubic every S-pair the bound proves zero is dropped
    # unreduced: each normal form computed adds one basis element.
    calls = []
    normal_form = smoothness._normal_form

    def counting(*args):
        out = normal_form(*args)
        calls.append(bool(out))
        return out

    monkeypatch.setattr(smoothness, "_normal_form", counting)
    rng = random.Random(31)
    mons = list(combinations_with_replacement(range(6), 3))
    cert = is_smooth_mod_q(CubicForm(4, {m: rng.randint(1, 10**6) for m in mons}), 10007)
    assert cert is not None
    assert all(calls) and len(calls) == cert.basis_size


def projective_points(q, nvars):
    for lead in range(nvars):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=nvars - lead - 1):
            yield head + tail


def test_certificate_soundness_against_point_scan():
    # Certified forms have no rational singular projective point over F_q.
    forms = [fermat(2), klein(2)]
    for q in (5, 7, 11, 13):
        for F in forms:
            cert = is_smooth_mod_q(F, q)
            if cert is None:
                continue
            dparts = partials(F)
            for pt in projective_points(q, 4):
                values = [
                    sum(c * pt[i] * pt[j] for (i, j), c in dq.items()) % q
                    for dq in dparts
                ]
                assert any(values), f"singular point {pt} despite certificate at {q}"


def test_certify_over_Q():
    assert certify_smooth_over_Q(klein(3)) is not None
    assert certify_smooth_over_Q(fermat(4)) is not None


def test_certify_skips_moduli_dividing_every_coefficient():
    # A scalar multiple cuts out the same cubic, so a modulus dividing every
    # coefficient is no bad reduction: the form is certified as F/gcd, at
    # the modulus and with the certificate of the unscaled form.
    expected = certify_smooth_over_Q(fermat(3))
    assert expected.modulus == DEFAULT_MODULI[0]
    for scale in (10007, -30011, 6, prod(DEFAULT_MODULI)):
        F = CubicForm(3, {m: scale * c for m, c in fermat(3).terms.items()})
        assert certify_smooth_over_Q(F) == expected, scale


def test_missing_variable_is_inconclusive_with_witness():
    # A cubic in x_0..x_3 sitting in 5 variables: lemma witness at e_4.
    rng = random.Random(2)
    terms = {}
    from itertools import combinations_with_replacement
    for m in combinations_with_replacement(range(4), 3):
        terms[m] = rng.randrange(1, 10)
    F = CubicForm(3, terms)
    assert certify_smooth_over_Q(F) is None
    w = singular_point_from_lemma_base(F)
    assert w is not None
    assert w.point == (0, 0, 0, 0, 1)
    assert w.annihilates(F)


def test_lemma_witness_examples():
    # x_0^2 x_1 + x_2^3 has degree < 2 in both x_1 and x_3; the witness is
    # the lowest failing index, and every qualifying coordinate point works.
    F = CubicForm(2, {(0, 0, 1): 1, (2, 2, 2): 1})
    w = singular_point_from_lemma_base(F)
    assert w.point == (0, 1, 0, 0)
    assert w.annihilates(F)
    from cubiclass.smoothness import SingularWitness
    assert SingularWitness((0, 0, 0, 1)).annihilates(F)
    assert singular_point_from_lemma_base(klein(3)) is None
    assert singular_point_from_lemma_base(klein(5)) is None
    F = CubicForm(2, {(0, 1, 2): 1})
    assert singular_point_from_lemma_base(F).point == (1, 0, 0, 0)


def test_find_smooth_member_certifies_the_invertible_member():
    # The witness is the invertible member x0^3 plus the loop
    # x1^2 x3 + x3^2 x4 + x4^2 x2 + x2^2 x1, five of the seven basis
    # monomials.
    sig = Signature(5, (0, 1, 2, 3, 4))
    basis = eigenspace_basis(sig, 0).monomials
    monomials, cert = find_smooth_member(sig, 0)
    assert set(monomials) == {
        (0, 0, 0), (1, 1, 3), (3, 3, 4), (2, 4, 4), (1, 2, 2),
    }
    assert len(monomials) == 5 and set(monomials) < set(basis)
    assert len(basis) == 7
    assert cert.modulus == DEFAULT_MODULI[0]


def test_find_smooth_member_short_circuit():
    assert find_smooth_member(Signature(5, (0, 0, 1, 2, 3)), 0) is None


def test_find_smooth_member_skips_obstructed_eigenspace(monkeypatch):
    import cubiclass.smoothness as smoothness

    def no_trials(*args):
        raise AssertionError("a trial ran on an obstructed eigenspace")

    monkeypatch.setattr(smoothness, "is_smooth_mod_q", no_trials)
    assert find_smooth_member(Signature(5, (1, 1, 2, 2, 3, 4)), 0) is None


def test_find_smooth_member_klein_chain():
    p, sig = klein_signature(5)
    sorted_sig = Signature(p, sorted(sig.values))
    result = find_smooth_member(sorted_sig, 0)
    assert result is not None
    monomials, _ = result
    basis = eigenspace_basis(sorted_sig, 0)
    assert sorted(monomials) == list(basis.monomials)
    member = CubicForm(5, dict.fromkeys(monomials, 1))
    order = sorted(range(7), key=lambda i: sig.values[i])
    perm = [0] * 7
    for rank, idx in enumerate(order):
        perm[idx] = rank
    assert member == relabel(klein(5), perm)


def test_find_smooth_member_deterministic():
    sig = Signature(3, (0, 0, 1, 1, 2))
    r1 = find_smooth_member(sig, 0)
    r2 = find_smooth_member(sig, 0)
    assert r1 == r2
    assert json.dumps(r1[1].to_json()) == json.dumps(r2[1].to_json())


def test_klein_bad_reduction_is_the_order_of_minus_two():
    # A loop of length k is singular mod q > 3 exactly when (-2)^k = 1 mod q,
    # while a chain ending in a cube is smooth mod every such q.
    for n in range(2, 6):
        chain = {(i, i, i + 1): 1 for i in range(n + 1)}
        chain[(n + 1,) * 3] = 1
        chain = CubicForm(n, chain)
        for q in range(5, 400):
            if not is_prime(q):
                continue
            loop_singular = is_smooth_mod_q(klein(n), q) is None
            assert loop_singular == (pow(-2, n + 2, q) == 1), (n, q)
            assert is_smooth_mod_q(chain, q) is not None, (n, q)


def test_first_modulus_is_a_primitive_root_for_minus_two():
    # The premise of find_smooth_member's proof: -2 generates the units mod
    # DEFAULT_MODULI[0], so it certifies every invertible member in fewer
    # than 10006 variables, and classify never runs out of moduli there.
    q = DEFAULT_MODULI[0]
    assert brute_order(-2, q) == q - 1


def test_certificates_identical_across_runs():
    c1 = is_smooth_mod_q(klein(4), 10007)
    c2 = is_smooth_mod_q(klein(4), 10007)
    assert c1 == c2 and c1.to_json() == c2.to_json()


def test_certificate_stability_first_modulus():
    for n in range(2, 7):
        for F in (fermat(n), klein(n)):
            cert = certify_smooth_over_Q(F)
            assert cert.modulus == DEFAULT_MODULI[0]


# Certificates of seeded forms, pinned from the engine that packed every
# exponent in a 16-bit field; the narrow packing must reproduce each one.
# Each entry is (pure_powers, basis_size), or None for no certificate:
# per n for both dense forms at every modulus, per (n, index) for the sparse
# forms and per (kind, n) for Fermat and Klein at DEFAULT_MODULI[0].
DENSE_CERTIFICATES = {
    2: ((2, 2, 3, 5), 12),
    3: ((2, 2, 3, 3, 6), 21),
    4: ((2, 2, 2, 3, 4, 7), 39),
    5: ((2, 2, 2, 3, 3, 4, 8), 67),
}
SPARSE_CERTIFICATES = {
    (2, 0): ((2, 2, 3, 5), 12),
    (2, 1): ((2, 2, 3, 5), 12),
    (2, 2): ((2, 2, 3, 5), 12),
    (3, 0): ((2, 2, 3, 3, 6), 21),
    (3, 1): ((2, 2, 3, 3, 6), 21),
    (3, 2): ((2, 2, 2, 3, 6), 20),
    (4, 0): ((2, 3, 2, 2, 4, 7), 36),
    (4, 1): None,
    (4, 2): None,
    (5, 0): ((2, 2, 2, 3, 3, 4, 8), 66),
    (5, 1): None,
    (5, 2): None,
}
SPECIAL_CERTIFICATES = {
    ("fermat", 2): ((2, 2, 2, 2), 4),
    ("klein", 2): ((2, 2, 2, 4), 8),
    ("fermat", 3): ((2, 2, 2, 2, 2), 5),
    ("klein", 3): ((2, 2, 2, 2, 4), 8),
    ("fermat", 4): ((2, 2, 2, 2, 2, 2), 6),
    ("klein", 4): ((2, 2, 2, 2, 2, 4), 9),
    ("fermat", 5): ((2, 2, 2, 2, 2, 2, 2), 7),
    ("klein", 5): ((2, 2, 2, 2, 2, 2, 4), 10),
}
# Eigenspaces all of whose members are singular although every variable
# reaches degree 2: (p, sigma, weight).
SINGULAR_EIGENSPACES = (
    (5, (1, 1, 2, 2, 3, 4), 0),
    (3, (0, 0, 1, 1, 2), 1),
)
# First 16 hex digits of the sha256 of each whole Jacobian basis at 10007,
# in order, with its leading monomials, tails and coefficients.
DENSE_BASIS_DIGESTS = {
    (2, 0): "be876ab772c9bb2a", (2, 1): "0441c8edc0ac37b9",
    (3, 0): "37037c6b306cdfa4", (3, 1): "f502a3df288fe4dd",
    (4, 0): "1c11976e65fa9963", (4, 1): "d22127aad1a927ae",
    (5, 0): "9ba7d4ecc29ad954", (5, 1): "e66f31308da29ab9",
}
SPARSE_BASIS_DIGESTS = {
    (2, 0): "f8bc1a4e827dc6bb", (2, 1): "9a2f7293a30645a9", (2, 2): "27516078f347443f",
    (3, 0): "18225ec3e3013f9f", (3, 1): "b8f432be79f15c76", (3, 2): "78f8218fef9310b8",
    (4, 0): "79752d364c7699da", (4, 1): "530a90ae42e44b67", (4, 2): "06b5dfc735105e7b",
    (5, 0): "f796abcd365e2be6", (5, 1): "e50225b0ad3be9e4", (5, 2): "ed37aba6ae7961d4",
}


def seeded_forms():
    """(kind, n, index, form): two dense forms for each n = 2..5 from seed
    2024, then three with 3(n + 2) random monomials for each n from seed 7."""
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        mons = list(combinations_with_replacement(range(n + 2), 3))
        for k in range(2):
            yield "dense", n, k, CubicForm(n, {m: rng.randint(1, 10**6) for m in mons})
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        mons = list(combinations_with_replacement(range(n + 2), 3))
        for k in range(3):
            picked = rng.sample(mons, 3 * (n + 2))
            yield "sparse", n, k, CubicForm(n, {m: rng.randint(1, 10**6) for m in picked})


def test_certificates_match_the_pinned_table():
    for kind, n, k, F in seeded_forms():
        if kind == "dense":
            for q in DEFAULT_MODULI:
                powers, size = DENSE_CERTIFICATES[n]
                assert is_smooth_mod_q(F, q) == smoothness.SmoothnessCertificate(
                    q, powers, size), (n, k, q)
        else:
            expected = SPARSE_CERTIFICATES[n, k]
            cert = is_smooth_mod_q(F, DEFAULT_MODULI[0])
            if expected is None:
                assert cert is None, (n, k)
            else:
                assert (cert.pure_powers, cert.basis_size) == expected, (n, k)
    for (kind, n), (powers, size) in SPECIAL_CERTIFICATES.items():
        F = fermat(n) if kind == "fermat" else klein(n)
        cert = is_smooth_mod_q(F, DEFAULT_MODULI[0])
        assert (cert.pure_powers, cert.basis_size) == (powers, size), (kind, n)
    rng = random.Random(2024)
    for p, vals, a in SINGULAR_EIGENSPACES:
        basis = eigenspace_basis(Signature(p, vals), a).monomials
        F = CubicForm(len(vals) - 2, {m: rng.randint(1, 10**6) for m in basis})
        assert all(is_smooth_mod_q(F, q) is None for q in DEFAULT_MODULI), (p, vals)


def reference_pure_powers(F, q):
    """Pure-power exponent per variable among the leading monomials of the
    reference reduced basis of the partials, or None if one is missing.  A
    reduced basis is minimal, so it holds at most one per variable, the
    least in the leading-term ideal."""
    nv = F.n + 2
    gens = [PolyModQ(q, {tuple(pair.count(v) for v in range(nv)): c
                         for pair, c in dq.items()}) for dq in partials(F)]
    pure = {}
    for g in groebner_basis(gens):
        lm = g.lm()
        support = [i for i, x in enumerate(lm) if x]
        if len(support) == 1:
            pure[support[0]] = lm[support[0]]
    return tuple(pure[v] for v in range(nv)) if len(pure) == nv else None


def test_certificates_match_the_independent_reference():
    # The packed engine and the textbook Buchberger of groebner_oracle share
    # no code; they must find the same least pure powers of the same forms.
    q = DEFAULT_MODULI[0]
    forms = [F for _, n, _, F in seeded_forms() if n <= 3]
    forms += [klein(n) for n in (2, 3, 4)] + [fermat(3)]
    assert len(forms) == 14
    for F in forms:
        cert = is_smooth_mod_q(F, q)
        assert cert is not None and cert.pure_powers == reference_pure_powers(F, q), F.terms


def test_jacobian_bases_match_the_pinned_digests(monkeypatch):
    # The whole basis, not only the certificate, is the one the 16-bit
    # engine built, singular runs that end on an empty queue included; and
    # the run packs at the width rule, in one 30-bit digit up to n = 4.
    runs = []
    buchberger = smoothness._buchberger

    def recording(gens, q, P):
        out = buchberger(gens, q, P)
        runs.append((P, out[0]))
        return out

    monkeypatch.setattr(smoothness, "_buchberger", recording)
    digests = {("dense",) + k: v for k, v in DENSE_BASIS_DIGESTS.items()}
    digests.update({("sparse",) + k: v for k, v in SPARSE_BASIS_DIGESTS.items()})
    for kind, n, k, F in seeded_forms():
        is_smooth_mod_q(F, DEFAULT_MODULI[0])
        P, basis = runs.pop()
        nv = n + 2
        assert P.w == (2 * nv + 2).bit_length()
        rows = [(_unpack(P, lm), sorted((_unpack(P, e), c) for e, c in tail.items()))
                for lm, tail in basis]
        assert all(sum(e) <= nv + 1 for lm, tail in rows for e in [lm] + [t for t, _ in tail])
        if n <= 4:
            assert all(lm < 1 << 30 for lm, _ in basis)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == digests[kind, n, k], (kind, n, k)


def _pack(P, e) -> int:
    """Exponent vector e as a packed monomial of P's layout."""
    return sum(x << (P.w * i) for i, x in enumerate(e)) + (sum(e) << P.top)


def _unpack(P, m) -> tuple:
    return tuple(m >> (P.w * i) & ((1 << P.w - 1) - 1) for i in range(P.nv))


def degrevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def check_packed_against_tuples(P, monomials, pairs):
    packed = {e: _pack(P, e) for e in monomials}
    assert sorted(monomials, key=degrevlex_key) == sorted(monomials, key=lambda e: P.key(packed[e]))
    for e in monomials:
        m = packed[e]
        assert _unpack(P, m) == e and m >> P.top == sum(e)
        support = [i for i, x in enumerate(e) if x]
        assert P.pure_var(m) == (support[0] if len(support) == 1 else None), e
    lcms = {}
    for a, b in pairs:
        lcm = P.lcm(packed[a], packed[b])
        expected = tuple(map(max, a, b))
        assert _unpack(P, lcm) == expected and lcm >> P.top == sum(expected), (a, b)
        assert (not (packed[b] - packed[a]) & P.guard) == all(map(operator.ge, b, a)), (a, b)
        lcms[expected] = lcm
    # lcms reach degree 2 nv + 2, past the exponent fields, and still order
    # as degrevlex
    assert sorted(lcms, key=degrevlex_key) == sorted(lcms, key=lambda e: P.key(lcms[e]))


@pytest.mark.parametrize("nv", [4, 5])
def test_narrow_packing_matches_exponent_tuples_exhaustively(nv):
    # Every monomial of degree at most nv + 1, and every pair of them.
    P = smoothness._Packed(nv)
    monomials = [e for e in product(range(nv + 2), repeat=nv) if sum(e) <= nv + 1]
    check_packed_against_tuples(P, monomials, product(monomials, repeat=2))


def test_narrow_packing_matches_exponent_tuples_on_samples():
    rng = random.Random(41)
    for nv in range(2, 13):
        P = smoothness._Packed(nv)
        monomials = set()
        for _ in range(300):
            e = [0] * nv
            for _ in range(rng.randrange(nv + 2)):
                e[rng.randrange(nv)] += 1
            monomials.add(tuple(e))
        monomials |= {tuple(nv + 1 if j == i else 0 for j in range(nv)) for i in range(nv)}
        monomials = sorted(monomials)
        pairs = [(rng.choice(monomials), rng.choice(monomials)) for _ in range(2000)]
        check_packed_against_tuples(P, monomials, pairs)
