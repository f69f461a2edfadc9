"""The benchmark's workloads and the gates that check their outputs.

Each workload is a list of Items prepared from the seed before anything is
timed.  An item runs one request against a public entry point of the
package (``cubiclass.cli.main`` or a layer function, always looked up on
its module at call time so a tracer's wrappers see it) and has a gate that
returns None for a correct output or a message saying what is wrong.
"""

import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable

import cubiclass
import cubiclass.cli  # noqa: F401  (the package itself does not import it)
from cubiclass.classify import FamilyRecord
from cubiclass.forms import (
    CubicForm,
    eigenspace_basis,
    fermat,
    form_to_json,
    klein,
    klein_signature,
)
from cubiclass.hodge import KLEIN5_TANGENT_EXPONENTS
from cubiclass.signatures import AffinePermAction, Signature, act
from cubiclass.smoothness import DEFAULT_MODULI, SingularWitness, is_smooth_mod_q

adm = sys.modules["cubiclass.admissibility"]
sigs = sys.modules["cubiclass.signatures"]
cls = sys.modules["cubiclass.classify"]
hodge = sys.modules["cubiclass.hodge"]
cli = sys.modules["cubiclass.cli"]

GOLDEN_DIR = Path(cubiclass.__file__).parent / "golden"


@dataclass
class Item:
    """One request: ``run()`` is timed, ``check(output)`` is not."""

    kind: str
    run: Callable
    check: Callable
    units: int = 1  # work items it decides, for items_per_s


def run_cli(argv):
    out = io.StringIO()
    rc = cli.main(list(argv), out=out)
    return rc, out.getvalue()


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


# ---------------------------------------------------------------------------
# classify: the main command, end to end through cli.main


def _without_witness(rows):
    return [{k: v for k, v in r.items() if k != "witness"} for r in rows]


def witness_error(row):
    """None when the family's witness re-certifies at its stated modulus."""
    w = row.get("witness")
    if not w:
        return f"family {row['sigma']} has no witness"
    if len(w["coeffs"]) != len(row["basis"]):
        return f"family {row['sigma']}: witness length differs from basis"
    F = CubicForm(row["n"], dict(zip(map(tuple, row["basis"]), w["coeffs"])))
    cert = is_smooth_mod_q(F, w["certificate"]["modulus"])
    if cert is None or cert.to_json() != w["certificate"]:
        return f"family {row['sigma']}: witness does not re-certify"
    return None


def classify_gate(seed: int, golden: str | None):
    """Gate for ``classify --seed seed``.

    With a golden text: byte-identical at seed 0; at other seeds the rows
    minus witnesses, the rejected classes and the notes must match and
    every witness must re-certify.  Without one (n=5, p=43): exactly one
    family, with D = 0 and a witness that re-certifies.
    """
    ref = json.loads(golden) if golden is not None else None

    def check(output):
        rc, text = output
        if rc != 0:
            return f"exit {rc}"
        if ref is not None and seed == 0:
            return None if text == golden else "differs from the golden file"
        doc = json.loads(text)
        if doc.get("seed") != seed:
            return f"seed {doc.get('seed')} in output, expected {seed}"
        if ref is None:
            fams = doc["families"]
            if len(fams) != 1 or fams[0]["D"] != 0 or doc["rejected"]:
                return "expected one family with D = 0 and no rejected class"
        else:
            if _without_witness(doc["families"]) != _without_witness(ref["families"]):
                return "family rows differ from the golden file"
            if doc["rejected"] != ref["rejected"] or doc["notes"] != ref["notes"]:
                return "rejected classes or notes differ from the golden file"
        for row in doc["families"]:
            err = witness_error(row)
            if err:
                return err
        return None

    return check


def classify_items(seed: int, workdir: Path):
    items = []
    for n in (3, 4):
        golden = golden_text(f"classify_n{n}.json")
        ref = json.loads(golden)
        argv = ("classify", "--n", str(n), "--seed", str(seed))
        items.append(
            Item(
                f"classify --n {n}",
                lambda argv=argv: run_cli(argv),
                classify_gate(seed, golden),
                len(ref["families"]) + len(ref["rejected"]),
            )
        )
    argv = ("classify", "--n", "5", "--p", "43", "--seed", str(seed))
    items.append(
        Item("classify --n 5 --p 43", lambda: run_cli(argv), classify_gate(seed, None))
    )
    return items


# ---------------------------------------------------------------------------
# forms: given forms through `smooth`, spectra and Jacobian-ring characters

EXIT_OK, EXIT_SINGULAR, EXIT_INCONCLUSIVE = 0, 4, 5

# Eigenspaces every member of which is singular although each variable
# reaches degree 2: the search exhausts every modulus (exit 5).
SINGULAR_EIGENSPACES = (
    (5, (1, 1, 2, 2, 3, 4), 0),
    (3, (0, 0, 1, 1, 2), 1),
)

COEFF_RANGE = (1, 10**6)


def smooth_gate(expected_rc: int, form: CubicForm):
    """Gate for ``smooth FILE`` on a form whose verdict is known."""

    def check(output):
        rc, text = output
        if rc != expected_rc:
            return f"exit {rc}, expected {expected_rc}"
        doc = json.loads(text)
        if rc == EXIT_OK:
            powers = doc["certificate"]["pure_powers"]
            if len(powers) != form.n + 2 or not all(
                2 <= e <= form.n + 3 for e in powers
            ):
                return f"certificate pure powers {powers} out of range"
        elif rc == EXIT_SINGULAR:
            point = tuple(doc["singular_witness"]["point"])
            if not SingularWitness(point).annihilates(form):
                return f"point {point} is not singular"
        elif doc != {"result": "inconclusive", "moduli": list(DEFAULT_MODULI)}:
            return "unexpected inconclusive report"
        return None

    return check


def character_gate(n: int, d: int, p: int):
    """The degree-d piece of S/J(F) has dimension C(n+2, d)."""

    def check(spec):
        if spec.p != p or len(spec.exponents) != comb(n + 2, d):
            return f"total multiplicity {len(spec.exponents)}, expected {comb(n + 2, d)}"
        return None

    return check


def spectrum_gate(exponents: frozenset, p: int):
    def check(output):
        rc, text = output
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(text)
        if doc["p"] != p or len(doc["exponents"]) != len(exponents) or set(
            doc["exponents"]
        ) != exponents:
            return f"spectrum {doc['exponents']} mod {doc['p']} is wrong"
        return None

    return check


def _random_form(rng, n, monomials):
    return CubicForm(n, {m: rng.randint(*COEFF_RANGE) for m in monomials})


def forms_items(seed: int, workdir: Path):
    rng = random.Random(seed)
    cases = []  # (label, form, expected exit code)
    for n in (3, 4):
        for row in json.loads(golden_text(f"classify_n{n}.json"))["families"]:
            form = _random_form(rng, n, map(tuple, row["basis"]))
            cases.append((f"family {row['label']}", form, EXIT_OK))
    for n, count in ((3, 3), (4, 3), (5, 2)):
        mons = list(combinations_with_replacement(range(n + 2), 3))
        for _ in range(count):
            cases.append((f"dense n={n}", _random_form(rng, n, mons), EXIT_OK))
    for n in (4, 5, 6, 7):
        cases.append((f"fermat n={n}", fermat(n), EXIT_OK))
        cases.append((f"klein n={n}", klein(n), EXIT_OK))
    for p, vals, a in SINGULAR_EIGENSPACES:
        basis = eigenspace_basis(Signature(p, vals), a).monomials
        for _ in range(2):
            form = _random_form(rng, len(vals) - 2, basis)
            cases.append((f"singular eigenspace p={p}", form, EXIT_INCONCLUSIVE))
    for n in (3, 4, 5):
        # the last variable only ever appears linearly
        mons = [m for m in combinations_with_replacement(range(n + 2), 3)
                if m.count(n + 1) < 2]
        for _ in range(2):
            cases.append((f"linear variable n={n}", _random_form(rng, n, mons),
                          EXIT_SINGULAR))

    items = []
    for idx, (label, form, rc) in enumerate(cases):
        path = workdir / f"form{idx:03d}.json"
        path.write_text(json.dumps(form_to_json(form)))
        argv = ("smooth", str(path))
        items.append(Item(f"smooth {label}", lambda argv=argv: run_cli(argv),
                          smooth_gate(rc, form)))

    items.append(Item("spectrum --klein 3", lambda: run_cli(("spectrum", "--klein", "3")),
                      spectrum_gate(frozenset((1, 3, 4, 5, 9)), 11)))
    items.append(Item("spectrum --klein 5", lambda: run_cli(("spectrum", "--klein", "5")),
                      spectrum_gate(KLEIN5_TANGENT_EXPONENTS, 43)))
    for n in (5, 7):
        K = klein(n)
        p, sig = klein_signature(n)
        for d in range(8):
            items.append(Item(
                f"character klein n={n} d={d}",
                lambda K=K, sig=sig, d=d: hodge.jacobian_ring_character(K, sig, d),
                character_gate(n, d, p),
            ))
    return items


# ---------------------------------------------------------------------------
# orbits: the group-theory paths, no Groebner engine

# Class counts of the seed implementation: (p, n, strategy) -> classes.
ORBIT_COUNTS = {
    (683, 9, "chain_pruned"): 1,
    (11, 7, "exhaustive"): 853,
    (17, 5, "exhaustive"): 912,
}
ORBIT_BUDGET = 10**10
CANON_PRIMES = (31, 43, 127)
CANON_PER_PRIME = 20
CANON_LENGTH = 7
# Fermat symmetry group: number of signature classes per prime order.
FERMAT_CLASS_COUNTS = {3: {2: 2, 3: 4, 5: 1}, 4: {2: 3, 3: 6, 5: 1}}
# Golden families that contain the Fermat n-fold.
FERMAT_FAMILIES = frozenset(
    "T_2^1 T_2^2 T_3^1 T_3^2 T_3^3 T_3^4 T_5^1 "
    "F_2^1 F_2^2 F_2^3 F_3^1 F_3^2 F_3^3 F_3^4 F_3^5 F_3^6 F_5^1".split()
)


def count_gate(expected: int):
    def check(classes):
        if len(classes) != expected:
            return f"{len(classes)} classes, expected {expected}"
        return None

    return check


def canonical_gate(sig: Signature):
    def check(canon):
        if canon.p != sig.p or len(canon.values) != len(sig.values):
            return "canonical form changed the modulus or the length"
        if sigs.canonicalize(canon) != canon or canon.values[0] != 0:
            return f"{canon.values} is not a fixed point of canonicalize"
        return None

    return check


def equal_gate(expected, what: str):
    def check(output):
        return None if output == expected else f"{what}: got {output!r}"

    return check


def fermat_classes_gate(n: int):
    expected = FERMAT_CLASS_COUNTS[n]

    def check(classes):
        counts = {p: len(v) for p, v in classes.items()}
        return None if counts == expected else f"class counts {counts}"

    return check


def admissible_tables():
    adm.admissible_primes.cache_clear()
    return {
        "admissible_primes": {
            str(n): list(adm.admissible_primes(n)) for n in range(2, 11)
        },
        "max_admissible_prime": {
            str(n): adm.max_admissible_prime(n) for n in range(11, 21)
        },
    }


def fermat_classes_cold(n: int):
    cls.fermat_order_classes.cache_clear()
    return cls.fermat_order_classes(n)


def orbits_items(seed: int, workdir: Path):
    rng = random.Random(seed)
    items = []
    for (p, n, strategy), count in ORBIT_COUNTS.items():
        items.append(Item(
            f"enumerate_orbits({p}, {n}, {strategy})",
            lambda p=p, n=n, s=strategy: sigs.enumerate_orbits(p, n, s, ORBIT_BUDGET),
            count_gate(count),
        ))
    for p in CANON_PRIMES:
        for _ in range(CANON_PER_PRIME):
            sig = Signature(p, [rng.randrange(p) for _ in range(CANON_LENGTH)])
            perm = list(range(CANON_LENGTH))
            rng.shuffle(perm)
            g = AffinePermAction(p, rng.randrange(1, p), rng.randrange(p), perm)
            moved = act(sig, g)
            items.append(Item(f"canonicalize p={p}",
                              lambda sig=sig: sigs.canonicalize(sig),
                              canonical_gate(sig)))
            items.append(Item(f"equivalent p={p}",
                              lambda a=sig, b=moved: sigs.equivalent(a, b),
                              equal_gate(True, "equivalent(s, act(s, g))")))
    items.append(Item("admissible tables n=2..20", admissible_tables,
                      equal_gate(json.loads(golden_text("admissible_tables.json")),
                                 "admissible tables")))
    for n in (3, 4):
        items.append(Item(f"fermat_order_classes({n})",
                          lambda n=n: fermat_classes_cold(n),
                          fermat_classes_gate(n)))
    for n in (3, 4):
        for row in json.loads(golden_text(f"classify_n{n}.json"))["families"]:
            rec = FamilyRecord(
                p=row["p"], n=n, sigma=Signature(row["p"], row["sigma"]),
                weight=row["weight"], dim_E=row["dim_E"],
                dim_norm=row["dim_norm"], D=row["D"], label=row["label"],
            )
            items.append(Item(f"fermat_membership {row['label']}",
                              lambda n=n, rec=rec: cls.fermat_membership(n, rec),
                              equal_gate(row["label"] in FERMAT_FAMILIES,
                                         f"fermat_membership {row['label']}")))
    return items


WORKLOADS = {
    "classify": classify_items,
    "forms": forms_items,
    "orbits": orbits_items,
}
