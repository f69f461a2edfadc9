"""Command-line surface: tables, classification runs, smoothness checks,
spectra, and golden-file regeneration.

Exit codes: 0 success, 2 usage or input error (an orbit walk over its
budget included), 4 certified-singular witness, 5 inconclusive smoothness.
A RuntimeError is a fault and is not mapped to an exit code.
"""

import argparse
import contextlib
import json
import sys
from functools import lru_cache
from pathlib import Path

from .admissibility import admissible_primes, is_prime, max_admissible_prime
from .classify import check_budget, classify_with_audit
from .forms import form_from_json
from .hodge import is_stable_under, klein_tangent_spectrum
from .smoothness import (
    DEFAULT_MODULI,
    certify_smooth_over_Q,
    singular_point_from_lemma_base,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 4
EXIT_INCONCLUSIVE = 5

_esc = json.encoder.encode_basestring_ascii


def _dump(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=2) + "\\n" writes it,
    byte for byte, for the types CLI documents hold: dicts with str keys,
    lists, str, int, bool and None.  Any other type, a float, a tuple or a
    set among them, raises TypeError.  json's indented encoder is pure
    Python; this one writes an all-int list in one join."""
    return _json(doc, "\n") + "\n"


def _json(v, nl: str) -> str:
    """v as _dump writes it, nl the line break and indent of v's own line."""
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    t = type(v)
    if t is str:
        return _esc(v)
    if t is int:
        return str(v)
    if t is not dict and t is not list:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not v:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        body = sep.join([_esc(k) + ": " + _json(v[k], inner) for k in sorted(v)])
        return "{" + inner + body + nl + "}"
    if set(map(type, v)) == {int}:
        body = sep.join(map(str, v))
    else:
        body = sep.join([_json(x, inner) for x in v])
    return "[" + inner + body + nl + "]"


# ---------------------------------------------------------------------------
# admissible


def _parse_range(spec: str):
    lo, _, hi = spec.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--range {spec!r} is not of the form lo..hi") from None


def _admissible_value(n: int, max_only: bool):
    try:
        return max_admissible_prime(n) if max_only else list(admissible_primes(n))
    except ValueError as exc:
        raise ValueError(f"n={n}: {exc}") from exc


def cmd_admissible(args, out) -> int:
    """md and csv rows are written as they are computed, so an n that
    raises keeps the rows before it (and the md header only once a row
    follows it); json is written whole or not at all."""
    if args.range:
        lo, hi = _parse_range(args.range)
        if lo < 2 or hi < lo:
            raise ValueError(f"--range {args.range} needs 2 <= lo <= hi")
        ns = range(lo, hi + 1)
    elif args.n is None:
        raise ValueError("admissible needs --n or --range")
    else:
        ns = [args.n]
    key = "max_prime" if args.max_only else "admissible_primes"
    if args.format == "json":
        rows = [{"n": n, key: _admissible_value(n, args.max_only)} for n in ns]
        out.write(_dump(rows))
        return EXIT_OK
    md = args.format == "md"
    for n in ns:
        value = _admissible_value(n, args.max_only)
        if md and n == ns[0]:
            title = "max prime" if args.max_only else "admissible primes"
            out.write(f"| n | {title} |\n|---|---|\n")
        if not args.max_only:
            value = (", " if md else " ").join(str(p) for p in value)
        out.write(f"| {n} | {value} |\n" if md else f"{n},{value}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def _sigma_str(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _classification_document(n: int, primes, seed: int = 0):
    # Every walk's size is closed-form: an over-budget prime is refused
    # before the walks of the primes ahead of it run.
    for p in primes:
        check_budget(n, p)
    families, rejected, notes = [], [], []
    for p in primes:
        acc, rej, why = classify_with_audit(n, p)
        families.extend(r.to_json() for r in acc)
        rejected.extend(r.to_json() for r in rej)
        notes.extend(why)
    doc = {
        "n": n,
        "families": families,
        "rejected": rejected,
        "notes": notes,
        "seed": seed,
    }
    return doc


def _render_classification(doc, fmt: str, out):
    if fmt == "json":
        out.write(_dump(doc))
        return
    if fmt == "csv":
        out.write("label,p,n,sigma,weight,dim_E,dim_norm,D\n")
        for r in doc["families"]:
            out.write(
                f"{r['label'] or ''},{r['p']},{r['n']},"
                f"\"{_sigma_str(r['sigma'])}\",{r['weight']},"
                f"{r['dim_E']},{r['dim_norm']},{r['D']}\n",
            )
        return
    out.write("| label | p | sigma | weight | dim_E | dim_norm | D |\n")
    out.write("|---|---|---|---|---|---|---|\n")
    for r in doc["families"]:
        out.write(
            f"| {r['label'] or ''} | {r['p']} | {_sigma_str(r['sigma'])} "
            f"| {r['weight']} | {r['dim_E']} | {r['dim_norm']} | {r['D']} |\n",
        )
    for note in doc["notes"]:
        out.write(f"\nnote: {note}\n")


def cmd_classify(args, out) -> int:
    if args.p is not None:
        if not is_prime(args.p):
            raise ValueError(f"--p {args.p} is not prime")
        primes = [args.p]
    else:
        primes = list(admissible_primes(args.n))
    doc = _classification_document(args.n, primes, args.seed)
    _render_classification(doc, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# smooth


def cmd_smooth(args, out) -> int:
    try:
        F = form_from_json(json.loads(Path(args.form).read_text()))
    except (OSError, RecursionError) as exc:
        raise ValueError(exc) from exc
    if not F:
        raise ValueError("zero form")
    witness = singular_point_from_lemma_base(F)
    if witness is not None:
        out.write(_dump({"singular_witness": witness.to_json()}))
        return EXIT_SINGULAR
    cert = certify_smooth_over_Q(F)
    if cert is None:
        out.write(_dump({"result": "inconclusive", "moduli": list(DEFAULT_MODULI)}))
        return EXIT_INCONCLUSIVE
    out.write(_dump({"certificate": cert.to_json()}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args, out) -> int:
    spec = klein_tangent_spectrum(args.klein)
    doc = spec.to_json()
    if args.klein == 5:
        doc["stable_under"] = {"m": 11, "stable": is_stable_under(spec, 11)}
    else:
        doc["stable_under"] = None
    out.write(_dump(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# golden files


def _golden_documents():
    yield "admissible_tables.json", _dump(
        {
            "admissible_primes": {
                str(n): list(admissible_primes(n)) for n in range(2, 11)
            },
            "max_admissible_prime": {
                str(n): max_admissible_prime(n) for n in range(11, 21)
            },
        }
    )
    for n in range(2, 9):
        doc = _classification_document(n, list(admissible_primes(n)))
        yield f"classify_n{n}.json", _dump(doc)


def regen_golden(out) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _golden_documents():
        (GOLDEN_DIR / name).write_text(text)
        out.write(f"wrote {GOLDEN_DIR / name}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="cubiclass",
        description="Prime-order automorphisms of smooth cubic n-folds: "
        "admissible primes, family classification, certified smoothness, "
        "tangent-space spectra.",
    )
    parser.add_argument(
        "--regen-golden",
        action="store_true",
        help="rewrite the in-repo golden files and exit",
    )
    sub = parser.add_subparsers(dest="command")

    pa = sub.add_parser("admissible", help="admissible prime tables")
    which = pa.add_mutually_exclusive_group()
    which.add_argument("--n", type=int)
    which.add_argument("--range", help="inclusive range like 11..20")
    pa.add_argument("--max-only", action="store_true")
    pa.add_argument("--format", choices=("json", "csv", "md"), default="md")

    pc = sub.add_parser("classify", help="classify families for dimension n")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--p", type=int)
    # Only echoed as "seed": bench/workloads.py passes it and checks the echo.
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--format", choices=("json", "csv", "md"), default="json")

    ps = sub.add_parser("smooth", help="certify a cubic form file")
    ps.add_argument("form", help="JSON form file")

    pq = sub.add_parser("spectrum", help="Klein tangent-space spectrum")
    pq.add_argument("--klein", type=int, required=True)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        # --help prints to out; argparse errors still go to stderr
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
        if args.regen_golden:
            return regen_golden(out)
        handlers = {
            "admissible": cmd_admissible,
            "classify": cmd_classify,
            "smooth": cmd_smooth,
            "spectrum": cmd_spectrum,
        }
        if args.command is None:
            parser.print_usage(out)
            return EXIT_USAGE
        return handlers[args.command](args, out)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
