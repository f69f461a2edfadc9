import importlib
import io
import json
import shlex
import time
from math import prod
from pathlib import Path

import pytest

from cubiclass.cli import GOLDEN_DIR, _dump, _golden_documents, build_parser, main
from cubiclass.forms import fermat, form_to_json, klein
from cubiclass.smoothness import DEFAULT_MODULI


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_admissible_single_row():
    code, text = run_cli("admissible", "--n", "3")
    assert code == 0
    assert "| 3 | 2, 3, 5, 11 |" in text


def test_admissible_invalid_dimension():
    code, _ = run_cli("admissible", "--n", "1")
    assert code == 2


def test_admissible_range_max_only():
    code, text = run_cli("admissible", "--range", "11..20", "--max-only", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "11,2731"
    assert lines[-1] == "20,174763"


def test_admissible_large_n():
    # 2^62 - 1 has the cofactor 715827883 * 2147483647; at n = 99 the prime
    # cofactor (2^101 + 1)/3 is past the deterministic primality range.
    t0 = time.perf_counter()
    code, text = run_cli("admissible", "--n", "60", "--max-only", "--format", "csv")
    assert code == 0
    assert text == "60,768614336404564651\n"
    assert time.perf_counter() - t0 < 5.0
    t0 = time.perf_counter()
    code, text = run_cli("admissible", "--n", "99")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert text == (
        "error: n=99: 845100400152152934331135470251"
        " is beyond the deterministic primality range\n"
    )


def test_admissible_range_keeps_rows_before_an_error():
    # n = 99 is past the primality range; the rows for 97 and 98 stay.
    code, text = run_cli("admissible", "--range", "97..99", "--max-only", "--format", "csv")
    assert code == 2
    rows = text.splitlines()
    assert [r.split(",")[0] for r in rows[:2]] == ["97", "98"]
    assert len(rows) == 3 and rows[2].startswith("error: n=99: ")


def test_admissible_n_and_range_exclude_each_other(capsys):
    code, text = run_cli("admissible", "--n", "3", "--range", "4..5")
    assert code == 2 and text == ""
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["5", "a..b", "5.."])
def test_admissible_malformed_range_names_the_option(spec):
    code, text = run_cli("admissible", "--range", spec)
    assert code == 2
    assert text == f"error: --range {spec!r} is not of the form lo..hi\n"


def test_main_parses_with_one_parser(monkeypatch):
    parser = build_parser()
    real = parser.parse_args
    parsed = []

    def spy(argv):
        parsed.append(argv)
        return real(argv)

    monkeypatch.setattr(parser, "parse_args", spy)
    first = run_cli("admissible", "--n", "3")
    second = run_cli("admissible", "--n", "3")
    assert first == second and first[0] == 0
    assert build_parser() is parser and len(parsed) == 2


@pytest.mark.parametrize(
    "argv", [("admissible", "--n", "1"), ("admissible", "--n", "x")]
)
def test_usage_error_after_a_successful_call(argv, capsys):
    assert run_cli("admissible", "--n", "3")[0] == 0
    code, text = run_cli(*argv)
    assert code == 2
    assert "error:" in text + capsys.readouterr().err


def test_admissible_json():
    code, text = run_cli("admissible", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc == [{"n": 4, "admissible_primes": [2, 3, 5, 7, 11]}]


def test_classify_single_prime_md():
    code, text = run_cli("classify", "--n", "5", "--p", "43", "--format", "md")
    assert code == 0
    rows = [l for l in text.splitlines() if l.startswith("|") and "label" not in l and "---" not in l]
    assert len(rows) == 1
    assert "| 0 |" in rows[0]  # D = 0


def test_classify_inadmissible_note():
    code, text = run_cli("classify", "--n", "4", "--p", "13")
    assert code == 0
    doc = json.loads(text)
    assert doc["families"] == []
    assert doc["notes"] == ["13 not admissible in dimension 4"]


def test_classify_inadmissible_note_md():
    code, text = run_cli("classify", "--n", "4", "--p", "13", "--format", "md")
    assert code == 0
    assert text == (
        "| label | p | sigma | weight | dim_E | dim_norm | D |\n"
        "|---|---|---|---|---|---|---|\n"
        "\nnote: 13 not admissible in dimension 4\n"
    )


def test_classify_csv():
    code, text = run_cli("classify", "--n", "3", "--p", "11", "--format", "csv")
    assert code == 0
    assert text == (
        "label,p,n,sigma,weight,dim_E,dim_norm,D\n"
        'T_11^1,11,3,"(1,3,4,5,9)",0,5,5,0\n'
    )


def test_classify_inadmissible_huge_prime_at_once():
    # The criterion takes n + 2 modular powers; it never factors p - 1.
    t0 = time.perf_counter()
    code, text = run_cli("classify", "--n", "3", "--p", "1000000000000000003")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    doc = json.loads(text)
    assert doc["families"] == [] and doc["rejected"] == []
    assert doc["notes"] == ["1000000000000000003 not admissible in dimension 3"]


def test_classify_rejects_pseudoprimes():
    # psi_12 = 399165290221 * 798330580441 is composite, and so is the
    # 26-digit 2731 * 224771 * 1210483 * 25829691707 past psi_13: a failing
    # base proves it at any size.  psi_13 passes every base, so from psi_13
    # up such a number gets no primality answer.
    for p in ("318665857834031151167461", "19192868826129926742622081"):
        code, text = run_cli("classify", "--n", "3", "--p", p)
        assert code == 2 and text == f"error: --p {p} is not prime\n"
    code, text = run_cli("classify", "--n", "3", "--p", "3317044064679887385961981")
    assert code == 2
    assert text.startswith("error:")


def test_classify_chain_pruned_resolves_small_primes():
    # p = 2 and 3 are walked exhaustively; 43 is walked chain-pruned.
    code, text = run_cli("classify", "--n", "5")
    assert code == 0
    doc = json.loads(text)
    assert {r["p"] for r in doc["families"]} == {2, 3, 5, 7, 11, 43}
    (klein5,) = [r for r in doc["families"] if r["p"] == 43]
    assert klein5["sigma"] == [1, 4, 11, 16, 21, 35, 41]
    assert klein5["D"] == 0


def test_classify_json_shape():
    code, text = run_cli("classify", "--n", "3", "--p", "11")
    assert code == 0
    doc = json.loads(text)
    assert len(doc["families"]) == 1
    fam = doc["families"][0]
    assert fam["sigma"] == [1, 3, 4, 5, 9]
    assert fam["witness"]["coeffs"] == [1, 1, 1, 1, 1]


def test_classify_deterministic_output():
    _, t1 = run_cli("classify", "--n", "3", "--p", "11")
    _, t2 = run_cli("classify", "--n", "3", "--p", "11")
    assert t1 == t2


def test_smooth_klein_file(tmp_path):
    path = tmp_path / "klein5.json"
    path.write_text(json.dumps(form_to_json(klein(5))))
    code, text = run_cli("smooth", str(path))
    assert code == 0
    doc = json.loads(text)
    assert doc["certificate"]["modulus"] == 10007


def test_smooth_missing_variable(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"n": 2, "terms": [{"c": 1, "m": [0, 0, 1]}, {"c": 1, "m": [1, 1, 2]},
                             {"c": 1, "m": [0, 2, 2]}]}
    path.write_text(json.dumps(doc))
    code, text = run_cli("smooth", str(path))
    assert code == 4
    out = json.loads(text)
    assert out["singular_witness"]["point"] == [0, 0, 0, 1]


def test_smooth_inconclusive(tmp_path):
    # Singular at the rational point (1:1:1:0); every variable reaches
    # degree >= 2, so the lemma filter stays quiet and all moduli fail.
    doc = {
        "n": 2,
        "terms": [
            {"c": 1, "m": [0, 0, 0]},
            {"c": 1, "m": [1, 1, 1]},
            {"c": 1, "m": [2, 2, 2]},
            {"c": -3, "m": [0, 1, 2]},
            {"c": 1, "m": [3, 3, 3]},
        ],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli("smooth", str(path))
    assert code == 5
    assert json.loads(text)["result"] == "inconclusive"


def smooth_scaled_fermat(tmp_path, scale):
    doc = form_to_json(fermat(3))
    for term in doc["terms"]:
        term["c"] *= scale
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return run_cli("smooth", str(path))


def test_smooth_form_vanishing_at_first_modulus(tmp_path):
    # F and 10007 F cut out the same cubic: the certificate is F's own.
    code, text = smooth_scaled_fermat(tmp_path, 10007)
    assert code == 0
    assert json.loads(text)["certificate"]["modulus"] == 10007
    assert (code, text) == smooth_scaled_fermat(tmp_path, 1)


def test_smooth_form_vanishing_at_every_modulus(tmp_path):
    # Every default modulus divides every coefficient; the gcd is divided
    # out first, so this is no bad reduction and the first modulus certifies.
    code, text = smooth_scaled_fermat(tmp_path, prod(DEFAULT_MODULI))
    assert code == 0
    assert json.loads(text)["certificate"]["modulus"] == DEFAULT_MODULI[0]
    assert (code, text) == smooth_scaled_fermat(tmp_path, 1)


def test_smooth_has_no_moduli_option(tmp_path):
    # One good prime certifies; DEFAULT_MODULI is the only list tried.
    path = tmp_path / "klein3.json"
    path.write_text(json.dumps(form_to_json(klein(3))))
    code, _ = run_cli("smooth", str(path), "--moduli", "10007")
    assert code == 2


def test_smooth_missing_file(tmp_path):
    path = tmp_path / "missing.json"
    code, text = run_cli("smooth", str(path))
    assert code == 2
    assert text == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_smooth_rejects_zero_form(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "terms": []}))
    code, text = run_cli("smooth", str(path))
    assert code == 2
    assert text == "error: zero form\n"


def test_smooth_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps({"n": 2, "terms": [{"c": 1, "m": [0, 0, 0]}, {"c": 1, "m": [0, 0, 0]}]})
    )
    code, _ = run_cli("smooth", str(path))
    assert code == 2


@pytest.mark.parametrize("term", [{"c": 1, "m": [3, 3, 3.7]}, {"c": True, "m": [3, 3, 3]}])
def test_smooth_rejects_non_integer_entries(tmp_path, term):
    # A float index is not truncated and a boolean is not read as 1.
    terms = [{"c": 1, "m": [i, i, i]} for i in range(3)] + [term]
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, "terms": terms}))
    code, text = run_cli("smooth", str(path))
    assert code == 2
    assert text.startswith("error:")


@pytest.mark.parametrize(
    "terms", [["cm"], [1], [{"c": 1, "m": 5}], [{"c": 1, "m": [[0], 0, 0]}]], ids=repr
)
def test_smooth_rejects_malformed_term_entries(tmp_path, terms):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, "terms": terms}))
    code, text = run_cli("smooth", str(path))
    assert code == 2
    assert text.startswith("error: bad term entry") and text.count("\n") == 1


def test_smooth_rejects_deeply_nested_json(tmp_path):
    # json.loads raises RecursionError here, which is bad input, not a crash.
    path = tmp_path / "form.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, text = run_cli("smooth", str(path))
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1


# Full stdout of spectrum --klein 3 and --klein 5, byte for byte.
SPECTRUM_KLEIN3 = (
    '{\n'
    '  "exponents": [\n'
    '    1,\n'
    '    3,\n'
    '    4,\n'
    '    5,\n'
    '    9\n'
    '  ],\n'
    '  "p": 11,\n'
    '  "stable_under": null\n'
    '}\n'
)
SPECTRUM_KLEIN5 = (
    '{\n'
    '  "exponents": [\n'
    '    2,\n'
    '    3,\n'
    '    5,\n'
    '    8,\n'
    '    9,\n'
    '    12,\n'
    '    13,\n'
    '    14,\n'
    '    15,\n'
    '    17,\n'
    '    19,\n'
    '    20,\n'
    '    22,\n'
    '    25,\n'
    '    27,\n'
    '    32,\n'
    '    33,\n'
    '    36,\n'
    '    37,\n'
    '    39,\n'
    '    42\n'
    '  ],\n'
    '  "p": 43,\n'
    '  "stable_under": {\n'
    '    "m": 11,\n'
    '    "stable": true\n'
    '  }\n'
    '}\n'
)


def test_spectrum_klein5():
    code, text = run_cli("spectrum", "--klein", "5")
    assert code == 0
    assert text == SPECTRUM_KLEIN5
    doc = json.loads(text)
    assert len(doc["exponents"]) == 21
    assert doc["stable_under"] == {"m": 11, "stable": True}


def test_spectrum_klein3():
    code, text = run_cli("spectrum", "--klein", "3")
    assert code == 0
    assert text == SPECTRUM_KLEIN3
    doc = json.loads(text)
    assert len(doc["exponents"]) == 5
    assert doc["stable_under"] is None


def test_spectrum_unsupported():
    code, text = run_cli("spectrum", "--klein", "4")
    assert code == 2
    assert text == "error: supported dimensions are 3 and 5, not 4\n"


def test_no_command_usage(capsys):
    # The usage line goes to out, like every other line main writes.
    code, text = run_cli()
    assert code == 2
    assert text.startswith("usage: cubiclass ")
    assert capsys.readouterr().out == ""


def test_help_goes_to_out(capsys):
    # --help is written to out too; a parse error stays on stderr.
    code, text = run_cli("--help")
    assert code == 0
    assert text.startswith("usage: cubiclass ") and "--regen-golden" in text
    assert capsys.readouterr().out == ""
    code, text = run_cli("--no-such-option")
    assert code == 2 and text == ""
    assert "unrecognized arguments" in capsys.readouterr().err


def test_classify_budget_exhaustion_is_an_input_error(monkeypatch):
    # classify's walks fit the enumeration budget below n = 183 at p = 3
    # (584 at p = 2), so a budget of 10 is forced here to reach an
    # exhausted one at small n: exit 2 and one error line, no document.
    classify_module = importlib.import_module("cubiclass.classify")
    real = classify_module.enumerate_orbits

    def small_budget(p, n, strategy="exhaustive"):
        return real(p, n, strategy, budget=10)

    monkeypatch.setattr(classify_module, "enumerate_orbits", small_budget)
    # p <= 3 must be walked exhaustively: chain_pruned needs p > 3.
    for n, p, hint in (
        (3, 5, "use the chain_pruned strategy"),
        (2, 3, "no pruning at p <= 3"),
        (2, 2, "no pruning at p <= 3"),
    ):
        code, text = run_cli("classify", "--n", str(n), "--p", str(p))
        assert code == 2, (n, p)
        assert text.startswith(f"error: p={p}, n={n}: "), (n, p)
        assert text.endswith(f" lead-block candidates exceed budget 10; {hint}\n")
        assert text.count("\n") == 1, (n, p)


def test_classify_past_the_budget_exits_2():
    # From n = 183 at p = 3 and n = 584 at p = 2 the exhaustive walk needs
    # more lead-block candidates than the default budget of 10^8, and the
    # chain walks at (30, 683) and (40, 2731) more scaling candidates; each
    # count is closed-form, so the run ends at once, before any walk.  The
    # error names no option.
    for n, p, work, kind, hint in (
        (183, 3, 100213760, "lead-block", "no pruning at p <= 3"),
        (584, 2, 100443330, "lead-block", "no pruning at p <= 3"),
        (30, 683, 130056675840, "scaling", "no strategy prunes further"),
        (40, 2731, 1462704603165876, "scaling", "no strategy prunes further"),
    ):
        start = time.perf_counter()
        code, text = run_cli("classify", "--n", str(n), "--p", str(p))
        assert time.perf_counter() - start < 1, (n, p)
        assert code == 2, (n, p)
        assert text == (
            f"error: p={p}, n={n}: {work} {kind} candidates exceed budget "
            f"100000000; {hint}\n"
        )


def test_classify_refuses_an_over_budget_prime_before_any_walk():
    # Each prime's walk size is closed-form, so every admissible prime is
    # checked before the first walk: n = 30 names p = 11 and n = 22 names
    # p = 43 at once, without walking the primes below them first.
    for n, p, work in ((30, 11, 2070835712), (22, 43, 244142976)):
        start = time.perf_counter()
        code, text = run_cli("classify", "--n", str(n))
        assert time.perf_counter() - start < 1, n
        assert code == 2, n
        assert text == (
            f"error: p={p}, n={n}: {work} scaling candidates exceed budget "
            "100000000; no strategy prunes further\n"
        )


def test_classify_has_no_moduli_option():
    # Witnesses are certified at DEFAULT_MODULI; no command takes --moduli.
    code, _ = run_cli("classify", "--n", "3", "--moduli", "10007")
    assert code == 2


def test_classify_has_no_trials_option():
    # Every witness is the invertible member, so there is no search to bound.
    code, _ = run_cli("classify", "--n", "3", "--trials", "1")
    assert code == 2


def test_classify_has_no_strategy_or_budget_option():
    # n and p alone choose the orbit walk; a walk over the enumeration
    # budget (from n = 183 at p = 3, n = 584 at p = 2) is an input error.
    code, _ = run_cli("classify", "--n", "3", "--strategy", "exhaustive")
    assert code == 2
    code, _ = run_cli("classify", "--n", "3", "--budget", "5")
    assert code == 2


def test_classify_seed_is_only_echoed():
    code0, text0 = run_cli("classify", "--n", "3")
    code7, text7 = run_cli("classify", "--n", "3", "--seed", "7")
    assert code0 == code7 == 0
    doc0, doc7 = json.loads(text0), json.loads(text7)
    assert doc7.pop("seed") == 7 and doc0.pop("seed") == 0
    assert doc7 == doc0


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--n", "3", "--p", "4"),
        ("classify", "--n", "1"),
        ("admissible", "--n", "1"),
        ("admissible", "--range", "5..3"),
        ("admissible",),
        ("spectrum", "--klein", "4"),
    ],
)
def test_usage_errors_say_why(argv):
    code, text = run_cli(*argv)
    assert code == 2
    assert text.startswith("error: ") and len(text) > len("error: \n")


def test_classify_md_table_n3():
    code, text = run_cli("classify", "--n", "3", "--format", "md")
    assert code == 0
    rows = [
        l for l in text.splitlines()
        if l.startswith("|") and "label" not in l and "---" not in l
    ]
    assert len(rows) == 8


@pytest.mark.parametrize(
    "name",
    [
        "admissible_tables.json",
        "classify_n2.json",
        "classify_n3.json",
        "classify_n4.json",
        "classify_n5.json",
        "classify_n6.json",
        "classify_n7.json",
        "classify_n8.json",
    ],
)
def test_golden_files_exist(name):
    assert (GOLDEN_DIR / name).exists()


def test_golden_admissible_tables_current():
    # Spot checks; test_golden_classification_matches_fresh_run compares
    # the whole file with what --regen-golden writes.
    golden = json.loads((GOLDEN_DIR / "admissible_tables.json").read_text())
    assert golden["admissible_primes"]["3"] == [2, 3, 5, 11]
    assert golden["max_admissible_prime"]["15"] == 43691


@pytest.mark.parametrize(
    "name, text",
    [
        pytest.param(name, text, id=name.removeprefix("classify_n").removesuffix(".json"))
        for name, text in _golden_documents()
    ],
)
def test_golden_classification_matches_fresh_run(name, text):
    # Every document --regen-golden writes equals its file: the
    # classifications, with id n, and the admissible tables.  At n = 5 this
    # pins every witness certificate, basis_size included, so a change to
    # the Groebner engine that alters the basis it builds shows up here.
    assert text == (GOLDEN_DIR / name).read_text()


def test_readme_library_example_runs():
    # The README's Library block runs, and each value its comments show is
    # what the public API returns.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```")[1]
    assert block.startswith("python\n")
    ns = {}
    exec(block[len("python\n"):], ns)
    shown = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep:
            shown[code.split("=", 1)[-1].strip()] = comment.strip()
    assert shown == {
        "admissible_primes(5)": "(2, 3, 5, 7, 11, 43)",
        "certify_smooth_over_Q(klein(5))": "SmoothnessCertificate(modulus=10007, ...)",
        "classify_all(3)": "{2: [...], 3: [...], 5: [...], 11: [...]}",
        "klein_tangent_spectrum(5)": "21 exponents mod 43",
    }
    assert ns["admissible_primes"](5) == (2, 3, 5, 7, 11, 43)
    assert ns["certify_smooth_over_Q"](ns["klein"](5)).modulus == 10007
    assert list(ns["families"]) == [2, 3, 5, 11]
    assert all(ns["families"].values())
    spec = ns["klein_tangent_spectrum"](5)
    assert (spec.p, len(spec.exponents)) == (43, 21)


def test_readme_cli_examples_run():
    # Each README CLI line but the two that need a file or write files
    # exits 0, and each value its comment shows is what the command prints.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    shown, texts = {}, {}
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        argv = shlex.split(command)[1:]
        if not argv or argv[0] in ("--regen-golden", "smooth"):
            continue
        shown[command] = comment
        code, texts[command] = run_cli(*argv)
        assert code == 0, line
    assert len(texts) == 6
    assert shown["cubiclass admissible --n 3"] == "2, 3, 5, 11"
    assert "| 3 | 2, 3, 5, 11 |\n" in texts["cubiclass admissible --n 3"]
    assert shown["cubiclass classify --n 5 --p 43"] == "the Klein fivefold, D = 0"
    (family,) = json.loads(texts["cubiclass classify --n 5 --p 43"])["families"]
    assert family["D"] == 0
    assert shown["cubiclass spectrum --klein 5"] == "21 exponents mod 43"
    spectrum = json.loads(texts["cubiclass spectrum --klein 5"])
    assert spectrum["p"] == 43 and len(spectrum["exponents"]) == 21


def test_readme_cli_examples_parse():
    # Each command line in the README's CLI block names only options the
    # parser has; a removed option fails here rather than in a user's shell.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [l for l in block.splitlines() if l.startswith("cubiclass ")]
    assert len(lines) >= 7
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# ---------------------------------------------------------------------------
# _dump writes what json.dumps(doc, sort_keys=True, indent=2) writes.


def json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
        [[[]], [{}]],
        None,
        True,
        False,
        [None, True, False],
        {"t": True, "f": False, "n": None},
        [1, True, 2],
        -7,
        [-3, 0, 5],
        2**64 + 1,
        [2**64, -(2**70), 2**200],
        'say "hi"',
        "back\\slash",
        "line\nbreak\ttab\r\x00\x1f",
        "Fläche ∞ 🙂",
        {"é": "ü", 'q"uote': "\\", "": 0, "A": 1, "a": 2},
        [1, "a", None],
        [1, [2, 3], {"k": [4, "x"]}, [], "y"],
    ],
)
def test_dump_matches_json_dumps(doc):
    assert _dump(doc) == json_dumps(doc)


@pytest.mark.parametrize(
    "doc", [1.5, {"x": [1, 2.0]}, {1, 2}, [{3}], (1, 2), {1: 2}]
)
def test_dump_refuses_other_types(doc):
    # json.dumps would write a float, a tuple and an int key; _dump only
    # takes what CLI documents hold.
    with pytest.raises(TypeError):
        _dump(doc)


def _cli_json_cases(tmp_path):
    # smooth: a certificate (exit 0), a singular point (4), inconclusive (5).
    forms = {
        0: form_to_json(klein(5)),
        4: {
            "n": 2,
            "terms": [
                {"c": 1, "m": [0, 0, 1]},
                {"c": 1, "m": [1, 1, 2]},
                {"c": 1, "m": [0, 2, 2]},
            ],
        },
        5: {
            "n": 2,
            "terms": [
                {"c": 1, "m": [0, 0, 0]},
                {"c": 1, "m": [1, 1, 1]},
                {"c": 1, "m": [2, 2, 2]},
                {"c": -3, "m": [0, 1, 2]},
                {"c": 1, "m": [3, 3, 3]},
            ],
        },
    }
    for code, doc in forms.items():
        path = tmp_path / f"exit{code}.json"
        path.write_text(json.dumps(doc))
        yield code, ("smooth", str(path))
    yield 0, ("admissible", "--n", "3", "--format", "json")
    yield 0, ("admissible", "--range", "2..12", "--format", "json")
    yield 0, ("admissible", "--range", "11..20", "--max-only", "--format", "json")
    for n in range(2, 9):
        yield 0, ("classify", "--n", str(n))
    yield 0, ("classify", "--n", "3", "--p", "7")
    yield 0, ("spectrum", "--klein", "3")
    yield 0, ("spectrum", "--klein", "5")


def test_every_cli_json_document_matches_json_dumps(tmp_path):
    for code, argv in _cli_json_cases(tmp_path):
        got, text = run_cli(*argv)
        assert got == code, argv
        assert text == json_dumps(json.loads(text)), argv


def test_golden_documents_match_json_dumps():
    for name, text in _golden_documents():
        assert text == json_dumps(json.loads(text)), name
