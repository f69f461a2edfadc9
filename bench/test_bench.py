"""Self-tests of the benchmark: gates, wrappers, self time, run modes.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from cubiclass.forms import CubicForm, fermat, klein, klein_signature
from cubiclass.hodge import KLEIN5_TANGENT_EXPONENTS, jacobian_ring_character
from cubiclass.signatures import Signature

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# gates flag corrupted outputs


@pytest.fixture(scope="module")
def golden3():
    return workloads.golden_text("classify_n3.json")


def test_classify_gate_seed0_is_byte_exact(golden3):
    check = workloads.classify_gate(0, golden3)
    assert check((0, golden3)) is None
    doc = json.loads(golden3)
    doc["families"][2]["D"] += 1
    assert check((0, _dump(doc))) is not None
    assert check((3, golden3)) is not None


def test_classify_gate_other_seed_recertifies_witnesses(golden3):
    check = workloads.classify_gate(7, golden3)
    doc = json.loads(golden3)
    doc["seed"] = 7
    assert check((0, _dump(doc))) is None
    changed_d = copy.deepcopy(doc)
    changed_d["families"][0]["D"] += 1
    assert check((0, _dump(changed_d))) is not None
    bad_witness = copy.deepcopy(doc)
    bad_witness["families"][1]["witness"]["certificate"]["basis_size"] += 1
    assert check((0, _dump(bad_witness))) is not None
    lost_class = copy.deepcopy(doc)
    lost_class["rejected"].pop()
    assert check((0, _dump(lost_class))) is not None
    assert check((0, golden3)) is not None  # seed 0 in the output


def test_classify_gate_n5_wants_one_rigid_family(golden3):
    family = json.loads(golden3)["families"][-1]  # T_11^1, D = 0
    doc = {"families": [family], "rejected": [], "notes": [], "seed": 0}
    check = workloads.classify_gate(0, None)
    assert check((0, _dump(doc))) is None
    doc["families"][0]["D"] = 1
    assert check((0, _dump(doc))) is not None


def _smooth(path, form):
    path.write_text(json.dumps(workloads.form_to_json(form)))
    return workloads.run_cli(("smooth", str(path)))


def test_smooth_gate_checks_exit_code_and_certificate(tmp_path):
    F = fermat(4)
    output = _smooth(tmp_path / "f.json", F)
    assert workloads.smooth_gate(0, F)(output) is None
    assert workloads.smooth_gate(4, F)(output) is not None
    rc, text = output
    doc = json.loads(text)
    doc["certificate"]["pure_powers"][0] = F.n + 4
    assert workloads.smooth_gate(0, F)((rc, _dump(doc))) is not None


def test_smooth_gate_checks_singular_point(tmp_path):
    F = CubicForm(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1, (0, 1, 4): 1})
    output = _smooth(tmp_path / "s.json", F)
    assert workloads.smooth_gate(4, F)(output) is None
    doc = {"singular_witness": {"point": [1, 0, 0, 0, 0]}}
    assert workloads.smooth_gate(4, F)((4, _dump(doc))) is not None


def test_character_and_spectrum_gates():
    p, sig = klein_signature(5)
    spec = jacobian_ring_character(klein(5), sig, 2)
    assert workloads.character_gate(5, 2, p)(spec) is None
    short = type(spec)(spec.p, spec.exponents[1:])
    assert workloads.character_gate(5, 2, p)(short) is not None
    good = workloads.run_cli(("spectrum", "--klein", "5"))
    check = workloads.spectrum_gate(KLEIN5_TANGENT_EXPONENTS, 43)
    assert check(good) is None
    doc = json.loads(good[1])
    doc["exponents"][0] = 1
    assert check((0, _dump(doc))) is not None


def test_orbit_gates():
    sig = Signature(31, (4, 9, 9, 17, 30, 2, 11))
    canon = workloads.sigs.canonicalize(sig)
    assert workloads.canonical_gate(sig)(canon) is None
    assert workloads.canonical_gate(sig)(Signature(31, sorted(sig.values))) is not None
    assert workloads.count_gate(3)([1, 2, 3]) is None
    assert workloads.count_gate(3)([1, 2]) is not None
    tables = workloads.admissible_tables()
    check = workloads.equal_gate(
        json.loads(workloads.golden_text("admissible_tables.json")), "tables"
    )
    assert check(tables) is None
    tables["admissible_primes"]["4"].pop()
    assert check(tables) is not None
    assert workloads.fermat_classes_gate(3)(workloads.fermat_classes_cold(3)) is None
    assert workloads.fermat_classes_gate(4)(workloads.fermat_classes_cold(3)) is not None


# ---------------------------------------------------------------------------
# tracing


def _bindings():
    return {
        (m.__name__, attr): v
        for m in tracing.package_modules()
        for attr, v in vars(m).items()
        if callable(v)
    }


def test_wrappers_leave_no_trace():
    before = _bindings()
    smoothness = sys.modules["cubiclass.smoothness"]
    classify_mod = sys.modules["cubiclass.classify"]
    original = smoothness.find_smooth_member
    with tracing.Tracer() as tracer:
        assert classify_mod.find_smooth_member is not original
        assert smoothness.find_smooth_member is classify_mod.find_smooth_member
        assert ("cubiclass.cli", "certify_smooth_over_Q") in tracing.installed_wrappers()
        with tracer.request("request.probe"):
            workloads.run_cli(("admissible", "--n", "3"))
        workloads.run_cli(("admissible", "--n", "3"))  # outside a request
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["request.probe", "cli.main", "admissibility.admissible_primes"]
    assert {s[tracing.REQUEST] for s in tracer.spans} == {1}


def test_restore_after_an_exception():
    with pytest.raises(ValueError):
        with tracing.Tracer() as tracer:
            with tracer.request("request.bad"):
                workloads.adm.admissible_primes(1)
    assert tracing.installed_wrappers() == []
    assert tracer.spans[1][tracing.END] is not None


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a.child", 2.0, 3.0, 1, 1, None],
        ["b", 3.0, 6.0, 0, 1, None],  # overlaps a
        ["c", 8.0, 12.0, 0, 1, None],  # runs past its parent
        ["other", 20.0, 21.0, None, 2, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.0])


def test_layer_metrics_count_outcomes():
    spans = [
        ["request.x", 0.0, 4.0, None, 1, None],
        ["smoothness.certify_smooth_over_Q", 0.0, 3.0, 0, 1, True],
        ["smoothness.is_smooth_mod_q", 0.0, 1.0, 1, 1, None],
        ["smoothness.is_smooth_mod_q", 1.0, 2.5, 1, 1, 12],
    ]
    m = tracing.layer_metrics(spans, 1, 4.0, 3.5)
    assert m["smoothness.is_smooth_mod_q.failed"] == 1
    assert m["smoothness.is_smooth_mod_q.certified_s"] == pytest.approx(1.5)
    assert m["smoothness.is_smooth_mod_q.failed_wall_share"] == pytest.approx(0.25)
    assert m["smoothness.certify_smooth_over_Q.self_s"] == pytest.approx(0.5)
    assert m["smoothness.basis_size.sum"] == 12
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert list(m) and set(m) == set(tracing.LAYER_UNITS)


# ---------------------------------------------------------------------------
# the command


@pytest.fixture
def probe(monkeypatch, tmp_path):
    """A one-item workload that records the wrappers installed while it runs."""
    seen = []

    def items(seed, workdir):
        def body():
            seen.append(tracing.installed_wrappers())
            return workloads.run_cli(("admissible", "--n", "2"))

        return [workloads.Item("probe", body, lambda out: None if out[0] == 0 else "rc")]

    monkeypatch.setitem(workloads.WORKLOADS, "probe", items)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    return seen


def _result(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_untraced_run_installs_no_wrapper(probe, capsys):
    argv = ["--workload", "probe", "--seed", "0", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert probe == [[]]
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]


def test_traced_run_reports_every_layer_metric(probe, capsys):
    argv = ["--workload", "probe", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert probe[0] == [] and probe[1] != []
    assert tracing.installed_wrappers() == []
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]


def test_no_sources_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "classify", "--seed", "0", "--seconds", "1"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
