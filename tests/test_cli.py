import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import msgflow as mf
from msgflow.cli import main
from msgflow.graph import edge
from msgflow.report import report_from_dict, report_to_dict
from msgflow.system import load_system, save_system


def run(*argv):
    return main(list(argv))


def test_analyze_butterfly_dot(tmp_path, fixtures, joints):
    out = tmp_path / "bf.dot"
    assert run("analyze", "--fixture", "butterfly", "--format", "dot", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    # the edges styled with the first message's color are exactly its flow set
    blue = {
        line.split()[0].strip('"') + "->" + line.split()[2].strip('"')
        for line in text.splitlines()
        if "#1f77b4" in line
    }
    want = {str(e) for e in fixtures["butterfly"].expected_flow["M1"]}
    assert blue == want


def test_analyze_json_report(tmp_path):
    out = tmp_path / "rep.json"
    assert run("analyze", "--fixture", "ce1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["messages"] == ["M"]
    edges = {row["edge"]: row for row in doc["reports"]["M"]["edges"]}
    assert edges["A1->B2"]["has_flow"] is True
    assert edges["A1->B2"]["witness"] == ["C1->B2"]
    assert edges["C0->A1"]["has_flow"] is False
    assert doc["reports"]["M"]["partition"]["1"]["flow"] == ["A1->B2", "C1->B2"]


def test_analyze_exit_codes(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run("analyze", "--spec", str(empty)) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert run("analyze", "--spec", str(bad)) == 2
    assert run("analyze", "--fixture", "ce1", "--max-conditioning", "0") == 4


def test_sampled_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = (
        "analyze", "--fixture", "ce1", "--engine", "sampled",
        "--n-trials", "400", "--seed", "7", "--alpha", "0.05", "--n-perm", "99",
    )
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def _analyze_doc(tmp_path, doc) -> int:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return run("analyze", "--spec", str(spec))


@pytest.mark.parametrize(
    "path, value",
    [
        (("message",), {"kind": "discrete", "components": ["M"]}),  # no pmf
        (("message", "pmf", 0, "p"), [1, 0]),  # zero denominator
        (("horizon",), "3"),
        (("declared_inputs",), [["A"]]),  # a node name that is not a string
    ],
)
def test_malformed_spec_is_a_parse_error(tmp_path, path, value):
    doc = mf.build("ce1").spec.to_json_dict()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert _analyze_doc(tmp_path, doc) == 2


def _without_noise(doc):
    doc["noise"] = {}


def _extra_component(doc):
    doc["message"]["components"].append("M2")


@pytest.mark.parametrize(
    "fixture, edit",
    [
        ("output-msg", _without_noise),  # the derived message reads absent noise
        ("output-msg", _extra_component),  # a component without an expression
    ],
)
def test_ill_formed_spec_is_a_validation_error(tmp_path, fixture, edit):
    doc = mf.build(fixture).spec.to_json_dict()
    edit(doc)
    assert _analyze_doc(tmp_path, doc) == 3


def test_derived_message_without_expressions_is_a_validation_error():
    spec = mf.build("output-msg").spec
    message = mf.MessageSpec("derived", spec.message.components)
    with pytest.raises(mf.ValidationError):
        mf.SystemSpec(spec.graph, message, noise=spec.noise, functions=spec.functions)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _json_paths(v, path + (i,))


_JUNK = st.sampled_from(
    [None, True, -1, 0, 1, 2, 1.5, "", "A0", "x", [], [1, 0], [0, 1], {}]
).map(copy.deepcopy)


@pytest.mark.filterwarnings("ignore::msgflow.DependentMessagesWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["ce1", "mult-msg", "output-msg"]), st.data())
def test_mutated_spec_never_crashes(tmp_path, fixture, data):
    # Replacing or deleting any part of a valid document either still
    # analyzes, or is reported as a parse or validation error.
    doc = mf.build(fixture).spec.to_json_dict()
    paths = list(_json_paths(doc))[1:]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            if data.draw(st.booleans()):
                del target[path[-1]]
            else:
                target[path[-1]] = data.draw(_JUNK)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    assert _analyze_doc(tmp_path, doc) in (0, 2, 3)


def test_sampled_report_records_the_cascade(tmp_path):
    # A0->A1's three-test cascade at alpha 0.05 needs ceil(3 / 0.05) = 60
    # replicates, more than the 19 asked for; the report says so.
    out = tmp_path / "rep.json"
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled",
               "--n-trials", "2000", "--seed", "1", "--alpha", "0.05",
               "--n-perm", "19", "--max-conditioning", "1", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["reports"]["M"]
    row = next(r for r in rep["edges"] if r["edge"] == "A0->A1")
    assert (row["replicates"], row["n_tests_planned"]) == (60, 3)
    assert row["level"] == pytest.approx(0.05 / 3)
    again = report_from_dict(rep)
    assert again.entries[edge("A", 0, "A")].replicates == 60
    assert report_to_dict(again) == rep


def test_sampled_requires_parameters():
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled") == 3
    assert run("analyze", "--fixture", "ce1", "--seed", "4") == 3


def test_paths_command(tmp_path):
    out = tmp_path / "paths.json"
    assert (
        run("paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4",
            "--out", str(out))
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["paths"] == [["C0", "B1", "C2", "C3", "A4"]]
    # constant system: no flow anywhere, so no path
    assert run("paths", "--fixture", "ce1", "--target", "C2") == 5


def test_paths_fft(tmp_path):
    out = tmp_path / "paths.json"
    assert (
        run("paths", "--fixture", "fft-even", "--target", "C3", "--out", str(out)) == 0
    )
    doc = json.loads(out.read_text())
    assert doc["paths"]  # nonempty: the even lanes reach the alternating output


def test_hidden_command(tmp_path):
    out = tmp_path / "hidden.json"
    assert run("hidden", "--fixture", "ce1", "--hide", "C", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert [row["alarm"] for row in doc["alarms"]] == [False, True]
    assert doc["alarms"][1]["violation_bits"] == pytest.approx(1.0)
    out2 = tmp_path / "hidden2.json"
    assert run("hidden", "--fixture", "hidden-masked", "--hide", "H", "--out", str(out2)) == 0
    doc2 = json.loads(out2.read_text())
    assert all(row["alarm"] is False for row in doc2["alarms"])
    assert run("hidden", "--fixture", "ce1", "--hide", "A", "--hide", "B", "--hide", "C") == 3


def test_derived_command(tmp_path, capsys):
    assert (
        run("derived", "--fixture", "ce1",
            "--query-edges", "B2->B3",
            "--given-edges", "A1->B2", "C1->B2")
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_derived"] is True


def test_simulate_round_trip(tmp_path):
    out = tmp_path / "trials.csv"
    assert run("simulate", "--fixture", "ce2", "--n-trials", "20", "--seed", "3",
               "--out", str(out)) == 0
    trials = mf.TrialMatrix.from_csv(out)
    assert trials.n_rows == 20
    assert trials.variables[0] == "M"
    assert edge("A", 1, "B") in trials.variables


def test_sampled_conditioning_cap(tmp_path):
    # Without --max-conditioning the sampled engine tests subsets of at most
    # two edges; an explicit cap is honoured.
    sizes = {}
    for extra in ((), ("--max-conditioning", "3")):
        out = tmp_path / "rep.json"
        assert run("analyze", "--fixture", "ce3", "--engine", "sampled",
                   "--n-trials", "500", "--seed", "3", "--alpha", "0.05",
                   "--n-perm", "19", "--out", str(out), *extra) == 0
        doc = json.loads(out.read_text())
        sizes[extra] = max(
            len(test["conditioning"])
            for row in doc["reports"]["M"]["edges"]
            for test in row["p_values"]
        )
    assert sizes == {(): 2, ("--max-conditioning", "3"): 3}


def test_fixture_export_and_spec_round_trip(tmp_path):
    for name in mf.FIXTURE_NAMES:
        out = tmp_path / f"{name}.json"
        assert run("fixtures", "--build", name, "--out", str(out)) == 0
        spec = load_system(out)
        again = tmp_path / f"{name}-2.json"
        save_system(spec, again)
        assert json.loads(out.read_text()) == json.loads(again.read_text())
        # behavioral identity: same joint, same flow verdicts
        original = mf.build(name).spec
        if not original.is_gaussian:
            j1, j2 = mf.enumerate_joint(original), mf.enumerate_joint(spec)
            assert j1.variables == j2.variables
            assert j1.rows == j2.rows
            assert j1.probs == j2.probs
        else:
            g1, g2 = mf.linear_propagate(original), mf.linear_propagate(spec)
            assert g1.cov == g2.cov


def test_fixture_listing(capsys):
    assert run("fixtures") == 0
    names = capsys.readouterr().out.split()
    assert list(mf.FIXTURE_NAMES) == names
