import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import msgflow as mf
from msgflow.cli import main
from msgflow.graph import edge
from msgflow.report import report_from_dict, report_to_dict, reports_to_json
from msgflow.system import load_system, save_system
from randsys import pad_mask_doc
from reference import assert_same_table, reference_pmf


def run(*argv):
    """main's exit code, including argparse's exit 2 on a bad command line."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


SAMPLED = ("--n-trials", "200", "--seed", "1", "--alpha", "0.05", "--n-perm", "99")


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
    assert run("analyze", "--spec", str(empty)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert run("analyze", "--spec", str(bad)) == 2
    assert run("analyze", "--fixture", "ce1", "--max-conditioning", "0") == 4
    assert run("analyze", "--fixture", "ce1", "--max-conditioning", "-1") == 3
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled", "--n-trials", "200",
               "--seed", "1", "--alpha", "0.05", "--n-perm", "99",
               "--max-conditioning", "-1") == 3


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


MISSING = object()  # the key is removed


@pytest.mark.parametrize(
    "path, value",
    [
        (("message",), {"kind": "discrete", "components": ["M"]}),  # no pmf
        (("message", "pmf", 0, "p"), [1, 0]),  # zero denominator
        (("horizon",), "3"),
        (("declared_inputs",), [["A"]]),  # a node name that is not a string
        (("functions",), MISSING),  # a missing top-level field
        ((), []),  # a document that is not an object
        (("noise", "C0", "pmf", 0, "p"), [1, 0]),
        (("message", "pmf", 0, "p"), [True, 2]),  # a JSON boolean is no integer
        (("noise", "C0", "pmf", 0, "p"), [True, 2]),
    ],
)
def test_malformed_spec_is_a_parse_error(tmp_path, path, value):
    doc = mf.build("ce1").spec.to_json_dict()
    if not path:
        doc = value
    else:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    assert _analyze_doc(tmp_path, doc) == 2


def _without_noise(doc):
    doc["noise"] = {}


def _extra_component(doc):
    doc["message"]["components"].append("M2")


def _bare_msg(doc):
    doc["functions"]["A0"]["A1"] = ["msg"]


def _set(*path, value):
    """An edit that puts ``value`` at ``path`` in the document."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


def _ill_formed(fixture, edit, fragment, name=None):
    return pytest.param(fixture, edit, fragment, id=f"{fixture}-{name or edit.__name__}")


@pytest.mark.parametrize(
    "fixture, edit, fragment",
    [
        _ill_formed("output-msg", _without_noise, "which has no noise"),
        _ill_formed("output-msg", _extra_component, "one expression per component"),
        _ill_formed("mult-msg", _bare_msg, "reads a bare msg leaf"),
        _ill_formed("ce1", _set("message", "pmf", 0, "p", value=[-1, 2]),
                    "negative probability", "negative_p"),
        _ill_formed("ce1", _set("message", "pmf", 0, "p", value=[1, -2]),
                    "message: negative probability for (0,)", "negative_den"),
        _ill_formed("ce1", _set("noise", "C0", "pmf", 1, "p", value=[-1, 2]),
                    "noise: negative probability for 1", "negative_noise_p"),
        _ill_formed("ce1", _set("message", "pmf", 0, "p", value=[1, 4]),
                    "message: probabilities sum to 3/4, expected 1", "sum_three_quarters"),
        _ill_formed("ce1", _set("noise", "C0", "pmf", 1, "value", value=0),
                    "duplicate support value", "duplicate_value"),
        _ill_formed("sk", _set("message", "variance", value=[0, 1]),
                    "gaussian message needs positive variance", "message_variance"),
        _ill_formed("sk", _set("noise", "B3", "variance", value=[-1, 2]),
                    "gaussian noise needs positive variance", "noise_variance"),
        _ill_formed("ce1", _set("message", "components", value=[7]),
                    "component names must be strings", "component_not_a_string"),
        _ill_formed("mult-msg", _set("message", "components", value=["M1", "M1"]),
                    "duplicate message component names", "duplicate_component"),
        _ill_formed("ce1", _set("declared_inputs", value=["A", "D"]),
                    "declared input 'D' is not a node", "input_not_a_node"),
        _ill_formed("output-msg", _set("declared_inputs", value=["A"]),
                    "derived messages cannot also enter", "derived_with_inputs"),
        _ill_formed("ce1", _set("noise", "D0", value={"kind": "discrete", "pmf": [
            {"value": 0, "p": [1, 1]}]}), "noise declared at unknown node D0", "noise_unknown_node"),
        _ill_formed("ce1", _set("functions", "D0", value={"D1": ["const", 0]}),
                    "function declared at unknown node D0", "function_unknown_node"),
        _ill_formed("ce1", _set("functions", "B3", value={"B4": ["const", 0]}),
                    "B3 has no outgoing edge B3->B4", "no_outgoing_edge"),
        _ill_formed("output-msg", _set("message", "exprs", 0, value=["noise"]),
                    "may only read named intrinsic variables", "derived_reads_bare_noise"),
        _ill_formed("ce1", _set("functions", "A1", "B2", value=["edge", "B0", "B1"]),
                    "reads B0->B1, not an incoming edge of A1", "not_incoming"),
        _ill_formed("ce1", _set("functions", "C1", "B2", value=["noise", "C0"]),
                    "intrinsic variable of another node C0", "other_nodes_noise"),
        _ill_formed("ce1", _set("functions", "A1", "B2", value=["noise", "A1"]),
                    "reads A1, which has no noise", "absent_noise"),
        _ill_formed("ce1", _set("functions", "C1", "B2", value=["msg"]),
                    "C1 is not a declared input", "msg_off_input"),
        _ill_formed("ce1", _set("functions", "A0", "A1", value=["msg", "Q"]),
                    "unknown message component 'Q'", "unknown_component"),
        _ill_formed("sk", _set("message", "components", value=["M", "N"]),
                    "gaussian messages are scalar", "gaussian_two_components"),
        _ill_formed("ce1", _set("message", "kind", value="poisson"),
                    "unknown message kind 'poisson'", "unknown_message_kind"),
        _ill_formed("ce1", _set("noise", "C0", "kind", value="poisson"),
                    "unknown noise kind 'poisson'", "unknown_noise_kind"),
        # EdgeRef refuses the key before the outgoing-edge rule would.
        _ill_formed("ce1", _set("functions", "A0", value={"B2": ["msg"]}),
                    "edge A0->B2 must connect consecutive times", "wrong_time_key"),
    ],
)
def test_ill_formed_spec_is_a_validation_error(tmp_path, capsys, fixture, edit, fragment):
    doc = mf.build(fixture).spec.to_json_dict()
    edit(doc)
    assert _analyze_doc(tmp_path, doc) == 3
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("fixture, components", [
    ("ce1", "M"), ("output-msg", "M"), ("mult-msg", "MN"), ("sk", "MN"),
])
def test_message_components_string_is_a_parse_error(tmp_path, capsys, fixture, components):
    # A string where the array of component names belongs would read as its
    # characters: "MN" as the two components M and N.
    doc = mf.build(fixture).spec.to_json_dict()
    doc["message"]["components"] = components
    assert _analyze_doc(tmp_path, doc) == 2
    assert "message components must be an array" in capsys.readouterr().err


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
    # A0->A1 shares no source with another edge: its cascade is one test at
    # alpha 0.05.  At 20 trials its table is too sparse for the G-test, so it
    # permutes, and needs ceil(1 / 0.05) = 20 replicates, more than the 19
    # asked for; the report says so.
    out = tmp_path / "rep.json"
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled",
               "--n-trials", "20", "--seed", "1", "--alpha", "0.05",
               "--n-perm", "19", "--max-conditioning", "1", "--out", str(out)) == 0
    rep = json.loads(out.read_text())["reports"]["M"]
    row = next(r for r in rep["edges"] if r["edge"] == "A0->A1")
    assert (row["replicates"], row["n_tests_planned"]) == (20, 1)
    assert row["level"] == 0.05
    again = report_from_dict(rep)
    assert again.entries[edge("A", 0, "A")].replicates == 20
    assert report_to_dict(again) == rep


@pytest.mark.parametrize("cap", [(), ("--max-conditioning", "1")], ids=["default-cap", "cap-1"])
def test_sampled_analyze_prints_the_library_reports(cap, fixtures, capsys):
    # Two messages: the CLI splits the seed streams as the library call does.
    assert run("analyze", "--fixture", "mult-msg", "--engine", "sampled", "--n-trials", "300",
               "--seed", "7", "--alpha", "0.01", "--n-perm", "49", *cap) == 0
    trials = mf.sample_trials(fixtures["mult-msg"].spec, 300, 7)
    size = int(cap[1]) if cap else mf.sampling.DEFAULT_MAX_SUBSET
    want = reports_to_json(mf.analyze_sampled(trials, None, 0.01, size, 49, 7))
    assert capsys.readouterr().out == want


def test_sampled_requires_parameters():
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled") == 3
    assert run("analyze", "--fixture", "ce1", "--seed", "4") == 3


def test_sampled_quantify_is_rejected(capsys):
    assert run("analyze", "--fixture", "ce1", "--engine", "sampled", *SAMPLED, "--quantify") == 3
    assert "--quantify" in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [
    ("paths", ("--target", "B2")),
    ("hidden", ("--hide", "C")),
    ("derived", ("--query-edges", "B2->B3", "--given-edges", "A1->B2", "C1->B2")),
    ("simulate", ("--n-trials", "20", "--seed", "1")),
])
def test_only_analyze_runs_the_sampled_engine(command, args, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(command, "--fixture", "ce1", "--engine", "sampled", *args, "--out", out) == 2
    assert "unrecognized arguments: --engine sampled" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "1", "--engine", "exact"),
    ("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "1", "--message", "Q"),
    ("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "1",
     "--max-conditioning", "1"),
    ("hidden", "--fixture", "ce1", "--hide", "C", "--max-conditioning", "-7"),
    ("derived", "--fixture", "ce1", "--query-edges", "B2->B3", "--given-edges", "A1->B2",
     "--max-conditioning", "-7"),
    ("analyze", "--fixture", "sk", "--engine", "gaussian"),
])
def test_options_a_command_does_not_read_exit_2(argv, tmp_path):
    assert run(*argv, "--out", str(tmp_path / "out")) == 2


def _cli(*argv):
    src = Path(mf.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "msgflow.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


_EVERY_QUANTIFIED_REPORT = """
import contextlib, io, sys
from msgflow import FIXTURE_NAMES, cli
argvs = [["analyze", "--fixture", name, "--quantify"] for name in FIXTURE_NAMES]
argvs.append(["paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4"])
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    sys.stdout.write(out.getvalue())
"""


def test_outputs_do_not_depend_on_the_string_hash_seed():
    # Set and dict orders of strings follow PYTHONHASHSEED; the search takes
    # its orders from canonical edge order, so every document is the same.
    src = Path(mf.__file__).resolve().parent.parent
    outs = [
        subprocess.run(
            [sys.executable, "-c", _EVERY_QUANTIFIED_REPORT],
            capture_output=True,
            check=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n}\n") == len(mf.FIXTURE_NAMES) + 1  # one document each


# A two-node system, valid as it stands; each edit below breaks it.
_SMALL = {
    "nodes": ["A", "B"],
    "horizon": 1,
    "adjacency": [["A", "B"], ["B", "A"]],
    "message": {"kind": "discrete", "components": ["M"],
                "pmf": [{"value": [0], "p": [1, 2]}, {"value": [1], "p": [1, 2]}]},
    "functions": {"A0": {"B1": ["msg"]}},
    "declared_inputs": ["A"],
}
# A string where an array of names belongs would read as its characters,
# and a JSON boolean as the integer 1 or 0.
_MALFORMED = {
    "nodes-string": {"nodes": "AB"},
    "adjacency-strings": {"adjacency": ["AB", "BA"]},
    "inputs-string": {"declared_inputs": "A"},
    "select-bool": {"functions": {"A0": {"B1": ["select", False, ["concat", ["msg"]]]}}},
    "mod-bool": {"functions": {"A0": {"B1": ["mod", True, ["msg"]]}}},
    # A [num, den] is two JSON integers, and a value of the wrong type is a
    # parse error too, not a type error of the node functions.
    "horizon-bool": {"horizon": True},
    "p-bool": {"message": {**_SMALL["message"], "pmf": [{"value": [0], "p": [True, 2]},
                                                        {"value": [1], "p": [1, 2]}]}},
    "p-float": {"message": {**_SMALL["message"], "pmf": [{"value": [0], "p": [0.5]},
                                                         {"value": [1], "p": [0.5]}]}},
    "noise-p-bool": {"noise": {"A0": {"kind": "discrete", "pmf": [{"value": 0, "p": [True, 1]}]}}},
    "variance-bool": {"message": {"kind": "gaussian", "components": ["M"], "variance": [True, 1]}},
    "complex-bool": {"functions": {"A0": {"B1": ["const", {"re": [True, 1], "im": [1, 1]}]}}},
    "value-bool": {"message": {**_SMALL["message"], "pmf": [{"value": [True], "p": [1, 1]}]}},
    "value-string": {"message": {**_SMALL["message"], "pmf": [{"value": ["x"], "p": [1, 1]}]}},
    "const-float": {"functions": {"A0": {"B1": ["const", 1.5]}}},
    "select-negative": {"functions": {"A0": {"B1": ["select", -1, ["concat", ["msg"]]]}}},
}


@pytest.mark.parametrize("argv, code", [
    (("analyze", "--spec", "{tmp}/missing.json"), 2),
    (("analyze", "--spec", "{tmp}"), 2),
    (("analyze", "--spec", "{tmp}/latin1.json"), 2),
    (("analyze", "--fixture", "ce1", "--engine", "sampled", "--n-trials", "20",
      "--seed", "-1", "--alpha", "0.05", "--n-perm", "99"), 3),
    (("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "-1",
      "--out", "{tmp}/t.csv"), 3),
    (("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "1"), 2),
    (("analyze", "--fixture", "sk", "--sigma2", "abc"), 2),
    (("analyze", "--fixture", "output-msg", "--gate", "x"), 2),
    (("analyze", "--fixture", "sk", "--sigma2", "1/0"), 2),
    (("simulate", "--fixture", "ce1", "--n-trials", str(10**20), "--seed", "1",
      "--out", "{tmp}/t.csv"), 3),
    *((("analyze", "--spec", f"{{tmp}}/{name}.json"), 2) for name in _MALFORMED),
    # An --out that cannot be written: in a missing directory, or a directory.
    *(((*argv, "--out", "{tmp}/missing/out"), 2) for argv in (
        ("analyze", "--fixture", "ce1"),
        ("paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4"),
        ("hidden", "--fixture", "ce1", "--hide", "C"),
        ("derived", "--fixture", "ce1", "--query-edges", "B2->B3", "--given-edges", "A1->B2"),
        ("fixtures", "--build", "ce1"),
        ("simulate", "--fixture", "ce1", "--n-trials", "20", "--seed", "1"),
    )),
    (("analyze", "--fixture", "ce1", "--out", "{tmp}"), 2),
])
def test_malformed_input_exits_without_traceback(argv, code, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"nodes": ["\xe9"]}')
    for name, edit in _MALFORMED.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**_SMALL, **edit}))
    proc = _cli(*(a.format(tmp=tmp_path) for a in argv))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_node_function_errors_name_their_edge(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SMALL))
    assert run("analyze", "--spec", str(spec)) == 0
    capsys.readouterr()
    bad = {"functions": {"A0": {"B1": ["xor", ["msg"], ["const", 2]]}}}
    spec.write_text(json.dumps({**_SMALL, **bad}))
    for engine in ((), ("--engine", "sampled", *SAMPLED)):
        assert run("analyze", "--spec", str(spec), *engine) == 3
        assert capsys.readouterr().err == (
            "validation error: edge A0->B1: xor needs a 0/1 value, got 2\n"
        )


def test_derived_message_over_gaussian_noise_exits_cleanly(tmp_path):
    # M = noise(A0) with A0 ~ N(0, 1) has no exact joint, so analyze exits
    # 3; simulate samples it.  Neither ends in a traceback.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "nodes": ["A"],
        "horizon": 1,
        "message": {"kind": "derived", "components": ["M"], "exprs": [["noise", "A0"]]},
        "noise": {"A0": {"kind": "gaussian", "variance": [1, 1]}},
        "functions": {},
    }))
    proc = _cli("analyze", "--spec", str(spec))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    proc = _cli("simulate", "--spec", str(spec), "--n-trials", "5", "--seed", "1",
                "--out", str(tmp_path / "t.csv"))
    assert proc.returncode in (0, 2, 3) and "Traceback" not in proc.stderr, proc.stderr


def test_repeated_message_takes_the_last(capsys):
    assert run("paths", "--fixture", "butterfly", "--message", "M1", "--message", "M2",
               "--target", "A4") == 0
    assert json.loads(capsys.readouterr().out)["message"] == "M2"


@pytest.mark.parametrize("engine", [(), ("--engine", "sampled", *SAMPLED)], ids=["exact", "sampled"])
def test_analyze_rejects_a_repeated_message(engine, monkeypatch, capsys):
    # Rejected before either engine runs.
    def unreachable(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr("msgflow.cli._joint_for", unreachable)
    monkeypatch.setattr("msgflow.cli.sampling.sample_trials", unreachable)
    assert run("analyze", "--fixture", "butterfly", "--message", "M1", "--message", "M2",
               "--message", "M1", *engine) == 3
    assert "more than once" in capsys.readouterr().err


_SAMPLED_CE1 = ("analyze", "--fixture", "ce1", "--engine", "sampled", *SAMPLED)
_QUERIES = {
    "paths": ("paths", "--fixture", "ce1", "--target", "A2"),
    "hidden": ("hidden", "--fixture", "ce1", "--hide", "C"),
    "derived": ("derived", "--fixture", "ce1", "--query-edges", "B2->B3",
                "--given-edges", "A1->B2"),
}


@pytest.mark.parametrize(
    "argv, why",
    [
        (("analyze", "--fixture", "mult-msg", "--max-conditioning", "-1"),
         "max_candidates must be"),
        (("analyze", "--fixture", "ce1", "--message", "X"), "unknown message variable 'X'"),
        (("analyze", "--fixture", "sk", "--message", "X"), "unknown message variable 'X'"),
        ((*_SAMPLED_CE1, "--alpha", "2"), "alpha must be"),
        ((*_SAMPLED_CE1, "--n-perm", "0"), "at least one permutation"),
        ((*_SAMPLED_CE1, "--seed", "-1"), "seed -1 is negative"),
        ((*_SAMPLED_CE1, "--max-conditioning", "-1"), "max_subset_size must be"),
        (("analyze", "--fixture", "mult-msg", "--engine", "sampled", *SAMPLED, "--message", "X"),
         "unknown message variable 'X'"),
        ((*_QUERIES["paths"], "--max-conditioning", "-1"), "max_candidates must be"),
        *(((*argv, "--message", "X"), "unknown message variable 'X'")
          for argv in _QUERIES.values()),
        (("paths", "--fixture", "ce1", "--target", "Z9"), "target Z9 not in graph"),
        ((*_QUERIES["paths"], "--limit", "-1"), "limit must be at least 0"),
        (("hidden", "--fixture", "ce1", "--hide", "Z"), "hidden names not in graph"),
        (("derived", "--fixture", "ce1", "--query-edges", "Z2->Z3", "--given-edges", "A1->B2"),
         "unknown edge Z2->Z3"),
    ],
    ids=["exact-cap", "exact-message", "gaussian-message", "alpha", "n-perm", "seed",
         "sampled-cap", "sampled-message", "paths-cap", *(f"{q}-message" for q in _QUERIES),
         "paths-target", "paths-limit", "hidden-mask", "derived-edge"],
)
def test_a_bad_option_is_refused_before_any_engine_runs(argv, why, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("an engine ran")

    for engine in ("enumerate_joint", "linear_propagate", "sampling.sample_trials"):
        monkeypatch.setattr(f"msgflow.cli.{engine}", unreachable)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and why in err
    assert len(err.splitlines()) == 1


def test_sampled_engine_rejects_a_gaussian_system_before_sampling(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("trials were sampled")

    monkeypatch.setattr("msgflow.cli.sampling.sample_trials", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("analyze", "--fixture", "sk", "--engine", "sampled", *SAMPLED) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "gaussian" in err
    assert len(err.splitlines()) == 1


def test_paths_limit_must_not_be_negative(capsys):
    argv = ("paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4")
    assert run(*argv, "--limit", "-1") == 3
    assert "limit must be at least 0" in capsys.readouterr().err
    assert run(*argv, "--limit", "0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["paths"], doc["truncated"]) == ([], True)


def _dot_edges(text):
    return {line.split()[0] + line.split()[2] for line in text.splitlines() if " -> " in line}


def test_sampled_dot_hides_constant_edges(capsys):
    assert run("analyze", "--fixture", "ce1", "--format", "dot") == 0
    exact = _dot_edges(capsys.readouterr().out)
    assert run("analyze", "--fixture", "ce1", "--format", "dot", "--engine", "sampled",
               *SAMPLED) == 0
    assert _dot_edges(capsys.readouterr().out) == exact
    assert len(exact) == 6


def test_text_report(capsys):
    assert run("analyze", "--fixture", "ce1", "--format", "text", "--quantify") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "message M (exact engine)"
    assert "  t=1: flow on 2/9 edges" in lines
    assert "    A1->B2 given {C1->B2} [1.0000 bits]" in lines
    assert run("analyze", "--fixture", "ce1", "--format", "text", "--engine", "sampled",
               "--n-trials", "2000", "--seed", "1", "--alpha", "0.05", "--n-perm", "99") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "message M (sampled engine)"
    assert "    A1->B2 given {C1->B2}" in lines
    assert not any("bits" in line for line in lines)


# SHA-256 of each command's stdout, taken from the exact engine before node
# functions read one dict of variables.
DOT_SHA256 = {
    ("analyze", "--fixture", "butterfly", "--format", "dot", "--quantify"):
        "c405fc2981941fdf43992626d8b84bbb2bbd68fe68b652b179dc68f57fd21b43",
    ("analyze", "--fixture", "sk", "--format", "dot", "--quantify"):
        "667d807f6b80e30d009b4fb6194aa2c43e4285f196542fae9089b4d025d87009",
    ("paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4", "--format", "dot"):
        "6229497cbf26eba1f3af9899d574be8b2f6341459179713332c49840bc96418c",
}


@pytest.mark.parametrize("argv", list(DOT_SHA256), ids=["butterfly", "sk", "paths-butterfly"])
def test_dot_output_is_pinned(argv, capsys):
    assert run(*argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[argv]
    if "sk" in argv:  # an infinite flow draws the widest pen
        assert '"A0" -> "A1" [color="#1f77b4", penwidth=4.00];' in text
    if "paths" in argv:  # the target and the root input are double circles
        shapes = [line.split()[0] for line in text.splitlines() if "doublecircle" in line]
        assert shapes == ['"A4"', '"C0"']


@pytest.mark.parametrize("argv", [
    ("analyze", "--fixture", "ce1"),
    ("analyze", "--fixture", "ce1", "--engine", "sampled", *SAMPLED),
    ("paths", "--fixture", "ce1", "--target", "C2"),
    ("hidden", "--fixture", "ce1", "--hide", "C"),
    ("derived", "--fixture", "ce1", "--query-edges", "B2->B3", "--given-edges", "A1->B2"),
], ids=["analyze-exact", "analyze-sampled", "paths", "hidden", "derived"])
def test_unknown_message_exits_3(argv, capsys):
    assert run(*argv, "--message", "Z") == 3
    assert capsys.readouterr().err == "validation error: unknown message variable 'Z'\n"


# A relay through a hidden node H: at t=1 the hidden node holds the whole
# gaussian message, so the observed slices violate the chain by infinite bits.
RELAY = {
    "nodes": ["A", "B", "H"],
    "horizon": 3,
    "adjacency": [["A", "A"], ["A", "H"], ["H", "B"], ["B", "B"]],
    "message": {"kind": "gaussian", "components": ["M"], "variance": [1, 1]},
    "noise": {},
    "functions": {
        "A0": {"H1": ["msg"]},
        "H1": {"B2": ["edge", "A0", "H1"]},
        "B2": {"B3": ["edge", "H1", "B2"]},
    },
    "declared_inputs": ["A"],
}


def _strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: no Infinity, -Infinity or NaN."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_json_output_is_strict(tmp_path, capsys):
    relay = tmp_path / "relay.json"
    relay.write_text(json.dumps(RELAY))
    sk_leftover = ("derived", "--fixture", "sk", "--query-edges", "A0->A1",
                   "--given-edges", "B1->B2")
    commands = [
        *(("analyze", "--fixture", name, *quantify)
          for name in mf.FIXTURE_NAMES for quantify in ((), ("--quantify",))),
        ("analyze", "--fixture", "ce2", "--engine", "sampled", *SAMPLED),
        ("paths", "--fixture", "butterfly", "--message", "M2", "--target", "A4"),
        ("hidden", "--fixture", "ce1", "--hide", "C"),
        ("hidden", "--spec", str(relay), "--hide", "H"),
        ("derived", "--fixture", "ce1", "--query-edges", "B2->B3",
         "--given-edges", "A1->B2", "C1->B2"),
        sk_leftover,
        *(("fixtures", "--build", name) for name in mf.FIXTURE_NAMES),
    ]
    docs = {}
    for argv in commands:
        assert run(*argv) == 0, argv
        out = capsys.readouterr().out
        docs[argv] = _strict_json(out)
        # Byte for byte the stdlib's 2-space indented, key-sorted text.
        assert out == json.dumps(docs[argv], indent=2, sort_keys=True) + "\n", argv
    # Infinite bits are the string "inf" in every document, and read back.
    relay_alarms = docs[("hidden", "--spec", str(relay), "--hide", "H")]["alarms"]
    assert relay_alarms[1] == {"t": 1, "alarm": True, "violation_bits": "inf"}
    assert docs[sk_leftover]["leftover_bits"] == "inf"
    sk = report_from_dict(docs[("analyze", "--fixture", "sk", "--quantify")]["reports"]["M"])
    assert sk.entries[edge("A", 0, "A")].quantified == math.inf


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


def test_hidden_checks_the_mask_without_an_alarm_time(capsys):
    # mult-msg has horizon 1, so no alarm time: the mask is checked anyway.
    assert run("hidden", "--fixture", "mult-msg", "--hide", "C", "--message", "M1") == 3
    assert "hidden names not in graph: ['C']" in capsys.readouterr().err


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
    # One weighted line per distinct outcome; the file reads back to the table.
    trials = mf.DiscreteJoint.from_csv(out)
    assert_same_table(trials, mf.sample_trials(mf.build("ce2").spec, 20, seed=3))
    assert trials.total == 20
    assert trials.variables[0] == "M"
    assert edge("A", 1, "B") in trials.variables


@pytest.mark.parametrize(
    "argv, text",
    [
        (("analyze", "--fixture", "mult-msg"), "messages M1 and M2 are dependent"),
        (("simulate", "--fixture", "sk", "--n-trials", "5", "--seed", "1"),
         "sampling a continuous system"),
    ],
    ids=["analyze-mult-msg", "simulate-sk"],
)
def test_library_warnings_print_as_one_line(tmp_path, capsys, argv, text):
    assert run(*argv, "--out", str(tmp_path / "out")) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"warning: {text}") and "cli.py" not in err


def test_sampled_conditioning_cap(tmp_path):
    # Without --max-conditioning the sampled engine tests subsets of at most
    # two edges; an explicit cap is honoured.  In butterfly, B1->B2 carries
    # nothing about M1 and its source component holds three edges.
    sizes = {}
    for extra in ((), ("--max-conditioning", "3")):
        out = tmp_path / "rep.json"
        assert run("analyze", "--fixture", "butterfly", "--engine", "sampled",
                   "--n-trials", "500", "--seed", "3", "--alpha", "0.05",
                   "--n-perm", "19", "--out", str(out), *extra) == 0
        doc = json.loads(out.read_text())
        sizes[extra] = max(
            len(test["conditioning"])
            for rep in doc["reports"].values()
            for row in rep["edges"]
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


def _ce1_with(*path, value) -> mf.SystemSpec:
    doc = mf.build("ce1").spec.to_json_dict()
    _set(*path, value=value)(doc)
    return mf.SystemSpec.from_json_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("path, value", [
    # [num, den] with both signs negative is the positive probability.
    (("message", "pmf"), [{"value": [v], "p": [-1, -2]} for v in (0, 1)]),
    (("noise", "C0", "pmf", 1, "p"), [-1, -2]),
    # An unreduced pair is its reduced probability.
    (("noise", "C0", "pmf"), [{"value": 0, "p": [3, 6]}, {"value": 1, "p": [10**20, 2 * 10**20]}]),
    # A zero row is dropped before the duplicate check, so its value may come again.
    (("noise", "C0", "pmf"), [{"value": 0, "p": [0, 1]}, {"value": 0, "p": [1, 2]},
                              {"value": 1, "p": [1, 2]}]),
])
def test_equal_laws_load_as_one(path, value):
    spec = _ce1_with(*path, value=value)
    want = mf.build("ce1").spec
    assert (spec.message, spec.noise) == (want.message, want.noise)
    assert spec.to_json_dict() == want.to_json_dict()


@st.composite
def _law_rows(draw):
    """(value, (num, den)) rows: num in -3..50 (zero rows included), den in
    1..10^20, both signs flipped at random, values that may repeat;
    rescaled half the time to sum to 1."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, 9), st.integers(-3, 50), st.integers(1, 10**20), st.booleans(),
    ), min_size=1, max_size=6))
    rows = [(v, -num, -den) if flip else (v, num, den) for v, num, den, flip in rows]
    total = sum(Fraction(num, den) for _, num, den in rows)
    if total > 0 and draw(st.booleans()):
        rows = [(v, num * total.denominator, den * total.numerator) for v, num, den in rows]
    return [(v, (num, den)) for v, num, den in rows]


def _outcome(build):
    try:
        return build()
    except mf.ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_law_rows())
def test_the_reader_and_the_constructors_build_one_law(rows):
    fracs = [(v, Fraction(num, den)) for v, (num, den) in rows]
    noise = [{"value": v, "p": list(p)} for v, p in rows]
    message = [{"value": [v], "p": list(p)} for v, p in rows]
    cases = [
        (lambda: _ce1_with("noise", "C0", "pmf", value=noise).noise[mf.NodeRef("C", 0)],
         lambda: mf.NoiseSpec.discrete(fracs),
         lambda: reference_pmf(fracs, "noise")),
        (lambda: _ce1_with("message", "pmf", value=message).message,
         lambda: mf.MessageSpec.discrete(("M",), fracs),
         lambda: reference_pmf([((v,), p) for v, p in fracs], "message")),
    ]
    for read, built, want in cases:
        read, built, want = _outcome(read), _outcome(built), _outcome(want)
        assert read == built
        if isinstance(want, str):
            assert read == want
        else:
            assert read.pmf == want
            assert math.gcd(*read.weights) == 1 and len(read.weights) == len(want)


def test_loading_an_integer_law_creates_no_fraction(tmp_path, monkeypatch):
    # exact-enum's widest rung: pad-mask k2 d1, noise on 0..15.
    path = tmp_path / "padmask.json"
    path.write_text(json.dumps(pad_mask_doc(2, 1, 16)))
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    spec = load_system(path)
    monkeypatch.undo()
    assert made == []
    assert [spec.noise[v].weights for v in spec.noise_nodes()] == [(1,) * 16] * 3
    assert spec.message.weights == (1, 1)


def test_readme_system_file_is_ce1():
    # The system-file example in README's format section is ce1, as it says.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    spec = mf.SystemSpec.from_json_dict(json.loads(block))
    assert spec.to_json_dict() == mf.build("ce1").spec.to_json_dict()


def test_fixture_listing(capsys):
    assert run("fixtures") == 0
    names = capsys.readouterr().out.split()
    assert list(mf.FIXTURE_NAMES) == names


def test_fixture_listing_out_writes_the_file(tmp_path, capsys):
    out = tmp_path / "names.txt"
    assert run("fixtures", "--out", str(out)) == 0
    assert out.read_text().splitlines() == list(mf.FIXTURE_NAMES)
    assert capsys.readouterr().out == ""
