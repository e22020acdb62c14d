"""Documented refusals: each malformed call raises its error type."""

import json
from fractions import Fraction

import numpy as np
import pytest

import msgflow as mf
from msgflow import SpecParseError, ValidationError
from msgflow.cli import main
from msgflow.derived import ObservationMask, hidden_alarm_value
from msgflow.exprs import parse_expr
from msgflow.graph import EdgeRef, NodeRef, edge
from msgflow.report import bits_to_json, report_from_dict


def _ce1(fixtures):
    return fixtures["ce1"].spec.graph


CASES = {
    # report.py: a document of another schema is not a flow report
    "report-schema": (
        SpecParseError, "not a flow report",
        lambda f, j: report_from_dict({"schema": "msgflow.paths/1"}),
    ),
    # graph.py
    "edge-id-without-arrow": (ValidationError, "must look like", lambda f, j: EdgeRef.parse("A0")),
    "nodes-at-past-horizon": (
        ValidationError, "^time 4 outside",
        lambda f, j: _ce1(f).nodes_at(_ce1(f).horizon + 1),
    ),
    "edges-at-horizon": (
        ValidationError, "^edge time 3 outside",
        lambda f, j: _ce1(f).edges_at(_ce1(f).horizon),
    ),
    # paths.py
    "input-node-not-in-graph": (
        ValidationError, "input nodes must belong",
        lambda f, j: mf.find_info_paths(
            mf.analyze(j["ce1"]), _ce1(f), NodeRef("A", 2), [NodeRef("Z", 0)]
        ),
    ),
    "unknown-cut-node": (
        ValidationError, "node Z3 not in graph",
        lambda f, j: mf.zero_information_cut(
            mf.analyze(j["ce1"]), _ce1(f), [NodeRef("A", 0)], [NodeRef("Z", 3)]
        ),
    ),
    # gaussian.py
    "covariance-shape": (
        ValidationError, "shape mismatch",
        lambda f, j: mf.GaussianJoint(["M", "N"], [[1, 0]]),
    ),
    "covariance-asymmetric": (
        ValidationError, "symmetric",
        lambda f, j: mf.GaussianJoint(["M", "N"], [[1, 0], [Fraction(1, 2), 1]]),
    ),
    "linear-propagate-discrete": (
        ValidationError, "needs a gaussian message",
        lambda f, j: mf.linear_propagate(f["ce1"].spec),
    ),
    # sampling.py
    "zero-trials": (
        ValidationError, "at least one trial",
        lambda f, j: mf.sample_trials(f["ce1"].spec, 0, 1),
    ),
    "zero-permutations": (
        ValidationError, "at least one permutation",
        lambda f, j: mf.permutation_ci_test(j["ce1"], ["M"], [edge("A", 0, "A")], n_perm=0),
    ),
    "cascade-alpha": (
        ValidationError, "alpha must be",
        lambda f, j: mf.detect_flow_sampled(j["ce1"], edge("A", 0, "A"), alpha=1.0),
    ),
    "cascade-permutations": (
        ValidationError, "at least one permutation",
        lambda f, j: mf.detect_flow_sampled(j["ce1"], edge("A", 0, "A"), n_perm=0),
    ),
    "cascade-subset-cap": (
        ValidationError, "max_subset_size must be at least 0",
        lambda f, j: mf.detect_flow_sampled(j["ce1"], edge("A", 0, "A"), max_subset_size=-1),
    ),
    "analysis-alpha": (
        ValidationError, "alpha must be",
        lambda f, j: mf.analyze_sampled(j["ce1"], alpha=2.0),
    ),
    # exprs.py: leaf arities
    "noise-leaf-arity": (
        SpecParseError, "noise leaf",
        lambda f, j: parse_expr(["noise", "A0", "B0"]),
    ),
    "msg-leaf-arity": (SpecParseError, "msg leaf", lambda f, j: parse_expr(["msg", "M", "N"])),
    "const-arity": (
        SpecParseError, "const takes one value",
        lambda f, j: parse_expr(["const", 1, 2]),
    ),
    # discrete.py: malformed tables
    "duplicate-variables": (
        ValidationError, "duplicate variable ids",
        lambda f, j: mf.DiscreteJoint(["M", "M"], [(0, 0)]),
    ),
    "row-width": (
        ValidationError, "every row needs",
        lambda f, j: mf.DiscreteJoint(["M"], [(0, 1)]),
    ),
    "code-columns": (
        ValidationError, "needs 2 columns",
        lambda f, j: mf.DiscreteJoint.from_codes(["M", "N"], np.zeros((1, 1), np.int64), [(0,)]),
    ),
    "weights-length": (
        ValidationError, "differ in length",
        lambda f, j: mf.DiscreteJoint(["M"], [(0,), (1,)], [1]),
    ),
    "no-weight": (
        ValidationError, "no weight",
        lambda f, j: mf.DiscreteJoint(["M"], [(0,), (1,)], [0, 0]),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_malformed_call_raises_its_documented_error(name, fixtures, joints):
    error, match, call = CASES[name]
    with pytest.raises(error, match=match):
        call(fixtures, joints)


def test_markov_holds_with_an_empty_end(fixtures, joints):
    # A chain with an empty end holds without a test.
    j, g = joints["ce1"], _ce1(fixtures)
    assert mf.markov_holds(j, [], ["M"], list(g.edges_at(0)))
    assert mf.markov_holds(j, ["M"], list(g.edges_at(0)), [])


def test_hidden_alarm_value_is_the_bits_hidden_prints(fixtures, joints, capsys):
    assert main(["hidden", "--fixture", "ce1", "--hide", "C"]) == 0
    alarms = json.loads(capsys.readouterr().out)["alarms"]
    assert any(a["alarm"] for a in alarms)
    mask = ObservationMask(frozenset({"C"}))
    got = [bits_to_json(hidden_alarm_value(joints["ce1"], _ce1(fixtures), mask, a["t"]))
           for a in alarms]
    assert got == [a["violation_bits"] for a in alarms]
