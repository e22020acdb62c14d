import json
import math

import msgflow as mf
from msgflow.report import report_from_dict, report_to_dict, reports_to_json, to_dot


def test_report_round_trip(joints):
    rep = mf.analyze(joints["ce1"], quantify=True)
    again = report_from_dict(report_to_dict(rep))
    assert again.message == rep.message and again.engine == rep.engine
    for e, entry in rep.entries.items():
        got = again.entries[e]
        assert got.has_flow == entry.has_flow
        assert got.witness == entry.witness
        assert got.quantified == entry.quantified


def test_report_round_trip_with_infinite_volume(sk_joint):
    rep = mf.analyze(sk_joint, quantify=True)
    doc = json.loads(reports_to_json({"M": rep}))
    again = report_from_dict(doc["reports"]["M"])
    from msgflow.graph import edge

    assert again.entries[edge("A", 0, "B")].quantified == math.inf


def test_dot_deterministic(fixtures, joints):
    j = joints["butterfly"]
    g = fixtures["butterfly"].spec.graph
    reports = mf.analyze_messages(j)
    constant = tuple(e for e in j.edge_vars if j.is_constant(e))
    assert to_dot(g, reports, constant) == to_dot(g, reports, constant)
    text = to_dot(g, reports, constant)
    assert text.count("{") == text.count("}")  # crude structural sanity
    assert '"C2" -> "C3"' in text


def test_sampled_report_round_trip(fixtures):
    trials = mf.sample_trials(fixtures["ce1"].spec, 500, seed=3)
    rep = mf.FlowReport(message="M", engine="sampled")
    for e in trials.edge_vars:
        rep.entries[e] = mf.detect_flow_sampled(trials, e, max_subset_size=1, n_perm=19, seed=1)
    assert any(entry.p_values for entry in rep.entries.values())
    assert any(entry.n_tests_planned == 0 for entry in rep.entries.values())  # constant
    doc = json.loads(reports_to_json({"M": rep}))
    again = report_from_dict(doc["reports"]["M"])
    assert again.entries == rep.entries
