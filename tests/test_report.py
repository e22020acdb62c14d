import hashlib
import json
import math

import pytest

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


# SHA-256 of reports_to_json(analyze_messages(joint, quantify=True)) per
# fixture, taken before node and edge refs became tuples: a speed change
# must leave every report byte as it was.  The quantified volumes are
# floats from numpy's log2 and sum (numpy 2.4, x86-64), so a numpy that
# rounds those differently in the last bit would change a digest.
REPORT_SHA256 = {
    "ce1": "e26403b7d583841ca2e5a9aa7df042daf69916992aaf94c127f89e2f4f50a0e1",
    "ce2": "ed51c29b75deb39c5e0350e8a638666b75f73acf3f406efb61ac75d00cd534ef",
    "ce3": "55536596e0af447cf618cc8cf65bb94946150ab8efd3579d0dbc1924ded956ab",
    "mult-msg": "ccc70efb7bb9df3fc444c9d8a1e73c06a716b69f77495ce68324f66709fce86d",
    "butterfly": "20ceb65249c128216061e1d5ba39d65984f8d379eae57bf07a8992f753edd21c",
    "fft-even": "cd36f6dc4c9dadaa306c1bc64b2cc64c1fdde65835a50950621312018ae8788c",
    "fft-phase": "aebba78473d3f3694a74dd9dddabeedbcaada4b0049b32f189ae67b0aa9fa501",
    "sk": "8a69fc3a3af835580bee41543ac36c62db42077f70fdd818244a28574b40d423",
    "output-msg": "e597d797d5093c5a0ae55778848cc8b4d38c3ac2274eb7c91a3f19cedecfa487",
    "hidden-ignored": "a747ad89343c4294ee940063a6d5f11a7b0ca58eaf9d1cb39b5c4acc35683f11",
    "hidden-local": "1b9dbf96742d96a48cb9e30aef2b5e0f6ce829c1389eed01640905512cb28687",
    "hidden-masked": "99426c691d7b9710f5715460001d37f87331b5b0622a477c8026e5222dec6559",
}


def _walk(doc):
    yield doc
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    for child in children:
        yield from _walk(child)


@pytest.mark.filterwarnings("ignore::msgflow.DependentMessagesWarning")
@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_quantified_report_bytes_are_pinned(joints, sk_joint, name):
    joint = sk_joint if name == "sk" else joints[name]
    reports = mf.analyze_messages(joint, quantify=True)
    # A ref that reached the dict unconverted would be a tuple, which JSON
    # writes as a list without complaint.
    for rep in reports.values():
        assert not any(isinstance(x, tuple) for x in _walk(report_to_dict(rep)))
    text = reports_to_json(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
