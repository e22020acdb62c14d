import math
from fractions import Fraction

import pytest

import msgflow as mf
from msgflow import ValidationError
from msgflow.graph import NodeRef, edge


def test_unknown_fixture_rejected():
    with pytest.raises(ValidationError):
        mf.build("nope")
    with pytest.raises(ValidationError):
        mf.build("sk", sigma2=0)
    with pytest.raises(ValidationError):
        mf.build("output-msg", gate=3)


def test_every_fixture_flow_set_matches(fixtures, joints, sk_joint):
    for name, fx in fixtures.items():
        joint = sk_joint if fx.spec.is_gaussian else joints[name]
        for message, want in fx.expected_flow.items():
            rep = mf.analyze(joint, message)
            assert rep.flowing() == want, (name, message)


def test_expected_edges_exist_in_spec(fixtures):
    for name, fx in fixtures.items():
        for message, want in fx.expected_flow.items():
            for e in want:
                assert e in fx.spec.graph, (name, message, e)


def test_butterfly_path_queries(joints, fixtures):
    fx = fixtures["butterfly"]
    j = joints["butterfly"]
    reports = mf.analyze_messages(j)
    for (message, target), want in fx.expected_paths.items():
        h = mf.find_info_paths(
            reports[message],
            fx.spec.graph,
            NodeRef.parse(target),
            mf.input_nodes(j, fx.spec.graph, message),
        )
        got = tuple(tuple(str(v) for v in p) for p in mf.enumerate_paths(h).paths)
        assert got == want, (message, target)


def test_butterfly_mixed_edge_carries_both(joints):
    j = joints["butterfly"]
    mixed = edge("C", 2, "C")
    assert not j.dependent(["M1"], [mixed])
    assert not j.dependent(["M2"], [mixed])
    assert mf.edge_flow(j, mixed, "M1")[0]
    assert mf.edge_flow(j, mixed, "M2")[0]


def test_fft_even_values(fixtures):
    spec = fixtures["fft-even"].spec
    for m in (0, 1):
        vals = spec.propagate({"M": m}, {})
        assert vals[edge("A", 1, "A")] == 2 * m  # sum pair
        assert vals[edge("B", 1, "B")] == 0  # difference pair cancels
        assert vals[edge("A", 2, "A")] == 2 * m  # flat coefficient
        assert vals[edge("B", 2, "B")] == 0
        assert vals[edge("C", 2, "C")] == 2 * m  # alternating coefficient
        assert vals[edge("D", 2, "D")] == 0


def test_fft_phase_values(fixtures):
    from msgflow.values import make_complex

    spec = fixtures["fft-phase"].spec
    for m in (0, 1):
        vals = spec.propagate({"M": m}, {})
        assert vals[edge("A", 2, "A")] == 1 - m
        assert vals[edge("B", 2, "B")] == m
        assert vals[edge("C", 2, "C")] == 0
        assert vals[edge("D", 2, "D")] == 0
        # stage-one values stay exact gaussian rationals
        assert vals[edge("A", 1, "A")] == (Fraction(1, 2) if m == 0 else 0)
        assert vals[edge("D", 1, "B")] == (0 if m == 0 else make_complex(0, Fraction(1, 2)))


def test_mult_msg_dependence(joints):
    j = joints["mult-msg"]
    assert j.cmi(["M1"], ["M2"]) == pytest.approx(1.0, abs=1e-12)


def test_output_msg_branches(fixtures):
    for gate, branch in ((1, edge("A", 0, "B")), (0, edge("C", 0, "B"))):
        fx = mf.build("output-msg", gate=gate)
        j = mf.enumerate_joint(fx.spec)
        rep = mf.analyze(j)
        assert rep.flowing() == fx.expected_flow["M"]
        assert rep.has_flow(branch)
    fx = mf.build("output-msg", gate=None)
    j = mf.enumerate_joint(fx.spec)
    assert mf.analyze(j).flowing() == fx.expected_flow["M"]


def test_sk_parameterization(fixtures):
    fx = mf.build("sk", sigma2=2, iterations=4)
    assert fx.spec.graph.horizon == 8
    g = mf.linear_propagate(fx.spec)
    m4 = edge("B", 7, "A")
    assert g.cmi(["M"], [m4]) == pytest.approx(0.5 * math.log2(1 + 4 / 2), abs=1e-12)


def test_sk_derivedness_verdicts(sk_joint):
    assert mf.is_derived(sk_joint, [edge("B", 3, "A")], [edge("A", 0, "B"), edge("A", 2, "B")])
    assert not mf.is_derived(
        sk_joint, [edge("A", 4, "B")], [edge("B", 1, "A"), edge("B", 3, "A")]
    )


def test_sk_quantified_flow_profile(sk_joint):
    rep = mf.analyze(sk_joint, quantify=True)
    bob = [rep.entries[edge("B", 2 * i - 1, "A")].quantified for i in (1, 2, 3)]
    assert bob == sorted(bob) and bob[0] < bob[1] < bob[2]
    assert bob[2] == pytest.approx(1.0, abs=1e-9)
    assert rep.entries[edge("A", 0, "B")].quantified == math.inf
