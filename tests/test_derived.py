import pytest

import msgflow as mf
from msgflow import ObservationMask, ValidationError
from msgflow.derived import hidden_alarm_value
from msgflow.graph import NodeRef, UnrolledGraph, edge


def test_sk_receiver_estimates_are_derived_from_sender(sk_joint):
    # First two sender transmissions jointly determine the second estimate.
    y1, y2 = edge("A", 0, "B"), edge("A", 2, "B")
    m2 = edge("B", 3, "A")
    assert mf.is_derived(sk_joint, [m2], [y1, y2])


def test_sk_sender_error_not_derived_from_estimates(sk_joint):
    m1, m2 = edge("B", 1, "A"), edge("B", 3, "A")
    y3 = edge("A", 4, "B")
    assert not mf.is_derived(sk_joint, [y3], [m1, m2])


def test_is_derived_self(joints):
    j = joints["ce1"]
    e = edge("A", 1, "B")
    assert mf.is_derived(j, [e], [e])
    with pytest.raises(ValidationError):
        mf.is_derived(j, [], [e])


def test_is_derived_cross_time(joints):
    j = joints["ce1"]
    # The reconstructed message adds nothing given both masked parts.
    assert mf.is_derived(j, [edge("B", 2, "B")], [edge("A", 1, "B"), edge("C", 1, "B")])
    assert not mf.is_derived(j, [edge("B", 2, "B")], [edge("A", 1, "B")])


def test_redundancy_pairs(joints):
    # ce3: the duplicated masked copy and the duplicated pad are the only
    # mutually-derived pairs among the flowing edges.
    assert mf.redundancy_pairs(joints["ce3"], 1) == [
        frozenset({edge("A", 1, "B"), edge("D", 1, "B")}),
        frozenset({edge("C", 1, "B"), edge("C", 1, "C")}),
    ]
    # ce1's two flowing edges are complementary, not redundant: given one,
    # the other reveals the message, so neither is derived from the other.
    assert mf.redundancy_pairs(joints["ce1"], 1) == []


def test_redundancy_pairs_empty_for_constant_slice():
    import msgflow as mf
    from msgflow import MessageSpec, SystemSpec, UnrolledGraph

    g = UnrolledGraph(("A", "B"), 1)
    j = mf.enumerate_joint(SystemSpec(g, MessageSpec.bernoulli("M")))
    assert mf.redundancy_pairs(j, 0) == []


def test_redundancy_pairs_searches_only_its_slice():
    # Slice 1 holds 22 candidates sharing one source, past the search cap of
    # 20; the pairs of slice 0 must not need it.
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.integers(0, 2, 64)
    noise = rng.integers(0, 2, (22, 64)).tolist()
    variables = ["M", edge("A", 0, "A")] + [edge(chr(ord("B") + i), 1, "A") for i in range(22)]
    j = mf.DiscreteJoint(variables, zip(m.tolist(), m.tolist(), *noise))
    assert len(j.candidates_at(1)) == 22
    assert mf.redundancy_pairs(j, 0) == []


def test_markov_holds(joints):
    j = joints["ce1"]
    e1 = list(j.edges_at(1))
    e2 = list(j.edges_at(2))
    assert mf.markov_holds(j, ["M"], e1, e2)  # slice-to-slice chain
    # chain at the pad relay node, an origin of flow without incoming flow
    g_in = [edge("A", 0, "C"), edge("B", 0, "C"), edge("C", 0, "C")]
    assert mf.markov_holds(j, ["M"], g_in, [edge("C", 1, "B")])
    # deliberately broken chain: conditioning on the pad does not screen the message
    assert not mf.markov_holds(j, ["M"], [edge("C", 0, "C")], ["M"])


def test_global_markov_every_fixture_slice(joints):
    for name, j in joints.items():
        for m in j.message_vars:
            times = j.times()
            for t in times[:-1]:
                assert mf.markov_holds(
                    j, [m], list(j.edges_at(t)), list(j.edges_at(t + 1))
                ), (name, m, t)


def test_mask_validation(joints, fixtures):
    g = fixtures["ce1"].spec.graph
    with pytest.raises(ValidationError):
        ObservationMask(frozenset({"Z"})).validate(g)
    with pytest.raises(ValidationError):
        ObservationMask(frozenset({"A", "B", "C"})).validate(g)
    mask = ObservationMask(frozenset({"C"}))
    assert mask.observed_edges(g, 1) == tuple(
        e for e in g.edges_at(1) if "C" not in (e.src.name, e.dst.name)
    )


def test_hidden_relay_alarm(joints, fixtures):
    # Hiding the pad relay makes the conditioning transmission invisible:
    # the observed chain breaks exactly when the masked value is decoded.
    j = joints["ce1"]
    g = fixtures["ce1"].spec.graph
    mask = ObservationMask(frozenset({"C"}))
    assert not mf.hidden_node_alarm(j, g, mask, 0)
    assert mf.hidden_node_alarm(j, g, mask, 1)


def test_hidden_but_ignored_no_alarm(joints, fixtures):
    j = joints["hidden-ignored"]
    g = fixtures["hidden-ignored"].spec.graph
    mask = ObservationMask(frozenset({"H"}))
    assert not any(mf.hidden_node_alarm(j, g, mask, t) for t in range(g.horizon - 1))
    # yet the hidden wire is message-relevant in the full system
    assert mf.edge_flow(j, edge("H", 1, "A"))[0]


def test_hidden_caught_by_local_check(joints, fixtures):
    j = joints["hidden-local"]
    g = fixtures["hidden-local"].spec.graph
    mask = ObservationMask(frozenset({"H"}))
    assert not any(mf.hidden_node_alarm(j, g, mask, t) for t in range(g.horizon - 1))
    assert mf.local_markov_violations(j, g, mask, 1) == frozenset({NodeRef("B", 2)})
    # the hidden slice is nevertheless explained by the observed one
    assert mf.is_derived(j, [edge("H", 1, "B")], list(mask.observed_edges(g, 1)))


def test_hidden_masked_by_redundant_copy_goes_unseen(joints, fixtures):
    j = joints["hidden-masked"]
    g = fixtures["hidden-masked"].spec.graph
    mask = ObservationMask(frozenset({"H"}))
    assert not any(mf.hidden_node_alarm(j, g, mask, t) for t in range(g.horizon - 1))
    for t in range(g.horizon - 1):
        assert mf.local_markov_violations(j, g, mask, t) == frozenset()


def test_no_hidden_nodes_never_alarms(joints, fixtures):
    for name in ("ce1", "ce2", "butterfly"):
        j = joints[name]
        g = fixtures[name].spec.graph
        mask = ObservationMask(frozenset())
        m = fixtures[name].messages[0]
        for t in range(g.horizon - 1):
            assert not mf.hidden_node_alarm(j, g, mask, t, m), (name, t)
            assert mf.local_markov_violations(j, g, mask, t, m) == frozenset()


def test_alarm_errors(joints, fixtures):
    j = joints["ce1"]
    g = fixtures["ce1"].spec.graph
    with pytest.raises(ValidationError):
        mf.hidden_node_alarm(j, g, ObservationMask(frozenset({"C"})), 2)


@pytest.mark.parametrize("alarm", [mf.hidden_node_alarm, hidden_alarm_value])
@pytest.mark.parametrize(
    "hidden, t, wires",
    [
        ({"Z"}, 0, None),  # not a node
        ({"A", "H"}, 0, None),  # every node
        ({"H"}, 2, None),  # no slice after the last one
        ({"H"}, -1, None),
        ({"H"}, 0, [("A", "H"), ("H", "A")]),  # every edge touches H
    ],
)
def test_alarm_and_its_value_refuse_the_same_queries(joints, fixtures, alarm, hidden, t, wires):
    # The alarm's bits make the alarm's checks: no value for a mask or a
    # time the alarm refuses.
    j = joints["hidden-ignored"]
    g = fixtures["hidden-ignored"].spec.graph
    if wires is not None:
        g = UnrolledGraph(g.node_names, g.horizon, wires)
    with pytest.raises(ValidationError):
        alarm(j, g, ObservationMask(frozenset(hidden)), t)
