import copy
import itertools
import math
import warnings

import pytest

import msgflow as mf
from msgflow import flow
from msgflow import (
    DependentMessagesWarning,
    MessageSpec,
    SearchSpaceError,
    SystemSpec,
    UnrolledGraph,
    ValidationError,
)
from msgflow.exprs import msg
from msgflow.graph import NodeRef, edge
from msgflow.report import reports_to_json
from randsys import random_noisy_system, random_system
from reference import set_answers, stopped_search_length, unpruned


def test_edge_flow_witnesses_ce1(joints):
    j = joints["ce1"]
    has, witness = mf.edge_flow(j, edge("A", 1, "B"))
    assert has and witness == (edge("C", 1, "B"),)
    has, witness = mf.edge_flow(j, edge("C", 1, "B"))
    assert has and witness == (edge("A", 1, "B"),)
    assert mf.edge_flow(j, edge("B", 0, "B")) == (False, None)  # constant
    assert mf.edge_flow(j, edge("C", 0, "A")) == (False, None)  # pure pad


def test_edge_flow_unknown_edge(joints):
    with pytest.raises(ValidationError):
        mf.edge_flow(joints["ce1"], edge("A", 5, "B"))


def test_set_flow(joints):
    j = joints["ce1"]
    pair = [edge("A", 1, "B"), edge("C", 1, "B")]
    assert mf.set_flow(j, pair)
    assert not mf.set_flow(j, [])
    assert not mf.set_flow(j, [edge("C", 0, "A"), edge("C", 0, "C")])
    with pytest.raises(ValidationError):
        mf.set_flow(j, [edge("A", 0, "A"), edge("A", 1, "B")])  # mixed times


def test_set_flow_matches_member_flow(joints):
    import itertools

    for name, j in joints.items():
        for m in j.message_vars:
            for t in j.times():
                edges = [e for e in j.edges_at(t) if not j.is_constant(e)][:4]
                flags = {e: mf.edge_flow(j, e, m)[0] for e in edges}
                for k in (1, 2, 3):
                    for sub in itertools.combinations(edges, k):
                        assert mf.set_flow(j, list(sub), m) == any(
                            flags[e] for e in sub
                        ), (name, m, t, sub)


def test_candidate_definitions_fail_on_their_counterexamples(joints):
    for which, name in ((1, "ce1"), (2, "ce2"), (3, "ce3")):
        j = joints[name]
        assert all(
            not mf.candidate_flow(j, e, which) for e in j.edges_at(1)
        ), (which, name)
        # the message nevertheless reappears one step later
        assert j.dependent(["M"], list(j.edges_at(2)))
        # and the subset-search definition does flag edges at t=1
        assert any(mf.edge_flow(j, e)[0] for e in j.edges_at(1))


def test_candidate_flow_validation(joints):
    with pytest.raises(ValidationError):
        mf.candidate_flow(joints["ce1"], edge("A", 1, "B"), 4)


def test_candidate_one_detects_plain_dependence(joints):
    j = joints["ce1"]
    assert mf.candidate_flow(j, edge("A", 0, "A"), 1)
    assert mf.candidate_flow(j, edge("B", 2, "B"), 1)


def test_quantified_flow(joints):
    j = joints["ce1"]
    assert mf.quantified_flow(j, edge("A", 1, "B")) == pytest.approx(1.0, abs=1e-12)
    assert mf.quantified_flow(j, edge("C", 0, "A")) == 0.0
    assert mf.quantified_flow(j, edge("B", 0, "B")) == 0.0


def test_quantified_iff_flow(joints):
    for name, j in joints.items():
        for m in j.message_vars:
            for t in j.times():
                for e in j.edges_at(t):
                    has, _ = mf.edge_flow(j, e, m)
                    q = mf.quantified_flow(j, e, m)
                    assert has == (q > 0), (name, m, e)


def test_separability_partition_ce3(joints):
    r, s = mf.separability_partition(joints["ce3"], 1)
    assert r == frozenset(
        {edge("A", 1, "B"), edge("D", 1, "B"), edge("C", 1, "B"), edge("C", 1, "C")}
    )
    assert r | s == frozenset(joints["ce3"].edges_at(1))
    assert not (r & s)


def test_separability_partition_all_fixture_slices(joints):
    for name, j in joints.items():
        for m in j.message_vars:
            for t in j.times():
                r, s = mf.separability_partition(j, t, m)
                assert r | s == frozenset(j.edges_at(t))
                assert not (r & s)


def test_separability_checks_the_flowing_set_within_the_edge_cap():
    # A0 copies the message to four edges that read no source.  Each one's
    # search fits a cap of 2, and the witness check inside the flowing set
    # searches a part of the same component, so the cap holds there too.
    g = UnrolledGraph(("A", "B", "C", "D"), 1)
    fns = {NodeRef("A", 0): {e: msg() for e in g.outgoing(NodeRef("A", 0))}}
    spec = SystemSpec(g, MessageSpec.bernoulli("M"), functions=fns, declared_inputs=("A",))
    j = mf.enumerate_joint(spec)
    assert all(mf.edge_flow(j, e, max_candidates=2)[0] for e in fns[NodeRef("A", 0)])
    r = mf.separability_partition(j, 0, max_candidates=2)[0]
    assert r == frozenset(fns[NodeRef("A", 0)])
    assert r == mf.separability_partition(j, 0)[0]


def test_separability_constant_system():
    g = UnrolledGraph(("A", "B"), 2)
    spec = SystemSpec(g, MessageSpec.bernoulli("M"))
    j = mf.enumerate_joint(spec)
    r, s = mf.separability_partition(j, 0)
    assert r == frozenset()
    assert s == frozenset(g.edges_at(0))


def test_find_orphans(joints, fixtures):
    for name in ("ce1", "ce3"):
        rep = mf.analyze(joints[name])
        assert mf.find_orphans(rep, fixtures[name].spec.graph) == frozenset(
            {NodeRef("C", 1)}
        ), name
    # After the crossover mixes the two messages, the lane that carried only
    # the other message starts flowing about this one: its relay node becomes
    # an orphan (outgoing flow, no incoming flow).  Detector-derived.
    g = fixtures["butterfly"].spec.graph
    rep = mf.analyze(joints["butterfly"], "M1")
    assert mf.find_orphans(rep, g) == frozenset({NodeRef("B", 2)})
    rep = mf.analyze(joints["butterfly"], "M2")
    assert mf.find_orphans(rep, g) == frozenset({NodeRef("A", 2)})


def test_orphan_definition_via_set_flow(joints, fixtures):
    # Cross-check the report-based orphan test against the set-level definition.
    j = joints["ce1"]
    g = fixtures["ce1"].spec.graph
    v = NodeRef("C", 1)
    assert mf.set_flow(j, list(g.outgoing(v)))
    assert not mf.set_flow(j, list(g.incoming(v)))


def test_sources_follow_reads(fixtures):
    src = fixtures["ce1"].spec.sources()
    assert src[edge("A", 1, "B")] == {NodeRef("C", 0)}  # read through C0->A1
    assert src[edge("A", 0, "A")] == frozenset()  # a one-component message is no source
    assert fixtures["mult-msg"].spec.sources()[edge("A", 0, "A")] == {("M1", "M2")}
    assert fixtures["output-msg"].spec.sources() is None  # derived message


def test_pruned_search_matches_unpruned_on_fixtures(joints, sk_joint):
    for name, j in {**joints, "sk": sk_joint}.items():
        assert (j.sources is None) == (name == "output-msg"), name  # derived message
        for m in j.message_vars:
            got = mf.analyze(j, m, quantify=True).entries
            assert got == mf.analyze(unpruned(j), m, quantify=True).entries, (name, m)
            for e, entry in got.items():
                assert mf.edge_flow(j, e, m) == (entry.has_flow, entry.witness), (name, m, e)
            assert set_answers(j, m) == set_answers(unpruned(j), m), (name, m)


def test_search_space_guard(joints):
    with pytest.raises(SearchSpaceError):
        mf.edge_flow(joints["ce3"], edge("A", 1, "B"), max_candidates=2)


def test_negative_cap_is_invalid(joints):
    j, e = joints["ce1"], edge("A", 1, "B")
    for search in (
        lambda: mf.edge_flow(j, edge("B", 0, "B"), max_candidates=-1),  # constant edge
        lambda: mf.quantified_flow(j, e, max_candidates=-1),
        lambda: mf.set_flow(j, [e], max_candidates=-1),
        lambda: mf.candidate_flow(j, e, 3, max_candidates=-1),
        lambda: mf.separability_partition(j, 1, max_candidates=-1),
    ):
        with pytest.raises(ValidationError, match="at least 0"):
            search()


def test_component_table_follows_sources(fixtures):
    # Each of the 8 candidates of fft-phase's slice 1 shares no source with
    # another, so its search fits a cap of 0; counting every edge as reading
    # one shared source, or none as a joint without sources does, it needs 7.
    j = mf.enumerate_joint(fixtures["fft-phase"].spec)
    cands = j.candidates_at(1)
    assert len(cands) == 8

    def fits_cap_0(joint):
        fits = []
        for e in cands:
            try:
                mf.edge_flow(joint, e, max_candidates=0)
            except SearchSpaceError:
                fits.append(False)
            else:
                fits.append(True)
        return fits

    assert fits_cap_0(j) == [True] * 8  # fills the original's table
    shared, blind = copy.copy(j), copy.copy(j)
    shared.sources = dict.fromkeys(j.edge_vars, frozenset({"one"}))
    blind.sources = None
    for other in (shared, blind):
        assert fits_cap_0(other) == [False] * 8
        for e in cands:
            assert mf.flow._component(other, [e], frozenset([e])) == tuple(
                x for x in cands if x != e
            )
    assert fits_cap_0(j) == [True] * 8  # the copies left the original's table alone
    shared.sources = j.sources
    assert fits_cap_0(shared) == [True] * 8


def test_quantify_builds_one_grid_per_subset(fixtures, monkeypatch):
    # Every subset a quantified search tries builds one weight grid, which
    # gives the verdict, the bits and the saturation test; the search stops
    # at the first witness that saturates and never calls cmi.
    j = mf.enumerate_joint(fixtures["butterfly"].spec)
    built = []
    query = mf.DiscreteJoint.grid_query

    def counted(self, a_vars):
        grid = query(self, a_vars)

        def build(*axes):
            built.append(axes)
            return grid(*axes)

        return build

    def no_cmi(*args):
        raise AssertionError("the search called cmi")

    monkeypatch.setattr(mf.DiscreteJoint, "grid_query", counted)
    monkeypatch.setattr(mf.DiscreteJoint, "cmi", no_cmi)
    reports = mf.analyze_messages(j, quantify=True)
    live = [e for e in j.edge_vars if not j.is_constant(e)]
    tried = sum(stopped_search_length(j, m, e) for m in j.message_vars for e in live)
    pairs = math.comb(len(j.message_vars), 2)  # the dependent-messages check
    assert len(built) == tried + pairs == 74
    assert all(r.entries[e].quantified > 0 for r in reports.values() for e in r.flowing())


def _unstopped(joint, m, e) -> float:
    """The largest I(m; e | S) over every witness, without the stop."""
    found = flow._search(joint, m, [e], flow.DEFAULT_MAX_CANDIDATES, frozenset([e]))
    return max((bits()[0] for _, bits in found), default=0.0)


def test_quantify_stops_only_at_a_saturating_witness():
    # M = (m1, m0) and a noise bit n are uniform; the edges at t = 0 are
    # e = (m1 xor n, m0), s = m1 and r = n, and e's search tries (), (s), (r)
    # in turn.  I(M; e) = 1, and neither M nor e is fixed by the other.
    # Given s, e fixes M, but M is not independent of s: I(M; e | s) = 1.
    # Given r, e fixes M and M is independent of r: I(M; e | r) = 2 = H(M),
    # where the search stops.  With M and e swapped, e is fixed by (M, s)
    # but not independent of s.  A stop that dropped either half of either
    # test would report 1.
    e, s, r = edge("A", 0, "E"), edge("A", 0, "S"), edge("A", 0, "T")
    bits = list(itertools.product((0, 1), repeat=3))
    for names in (("M", e), (e, "M")):
        rows = [(2 * m1 + m0, 2 * (m1 ^ n) + m0, m1, n) for m1, m0, n in bits]
        joint = mf.DiscreteJoint((*names, s, r), rows)
        assert mf.edge_flow(joint, e, "M") == (True, ())
        assert _unstopped(joint, "M", e) == mf.quantified_flow(joint, e, "M") == 2.0


def test_stopped_quantify_matches_unstopped_on_random_systems():
    systems = [random_system(seed) for seed in range(300)]
    systems += [random_noisy_system(seed) for seed in range(200)]
    for i, spec in enumerate(systems):
        joint = mf.enumerate_joint(spec)
        for m in joint.message_vars:
            for e, entry in mf.analyze(joint, m, quantify=True).entries.items():
                assert (entry.has_flow, entry.witness) == mf.edge_flow(joint, e, m), (i, e)
                want = _unstopped(joint, m, e)
                assert entry.quantified == pytest.approx(want, rel=1e-12, abs=0), (i, m, e)


@pytest.mark.parametrize("name", ["ce1", "ce3", "butterfly"])
def test_slices_are_canonical_whatever_the_column_order(joints, name):
    j = joints[name]
    rev = mf.DiscreteJoint(j.variables[::-1], [row[::-1] for row in j.rows], j.probs)
    rev.sources = j.sources
    for t in j.times():
        assert rev.edges_at(t) == tuple(sorted(rev.edges_at(t))) == j.edges_at(t)
    for quantify in (False, True):
        got = mf.analyze_messages(rev, quantify=quantify)
        want = mf.analyze_messages(j, quantify=quantify)
        assert reports_to_json(got) == reports_to_json(want)


def test_analyze_messages_warns_on_dependence(joints):
    with pytest.warns(DependentMessagesWarning):
        mf.analyze_messages(joints["mult-msg"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mf.analyze_messages(joints["butterfly"])  # independent pair: no warning


def test_analyze_messages_rejects_a_repeated_message(joints):
    # Two requests for M would collapse into one report.
    with pytest.raises(ValidationError, match=r"more than once: \['M', 'M'\]"):
        mf.analyze_messages(joints["ce1"], ["M", "M"])


def test_input_nodes(joints, fixtures):
    j = joints["ce1"]
    g = fixtures["ce1"].spec.graph
    assert mf.input_nodes(j, g) == frozenset({NodeRef("A", 0)})
    jb = joints["butterfly"]
    gb = fixtures["butterfly"].spec.graph
    assert mf.input_nodes(jb, gb, "M1") == frozenset({NodeRef("C", 0)})
    # output-defined message: the source of the active branch is the input
    jo = joints["output-msg"]
    go = fixtures["output-msg"].spec.graph
    assert mf.input_nodes(jo, go) == frozenset({NodeRef("A", 0)})


def test_gaussian_flow_report(sk_joint, fixtures):
    rep = mf.analyze(sk_joint, quantify=True)
    assert rep.engine == "gaussian"
    assert rep.flowing() == fixtures["sk"].expected_flow["M"]
    assert rep.entries[edge("A", 0, "B")].quantified == math.inf
    bob = [edge("B", 1, "A"), edge("B", 3, "A"), edge("B", 5, "A")]
    qs = [rep.entries[e].quantified for e in bob]
    assert qs[0] < qs[1] < qs[2]


def test_candidates_are_the_non_constant_edges_found_once_per_slice(joints, sk_joint):
    for j in (*joints.values(), sk_joint):
        for t in j.times():
            cands = j.candidates_at(t)
            assert cands == tuple(e for e in j.edges_at(t) if not j.is_constant(e))
            assert j.candidates_at(t) is cands
