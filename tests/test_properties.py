"""System-level invariants checked over seeded random systems."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import msgflow as mf
from msgflow import ModelViolationAtInput, NoPathFound
from msgflow import flow
from randsys import random_noisy_system, random_system
from reference import set_answers, unpruned


def _flags(joint):
    return {
        t: {e: mf.edge_flow(joint, e)[0] for e in joint.edges_at(t)}
        for t in joint.times()
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_flow_never_reappears_after_vanishing(seed):
    # Once a time slice carries no flow at all, no later slice may either.
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    flags = _flags(joint)
    times = sorted(flags)
    dead = None
    for t in times:
        if not any(flags[t].values()):
            dead = t
            break
    if dead is not None:
        for t in times:
            if t > dead:
                assert not any(flags[t].values()), (seed, dead, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_slice_flow_iff_slice_dependence(seed):
    # No edge in a slice carries flow exactly when the whole slice is
    # independent of the message.
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    flags = _flags(joint)
    for t, per_edge in flags.items():
        slice_dependent = joint.dependent(["M"], list(joint.edges_at(t)))
        assert any(per_edge.values()) == slice_dependent, (seed, t)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_set_flow_equals_member_flow(seed):
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    rng = random.Random(seed)
    for t in joint.times():
        edges = [e for e in joint.edges_at(t) if not joint.is_constant(e)]
        flags = {e: mf.edge_flow(joint, e)[0] for e in edges}
        subsets = [
            sub
            for k in (1, 2, 3)
            for sub in itertools.combinations(edges, k)
        ]
        if len(subsets) > 30:
            subsets = rng.sample(subsets, 30)
        for sub in subsets:
            assert mf.set_flow(joint, list(sub)) == any(flags[e] for e in sub)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_verdict_characterization(seed):
    # (a) marginal dependence forces a flow verdict; (b) if conditioning on
    # the edge raises some subset's information, the edge carries flow;
    # (c) a no-flow verdict means every conditioning subset shows exact
    # independence.
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    rng = random.Random(seed + 13)
    for t in joint.times():
        candidates = [e for e in joint.edges_at(t) if not joint.is_constant(e)]
        for e in joint.edges_at(t):
            has, _ = mf.edge_flow(joint, e)
            if joint.dependent(["M"], [e]):
                assert has, (seed, e, "a")
            others = [x for x in candidates if x != e]
            subsets = [
                sub
                for k in range(len(others) + 1)
                for sub in itertools.combinations(others, k)
            ]
            if len(subsets) > 16:
                subsets = rng.sample(subsets, 16)
            for sub in subsets:
                if not sub:
                    continue
                gain = joint.cmi(["M"], list(sub), [e]) - joint.cmi(["M"], list(sub))
                if gain > 1e-9:
                    assert has, (seed, e, sub, "b")
            if not has:
                assert all(
                    not joint.dependent(["M"], [e], list(sub)) for sub in subsets
                ), (seed, e, "c")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_path_existence_and_cut_duality(seed):
    spec = random_system(seed)
    g = spec.graph
    joint = mf.enumerate_joint(spec)
    report = mf.analyze(joint)
    v_ip = mf.input_nodes(joint, g)
    for t in range(1, g.horizon + 1):
        for v in g.nodes_at(t):
            outgoing = list(g.outgoing(v))
            must_reach = bool(outgoing) and joint.dependent(["M"], outgoing)
            try:
                mf.find_info_paths(report, g, v, v_ip)
                reached = True
            except NoPathFound:
                reached = False
            except ModelViolationAtInput:
                pytest.fail(f"model violation on a well-formed system (seed {seed})")
            if must_reach:
                assert reached, (seed, v)
            cut = mf.zero_information_cut(report, g, v_ip, [v]) if v_ip else None
            if v_ip:
                assert (cut is None) == reached, (seed, v)
                if cut is not None:
                    assert all(not report.has_flow(e) for e in cut.cut_set(g))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_local_markov_on_node_subsets(seed):
    spec = random_system(seed)
    g = spec.graph
    joint = mf.enumerate_joint(spec)
    rng = random.Random(seed + 7)
    for t in range(1, g.horizon):
        nodes = list(g.nodes_at(t))
        subsets = [
            sub for k in (1, 2, 3) for sub in itertools.combinations(nodes, k)
        ]
        if len(subsets) > 10:
            subsets = rng.sample(subsets, 10)
        for sub in subsets:
            p = [e for v in sub for e in g.incoming(v)]
            q = [e for v in sub for e in g.outgoing(v)]
            if q:
                assert mf.markov_holds(joint, ["M"], p, q), (seed, sub)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_separability_verifies_on_random_slices(seed):
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    for t in joint.times():
        r, s = mf.separability_partition(joint, t)  # raises on violation
        assert r | s == frozenset(joint.edges_at(t))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_quantified_zero_iff_no_flow_random(seed):
    spec = random_system(seed)
    joint = mf.enumerate_joint(spec)
    rng = random.Random(seed + 3)
    edges = [e for t in joint.times() for e in joint.edges_at(t)]
    for e in rng.sample(edges, min(6, len(edges))):
        has, _ = mf.edge_flow(joint, e)
        assert has == (mf.quantified_flow(joint, e) > 0)


def test_pruned_search_matches_unpruned_on_noisy_systems():
    # Verdicts, witnesses and the answers about edge sets are equal.  The
    # maximum information is equal in exact arithmetic; the unpruned search
    # may take it at a superset of the pruned argmax, whose equal value
    # rounds a few ulps higher.
    pruned = pruned_pairs = 0
    for seed in range(200):
        joint = mf.enumerate_joint(random_noisy_system(seed))
        ref = unpruned(joint)
        for t in joint.times():
            for e in joint.edges_at(t):
                alone = frozenset([e])
                pruned += len(flow._component(joint, [e], alone)) < len(
                    flow._component(ref, [e], alone)
                )
            for pair in itertools.combinations(sorted(joint.edges_at(t)), 2):
                pruned_pairs += len(flow._component(joint, pair)) < len(
                    flow._component(ref, pair)
                )
        for m in joint.message_vars:
            want = mf.analyze(ref, m, quantify=True).entries
            got = mf.analyze(joint, m, quantify=True).entries
            for e, entry in want.items():
                verdict = (entry.has_flow, entry.witness)
                assert (got[e].has_flow, got[e].witness) == verdict, (seed, m, e)
                assert mf.edge_flow(joint, e, m) == verdict, (seed, m, e)
                q = got[e].quantified
                assert q <= entry.quantified, (seed, m, e)
                assert q == pytest.approx(entry.quantified, rel=1e-12, abs=0), (seed, m, e)
            assert set_answers(joint, m) == set_answers(ref, m), (seed, m)
    assert pruned > 1000 and pruned_pairs > 1000  # the generator exercises the pruning


def test_pruned_set_search_matches_unpruned_on_random_systems():
    for seed in range(300):
        joint = mf.enumerate_joint(random_system(seed))
        assert set_answers(joint, "M") == set_answers(unpruned(joint), "M"), seed
