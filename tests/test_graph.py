import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import msgflow
from msgflow import EdgeRef, NodeRef, ValidationError, unroll
from msgflow.graph import edge, edge_key


def test_complete_unroll_counts():
    g = unroll(("A", "B", "C"), 2)
    assert len(g.nodes) == 9
    assert len(g.edges) == 18
    assert len(g.edges_at(0)) == 9
    assert len(g.edges_at(1)) == 9


def test_single_node_unroll():
    g = unroll(("A",), 1)
    assert len(g.nodes) == 2
    assert g.edges == (edge("A", 0, "A"),)


def test_sparse_unroll_counts():
    g = unroll(("A", "B"), 3, adjacency=[("A", "B"), ("A", "A"), ("B", "B")])
    assert len(g.nodes) == 8
    assert len(g.edges) == 9
    assert not g.is_complete


def test_unroll_errors():
    with pytest.raises(ValidationError):
        unroll((), 2)
    with pytest.raises(ValidationError):
        unroll(("A", "A"), 2)
    with pytest.raises(ValidationError):
        unroll(("A",), 0)
    with pytest.raises(ValidationError):
        unroll(("A", "B"), 2, adjacency=[("A", "Z")])
    with pytest.raises(ValidationError):
        unroll(("A1",), 2)  # trailing digits would make node ids ambiguous


def test_incoming_fan_in():
    g = unroll(("A", "B", "C"), 2)
    assert g.incoming(NodeRef("B", 1)) == (
        edge("A", 0, "B"),
        edge("B", 0, "B"),
        edge("C", 0, "B"),
    )
    assert g.incoming(NodeRef("A", 0)) == ()


def test_incoming_respects_adjacency():
    g = unroll(("A", "B"), 1, adjacency=[("A", "B")])
    assert g.incoming(NodeRef("B", 1)) == (edge("A", 0, "B"),)
    assert g.incoming(NodeRef("A", 1)) == ()


def test_outgoing():
    g = unroll(("A", "B", "C"), 2)
    out = g.outgoing(NodeRef("C", 0))
    assert {e.dst.name for e in out} == {"A", "B", "C"}
    assert all(e.dst.time == 1 for e in out)
    assert g.outgoing(NodeRef("A", 2)) == ()
    assert edge("A", 1, "A") in g.outgoing(NodeRef("A", 1))


def test_sparse_adjacency_lists_are_sorted():
    # Nodes and adjacency listed in reverse order still give each node its
    # edges in canonical (sorted) order.
    names = ("C", "B", "A")
    adjacency = [(a, b) for a in names for b in names if a != b]
    g = unroll(names, 2, adjacency=adjacency)
    for v in g.nodes:
        assert g.incoming(v) == tuple(sorted(e for e in g.edges if e.dst == v))
        assert g.outgoing(v) == tuple(sorted(e for e in g.edges if e.src == v))
    assert g.incoming(NodeRef("B", 1)) == (edge("A", 0, "B"), edge("C", 0, "B"))
    assert g.outgoing(NodeRef("B", 1)) == (edge("B", 1, "A"), edge("B", 1, "C"))


def test_membership_and_errors():
    g = unroll(("A", "B"), 1)
    assert NodeRef("A", 1) in g
    assert NodeRef("Z", 0) not in g
    with pytest.raises(ValidationError):
        g.incoming(NodeRef("Z", 0))
    with pytest.raises(ValidationError):
        g.outgoing(NodeRef("A", 5))


def test_incoming_outgoing_partition():
    g = unroll(("A", "B", "C"), 3)
    for v in g.nodes:
        for e in g.edges:
            assert (e in g.incoming(v)) == (e.dst == v)
            assert (e in g.outgoing(v)) == (e.src == v)


def test_edges_at_union_is_edge_set():
    g = unroll(("A", "B", "C", "D"), 3)
    assert len(g.edges_at(0)) == 16
    union = {e for t in range(3) for e in g.edges_at(t)}
    assert union == set(g.edges)


def test_deterministic_iteration():
    g1 = unroll(("B", "A"), 2)
    g2 = unroll(("A", "B"), 2)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges
    assert g1.nodes == tuple(sorted(g1.nodes))


def test_edge_ref_validation_and_parse():
    with pytest.raises(ValidationError):
        EdgeRef(NodeRef("A", 0), NodeRef("B", 2))
    e = EdgeRef.parse("A0->B1")
    assert e == edge("A", 0, "B")
    assert str(e) == "A0->B1"
    assert NodeRef.parse("AB12") == NodeRef("AB", 12)
    with pytest.raises(ValidationError):
        NodeRef.parse("12")


def test_edge_ref_hash_survives_copies_and_pickles():
    e = edge("A", 0, "B")
    assert hash(e) == hash((e.src, e.dst))  # the dataclass's own value
    moved = dataclasses.replace(e, dst=NodeRef("C", 1))
    assert moved != e and hash(moved) == hash((NodeRef("A", 0), NodeRef("C", 1)))
    for same in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), dataclasses.replace(e)):
        assert same == e and hash(same) == hash(e) and same in {e}
    # A pickle written under another string hash seed gets this process's hash.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(Path(msgflow.__file__).parents[1])}
    code = ("import pickle, sys; from msgflow.graph import edge; "
            "sys.stdout.buffer.write(pickle.dumps(edge('A', 0, 'B')))")
    data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    loaded = pickle.loads(data)
    assert loaded == e and hash(loaded) == hash(e) and loaded in {e}


def test_edge_key_sorts_like_the_dataclass_order():
    import random

    rng = random.Random(4)
    names = ["A", "B", "Ab", "a", "_x", "AB"]
    edges = [edge(rng.choice(names), rng.randint(0, 12), rng.choice(names)) for _ in range(300)]
    assert sorted(edges, key=edge_key) == sorted(edges)
