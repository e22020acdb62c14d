"""Derivedness, redundancy, Markov-chain checks, and hidden-node alarms.

A transmission (set) is *derived* from another when it adds nothing about the
message beyond it — an exact conditional-independence statement, so these
checks live on the exact engines only.

When some base nodes are unobserved, the observed slice-to-slice Markov chain
can break; that breakage certifies that the hidden nodes at that time carry
message information not explained by what is visible.  The converse fails in
both directions, which the fixtures reproduce: a relevant hidden node whose
transmission is ignored raises no alarm, and a hidden transmission masked by
a redundant observed copy raises no global alarm (though a per-node check may
still catch it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .discrete import VarId
from .errors import ValidationError
from .flow import Joint, edge_flows
from .graph import EdgeRef, NodeRef, UnrolledGraph


def is_derived(
    joint: Joint,
    q_edges: Sequence[EdgeRef],
    p_edges: Sequence[EdgeRef],
    message: Optional[str] = None,
) -> bool:
    """True when the transmissions on ``q_edges`` add nothing about the message
    beyond those on ``p_edges`` (the chain message — P — Q holds).

    The two edge sets may live at arbitrary, different times and may overlap;
    shared edges are conditioned away.
    """
    return derived_ask(joint, q_edges, p_edges, message) is None


def derived_ask(joint: Joint, q_edges, p_edges, message: Optional[str] = None):
    """``is_derived``'s one ``ask`` of I(M; Q | P): None when Q is derived."""
    m = joint.default_message(message)
    q = tuple(q_edges)
    p = tuple(p_edges)
    if not q or not p:
        raise ValidationError("both edge sets must be non-empty")
    for e in q + p:
        if not joint.has_var(e):
            raise ValidationError(f"unknown edge {e}")
    targets = [e for e in q if e not in set(p)]
    if not targets:
        return None
    return joint.ask([m], targets, list(dict.fromkeys(p)))


def redundancy_pairs(
    joint: Joint,
    t: int,
    message: Optional[str] = None,
) -> list[frozenset[EdgeRef]]:
    """Unordered pairs of flowing edges at time ``t`` that are mutually derived.

    Mutual derivedness is the observational signature of a redundant
    transmission pair: each one exhausts the other's message content.
    """
    m = joint.default_message(message)
    flags = edge_flows(joint, joint.edges_at(t), m)
    flowing = [e for e, (has_flow, _) in flags.items() if has_flow]
    out: list[frozenset[EdgeRef]] = []
    for i, p in enumerate(flowing):
        for q in flowing[i + 1 :]:
            if is_derived(joint, [q], [p], m) and is_derived(joint, [p], [q], m):
                out.append(frozenset((p, q)))
    return out


def markov_holds(
    joint: Joint,
    a_vars: Sequence[VarId],
    b_vars: Sequence[VarId],
    c_vars: Sequence[VarId],
) -> bool:
    """True when A — B — C forms a Markov chain, i.e. I(A; C | B) = 0 exactly."""
    if not a_vars or not c_vars:
        return True
    return not joint.dependent(list(a_vars), list(c_vars), list(b_vars))


@dataclass(frozen=True)
class ObservationMask:
    """Base nodes hidden at every time; edges touching them are unobserved."""

    hidden_names: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "hidden_names", frozenset(self.hidden_names))

    def validate(self, graph: UnrolledGraph) -> None:
        unknown = self.hidden_names - set(graph.node_names)
        if unknown:
            raise ValidationError(f"hidden names not in graph: {sorted(unknown)}")
        if self.hidden_names >= set(graph.node_names):
            raise ValidationError("cannot hide every node")

    def observes_node(self, v: NodeRef) -> bool:
        return v.name not in self.hidden_names

    def observes_edge(self, e: EdgeRef) -> bool:
        return self.observes_node(e.src) and self.observes_node(e.dst)

    def observed_edges(self, graph: UnrolledGraph, t: int) -> tuple[EdgeRef, ...]:
        return tuple(e for e in graph.edges_at(t) if self.observes_edge(e))


def hidden_ask(joint: Joint, graph, mask, t: int, message: Optional[str] = None):
    """The hidden-node alarm's one ``ask`` of I(M; observed t+1 | observed t),
    after the mask, time and empty-slice checks: None when the chain holds."""
    m = joint.default_message(message)
    mask.validate(graph)
    if not (0 <= t < graph.horizon - 1):
        raise ValidationError(f"alarm time {t} outside 0..{graph.horizon - 2}")
    now = mask.observed_edges(graph, t)
    nxt = mask.observed_edges(graph, t + 1)
    if not now or not nxt:
        raise ValidationError(f"mask hides every edge at time {t} or {t + 1}")
    return joint.ask([m], list(nxt), list(now))


def hidden_node_alarm(
    joint: Joint,
    graph: UnrolledGraph,
    mask: ObservationMask,
    t: int,
    message: Optional[str] = None,
) -> bool:
    """True when the observed slice-to-slice chain breaks from ``t`` to ``t+1``.

    A breakage certifies that the hidden nodes at time ``t`` transmit message
    information the observed slice does not account for.
    """
    return hidden_ask(joint, graph, mask, t, message) is not None


def hidden_alarm_value(
    joint: Joint,
    graph: UnrolledGraph,
    mask: ObservationMask,
    t: int,
    message: Optional[str] = None,
) -> float:
    """The violating conditional information in bits (0 when the chain holds)."""
    bits = hidden_ask(joint, graph, mask, t, message)
    return 0.0 if bits is None else bits()[0]


def local_markov_violations(
    joint: Joint,
    graph: UnrolledGraph,
    mask: ObservationMask,
    t: int,
    message: Optional[str] = None,
) -> frozenset[NodeRef]:
    """Observed nodes at time ``t+1`` whose observed in-edges fail to explain
    their out-edges' message content.

    With nothing hidden this set is always empty (node computations make the
    chain hold at every node); a non-empty set therefore points at a hidden
    influence entering the named nodes, even when the global alarm is silent.
    """
    m = joint.default_message(message)
    mask.validate(graph)
    if not (0 <= t < graph.horizon - 1):
        raise ValidationError(f"time {t} outside 0..{graph.horizon - 2}")
    out = []
    for v in graph.nodes_at(t + 1):
        if not mask.observes_node(v):
            continue
        p_obs = [e for e in graph.incoming(v) if mask.observes_edge(e)]
        q_obs = [e for e in graph.outgoing(v) if mask.observes_edge(e)]
        if q_obs and joint.dependent([m], q_obs, p_obs):
            out.append(v)
    return frozenset(out)
