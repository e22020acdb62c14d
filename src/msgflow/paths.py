"""Recovery of unbroken flow paths from input nodes to an output node.

The traversal walks backwards from the target along flow-carrying edges only,
layer by layer (edges always join consecutive times, so an explicit stack or
recursion is unnecessary), then marks validity forward: a node is valid when
some flow-carrying in-edge comes from a valid node, and the only nodes valid
by default are the inputs.  The subgraph of valid nodes and their flow edges
contains every input-to-target path whose edges all carry flow.

The dual check ``zero_information_cut`` certifies the negative case: when no
such path exists, the nodes flow-reachable from the sources, together with
their complement, form a cut whose crossing edges all lack flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import ModelViolationAtInput, NoPathFound, ValidationError
from .flow import FlowReport
from .graph import EdgeRef, NodeRef, UnrolledGraph


@dataclass(frozen=True)
class PathGraph:
    """All flow paths from the reached inputs to the target, as a subgraph.

    ``node_visits`` and ``edge_inspections`` instrument the traversal: visits
    count nodes whose in-edges were examined (at most |base nodes| * target
    time) and inspections count examined in-edges (at most |base edges| *
    target time).
    """

    nodes: frozenset[NodeRef]
    edges: frozenset[EdgeRef]
    root_inputs: frozenset[NodeRef]
    target: NodeRef
    node_visits: int
    edge_inspections: int


class PathList(NamedTuple):
    paths: tuple[tuple[NodeRef, ...], ...]
    truncated: bool


@dataclass(frozen=True)
class Cut:
    v_src: frozenset[NodeRef]
    v_sink: frozenset[NodeRef]

    def cut_set(self, graph: UnrolledGraph) -> tuple[EdgeRef, ...]:
        return tuple(
            e for e in graph.edges if e.src in self.v_src and e.dst in self.v_sink
        )


def find_info_paths(
    report: FlowReport,
    graph: UnrolledGraph,
    v_op: NodeRef,
    v_ip: Iterable[NodeRef],
) -> PathGraph:
    """All flow paths from ``v_ip`` to ``v_op``.

    Raises ModelViolationAtInput if the backward sweep reaches a time-0 node
    outside ``v_ip`` (a flow edge out of a non-input source contradicts the
    system model), and NoPathFound if the target ends up invalid.
    """
    v_ip = frozenset(v_ip)
    check_target(graph, v_op)
    if any(v.time != 0 for v in v_ip):
        raise ValidationError("input nodes must be at time 0")
    if any(v not in graph for v in v_ip):
        raise ValidationError("input nodes must belong to the graph")

    node_visits = 0
    edge_inspections = 0
    flow_parents: dict[NodeRef, tuple[EdgeRef, ...]] = {}
    layer: set[NodeRef] = {v_op}
    reached_by_time: dict[int, tuple[NodeRef, ...]] = {}
    for t in range(v_op.time, 0, -1):
        reached_by_time[t] = tuple(sorted(layer))
        nxt: set[NodeRef] = set()
        for v in reached_by_time[t]:
            node_visits += 1
            incoming = graph.incoming(v)
            edge_inspections += len(incoming)
            fp = tuple(e for e in incoming if report.has_flow(e))
            flow_parents[v] = fp
            nxt.update(e.src for e in fp)
        layer = nxt

    roots = tuple(sorted(layer))
    for v in roots:
        if v not in v_ip:
            raise ModelViolationAtInput(
                f"flow edges lead to {v}, a time-0 node outside the inputs"
            )

    valid: set[NodeRef] = set(roots)
    h_edges: set[EdgeRef] = set()
    for t in range(1, v_op.time + 1):
        for v in reached_by_time[t]:
            good = tuple(e for e in flow_parents[v] if e.src in valid)
            if good:
                valid.add(v)
                h_edges.update(good)
    if v_op not in valid:
        raise NoPathFound(f"no flow path reaches {v_op}")

    h_nodes = frozenset({v_op}) | frozenset(
        v for e in h_edges for v in (e.src, e.dst)
    )
    return PathGraph(
        nodes=h_nodes,
        edges=frozenset(h_edges),
        root_inputs=frozenset(roots) & h_nodes,
        target=v_op,
        node_visits=node_visits,
        edge_inspections=edge_inspections,
    )


def check_target(graph: UnrolledGraph, v_op: NodeRef) -> None:
    """A path target must be a node of the graph at time 1 or later."""
    if v_op not in graph:
        raise ValidationError(f"target {v_op} not in graph")
    if v_op.time < 1:
        raise ValidationError("target must be at time >= 1")


def check_limit(limit: int) -> None:
    if limit < 0:
        raise ValidationError(f"limit must be at least 0, got {limit}")


def enumerate_paths(h: PathGraph, limit: int = 10_000) -> PathList:
    """Flatten the path graph into explicit node sequences, lexicographically.

    Truncates after ``limit`` paths and says so in the flag.
    """
    check_limit(limit)
    succ: dict[NodeRef, list[NodeRef]] = {}
    for e in h.edges:
        succ.setdefault(e.src, []).append(e.dst)
    for v in succ:
        succ[v].sort()
    out: list[tuple[NodeRef, ...]] = []
    truncated = False

    def walk(v: NodeRef, trail: list[NodeRef]) -> bool:
        if v == h.target:
            if len(out) >= limit:
                return False
            out.append(tuple(trail))
            return True
        for w in succ.get(v, ()):
            if not walk(w, trail + [w]):
                return False
        return True

    for root in sorted(h.root_inputs):
        if not walk(root, [root]):
            truncated = True
            break
    return PathList(tuple(out), truncated)


def zero_information_cut(
    report: FlowReport,
    graph: UnrolledGraph,
    sources: Iterable[NodeRef],
    sinks: Iterable[NodeRef],
) -> Optional[Cut]:
    """The constructive cut dual to path absence.

    Returns None when a flow path from ``sources`` to ``sinks`` exists.
    Otherwise returns the cut (flow-reachable closure of the sources, rest)
    after certifying that every crossing edge lacks flow.
    """
    a = frozenset(sources)
    b = frozenset(sinks)
    if not a or not b:
        raise ValidationError("both node sets must be non-empty")
    if a & b:
        raise ValidationError("source and sink sets overlap")
    for v in a | b:
        if v not in graph:
            raise ValidationError(f"node {v} not in graph")

    reach: set[NodeRef] = set(a)
    frontier = set(a)
    while frontier:
        nxt: set[NodeRef] = set()
        for v in frontier:
            for e in graph.outgoing(v):
                if e in report.entries and report.has_flow(e) and e.dst not in reach:
                    nxt.add(e.dst)
        reach |= nxt
        frontier = nxt
    if reach & b:
        return None
    v_src = frozenset(reach)
    v_sink = frozenset(graph.nodes) - v_src
    cut = Cut(v_src=v_src, v_sink=v_sink)
    for e in cut.cut_set(graph):
        if e in report.entries and report.has_flow(e):
            raise ValidationError(f"internal error: crossing edge {e} carries flow")
    return cut
