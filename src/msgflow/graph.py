"""Time-unrolled directed graphs.

A base directed graph over named nodes (complete by default, self-edges
included) is unrolled over a finite horizon: one copy of every node per time
index, with edges only between consecutive times.  A self-edge in the base
graph becomes the channel through which a node carries state from one time
step to the next.

Node and edge refs are symbolic, so that analysis output stays
human-readable, and are ``tuple`` subclasses, ``(name, time)`` and
``(src, dst)``, so that the hashing, equality and ordering that key every
layer's work run in C; edges sort by ``(src.name, src.time, dst.name,
dst.time)``.  A ref equals the plain tuple of its fields.  No container mixes
the two (an edge's sources are ``NodeRef``s and a multi-component message's
tuple of component names, which no ``(str, int)`` pair equals), and output
calls ``str`` on a ref: ``json`` would write it as a list.  Graphs are
immutable after construction and safe to share between concurrent readers.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Optional

from .errors import ValidationError

_NODE_ID = re.compile(r"^([A-Za-z_][A-Za-z_]*)(\d+)$")


class NodeRef(tuple):
    """A node of the unrolled graph, ``(name, time)``: a base-node name at a time index."""

    __slots__ = ()

    def __new__(cls, name: str, time: int) -> "NodeRef":
        return tuple.__new__(cls, (name, time))

    name = property(itemgetter(0), doc="The base-node name.")
    time = property(itemgetter(1), doc="The time index.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"NodeRef(name={self.name!r}, time={self.time!r})"

    def __str__(self) -> str:
        return f"{self.name}{self.time}"

    @staticmethod
    def parse(text: str) -> "NodeRef":
        m = _NODE_ID.match(text)
        if not m:
            raise ValidationError(
                f"node id {text!r} must be a name (no trailing digits) followed by a time index"
            )
        return NodeRef(m.group(1), int(m.group(2)))


class EdgeRef(tuple):
    """A directed edge ``(src, dst)`` between nodes at consecutive times."""

    __slots__ = ()

    def __new__(cls, src: NodeRef, dst: NodeRef) -> "EdgeRef":
        if dst.time != src.time + 1:
            raise ValidationError(f"edge {src}->{dst} must connect consecutive times")
        return tuple.__new__(cls, (src, dst))

    src = property(itemgetter(0), doc="The source node, at time t.")
    dst = property(itemgetter(1), doc="The destination node, at time t+1.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"EdgeRef(src={self.src!r}, dst={self.dst!r})"

    time = property(lambda self: self[0][1], doc="The time slice of the edge (its source's).")

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"

    @staticmethod
    def parse(text: str) -> "EdgeRef":
        parts = text.split("->")
        if len(parts) != 2:
            raise ValidationError(f"edge id {text!r} must look like 'A0->B1'")
        return EdgeRef(NodeRef.parse(parts[0]), NodeRef.parse(parts[1]))


def edge(src_name: str, t: int, dst_name: str) -> EdgeRef:
    """Shorthand for the edge from ``src_name`` at time ``t`` to ``dst_name`` at ``t+1``."""
    return EdgeRef(NodeRef(src_name, t), NodeRef(dst_name, t + 1))


class UnrolledGraph:
    """A base graph unrolled over times ``0..horizon``.

    ``adjacency`` restricts the base edge set; ``None`` means the complete
    graph including all self-edges.  Absent base edges are simply not present
    at any time slice (systems treat them as carrying the constant 0).
    """

    def __init__(
        self,
        node_names: Iterable[str],
        horizon: int,
        adjacency: Optional[Iterable[tuple[str, str]]] = None,
    ) -> None:
        names = tuple(node_names)
        if not names:
            raise ValidationError("node list must not be empty")
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate node names in {names!r}")
        for n in names:
            if _NODE_ID.match(n + "0") is None or n[-1].isdigit():
                raise ValidationError(
                    f"node name {n!r} must be alphabetic/underscore (times are appended as digits)"
                )
        if horizon < 1:
            raise ValidationError("horizon must be a positive integer")
        complete = frozenset((a, b) for a in names for b in names)
        base = complete if adjacency is None else frozenset(tuple(p) for p in adjacency)
        for a, b in base - complete:
            raise ValidationError(f"adjacency edge ({a},{b}) uses unknown node")
        self._complete = base == complete
        self.node_names: tuple[str, ...] = tuple(sorted(names))
        self.horizon: int = horizon
        self.base_edges: frozenset[tuple[str, str]] = base

        self._nodes = tuple(
            NodeRef(n, t) for n in self.node_names for t in range(horizon + 1)
        )
        self._edges_at = tuple(
            tuple(EdgeRef(NodeRef(a, t), NodeRef(b, t + 1)) for a, b in sorted(base))
            for t in range(horizon)
        )
        self._edges = tuple(sorted(e for es in self._edges_at for e in es))
        self._members = frozenset(self._nodes + self._edges)
        # Built by walking the sorted edges, so each list is sorted too.
        inc: dict[NodeRef, list[EdgeRef]] = {v: [] for v in self._nodes}
        out: dict[NodeRef, list[EdgeRef]] = {v: [] for v in self._nodes}
        for e in self._edges:
            inc[e.dst].append(e)
            out[e.src].append(e)
        self._incoming = {v: tuple(es) for v, es in inc.items()}
        self._outgoing = {v: tuple(es) for v, es in out.items()}

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def nodes(self) -> tuple[NodeRef, ...]:
        """All unrolled nodes, sorted by (name, time)."""
        return self._nodes

    @property
    def edges(self) -> tuple[EdgeRef, ...]:
        """All unrolled edges, sorted by (src, dst)."""
        return self._edges

    def nodes_at(self, t: int) -> tuple[NodeRef, ...]:
        if not 0 <= t <= self.horizon:
            raise ValidationError(f"time {t} outside 0..{self.horizon}")
        return tuple(NodeRef(n, t) for n in self.node_names)

    def edges_at(self, t: int) -> tuple[EdgeRef, ...]:
        """Outgoing edges of time slice ``t`` (empty only past the horizon)."""
        if not 0 <= t < self.horizon:
            raise ValidationError(f"edge time {t} outside 0..{self.horizon - 1}")
        return self._edges_at[t]

    def __contains__(self, item) -> bool:
        """Whether ``item`` is a node or an edge of the graph (a plain tuple is neither)."""
        return isinstance(item, (NodeRef, EdgeRef)) and item in self._members

    def _require_node(self, v: NodeRef) -> None:
        if not isinstance(v, NodeRef) or v not in self._members:
            raise ValidationError(f"node {v} not in graph")

    def incoming(self, v: NodeRef) -> tuple[EdgeRef, ...]:
        """Edges entering ``v``; empty iff v.time == 0 (or v has no in-neighbors)."""
        self._require_node(v)
        return self._incoming[v]

    def outgoing(self, v: NodeRef) -> tuple[EdgeRef, ...]:
        """Edges leaving ``v``; empty iff v.time == horizon (or v has no out-neighbors)."""
        self._require_node(v)
        return self._outgoing[v]


def unroll(
    node_names: Iterable[str],
    horizon: int,
    adjacency: Optional[Iterable[tuple[str, str]]] = None,
) -> UnrolledGraph:
    """Unroll a base graph over ``horizon`` time steps."""
    return UnrolledGraph(node_names, horizon, adjacency)
