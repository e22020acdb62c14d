"""Time-unrolled directed graphs.

A base directed graph over named nodes (complete by default, self-edges
included) is unrolled over a finite horizon: one copy of every node per time
index, with edges only between consecutive times.  A self-edge in the base
graph becomes the channel through which a node carries state from one time
step to the next.

Node and edge identity is symbolic, ``(name, time)`` pairs, so that analysis
output stays human-readable.  Graphs are immutable after construction and safe
to share between concurrent readers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ValidationError

_NODE_ID = re.compile(r"^([A-Za-z_][A-Za-z_]*)(\d+)$")


@dataclass(frozen=True, order=True)
class NodeRef:
    """A node of the unrolled graph: a base-node name at a time index."""

    name: str
    time: int

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


@dataclass(frozen=True, order=True)
class EdgeRef:
    """A directed edge between nodes at consecutive times.

    Edges key every column lookup and source set, so the hash is computed
    once, as the value the dataclass would return, ``hash((src, dst))``;
    set and dict order is therefore the same as without the cache.  A
    pickle stores only ``(src, dst)``, so a process with another string
    hash seed recomputes it.
    """

    src: NodeRef
    dst: NodeRef

    def __post_init__(self) -> None:
        if self.dst.time != self.src.time + 1:
            raise ValidationError(
                f"edge {self.src}->{self.dst} must connect consecutive times"
            )
        object.__setattr__(self, "_hash", hash((self.src, self.dst)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return EdgeRef, (self.src, self.dst)

    @property
    def time(self) -> int:
        """The time slice the edge belongs to (the time of its source)."""
        return self.src.time

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"

    @staticmethod
    def parse(text: str) -> "EdgeRef":
        parts = text.split("->")
        if len(parts) != 2:
            raise ValidationError(f"edge id {text!r} must look like 'A0->B1'")
        return EdgeRef(NodeRef.parse(parts[0]), NodeRef.parse(parts[1]))


def edge_key(e: EdgeRef) -> tuple:
    """The sort key of an edge, for ``sorted(..., key=edge_key)``: the same
    order as the dataclass comparison, at a fraction of its cost."""
    return (e.src.name, e.src.time, e.dst.name, e.dst.time)


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
        name_set = set(names)
        if adjacency is None:
            base = frozenset((a, b) for a in names for b in names)
            self._complete = True
        else:
            base = frozenset(tuple(p) for p in adjacency)
            for a, b in base:
                if a not in name_set or b not in name_set:
                    raise ValidationError(f"adjacency edge ({a},{b}) uses unknown node")
            self._complete = base == frozenset((a, b) for a in names for b in names)
        self.node_names: tuple[str, ...] = tuple(sorted(names))
        self.horizon: int = horizon
        self.base_edges: frozenset[tuple[str, str]] = base

        self._nodes = tuple(
            NodeRef(n, t) for n in self.node_names for t in range(horizon + 1)
        )
        per_time = []
        for t in range(horizon):
            per_time.append(
                tuple(
                    EdgeRef(NodeRef(a, t), NodeRef(b, t + 1))
                    for a, b in sorted(base)
                )
            )
        self._edges_at = tuple(per_time)
        self._edges = tuple(sorted((e for es in per_time for e in es), key=edge_key))
        self._node_set = frozenset(self._nodes)
        self._edge_set = frozenset(self._edges)
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
        if isinstance(item, NodeRef):
            return item in self._node_set
        if isinstance(item, EdgeRef):
            return item in self._edge_set
        return False

    def _require_node(self, v: NodeRef) -> None:
        if v not in self._node_set:
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
