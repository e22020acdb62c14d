"""Per-edge message-flow verdicts.

An edge carries flow about a message when some same-time conditioning subset
of the other edges makes its transmission conditionally dependent on the
message.  The subset search runs in increasing cardinality with ties broken
by canonical edge order, so the stored witness is a minimal one and the whole
analysis is deterministic.

Three weaker tests (marginal dependence; conditioning on single edges;
conditioning on all other edges) are kept available as ``candidate_flow`` —
they are the natural first attempts, and each one misses synergy-coded
transmissions that the subset-search definition catches.

Conditioning candidates are filtered to non-constant transmissions
(conditioning on a constant changes nothing) and capped; systems denser than
the cap raise instead of silently degrading.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    DependentMessagesWarning,
    InvariantViolation,
    SearchSpaceError,
    ValidationError,
)
from .discrete import DiscreteJoint
from .gaussian import GaussianJoint
from .graph import EdgeRef, NodeRef, UnrolledGraph

Joint = DiscreteJoint | GaussianJoint

DEFAULT_MAX_CANDIDATES = 20


@dataclass(frozen=True)
class FlowEntry:
    edge: EdgeRef
    has_flow: bool
    witness: Optional[tuple[EdgeRef, ...]] = None
    quantified: Optional[float] = None
    p_values: Optional[tuple] = None  # sampled engine only, as are the fields below
    level: Optional[float] = None  # the Bonferroni level of each test
    n_tests_planned: Optional[int] = None
    replicates: Optional[int] = None  # permutation replicates drawn per test


@dataclass
class FlowReport:
    """Per-edge verdicts for one message, plus the per-time partition."""

    message: str
    engine: str
    entries: dict[EdgeRef, FlowEntry] = field(default_factory=dict)

    def has_flow(self, e: EdgeRef) -> bool:
        if e not in self.entries:
            raise ValidationError(f"edge {e} not covered by this report")
        return self.entries[e].has_flow

    def flowing(self, t: Optional[int] = None) -> frozenset[EdgeRef]:
        return frozenset(
            e
            for e, entry in self.entries.items()
            if entry.has_flow and (t is None or e.time == t)
        )

    def partition(self, t: int) -> tuple[frozenset[EdgeRef], frozenset[EdgeRef]]:
        """(flowing, non-flowing) edges at time t; a disjoint cover of the slice."""
        edges = [e for e in self.entries if e.time == t]
        r = frozenset(e for e in edges if self.entries[e].has_flow)
        return r, frozenset(edges) - r

    def times(self) -> tuple[int, ...]:
        return tuple(sorted({e.time for e in self.entries}))


def _candidates(
    joint: Joint,
    t: int,
    exclude: frozenset[EdgeRef] = frozenset(),
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[EdgeRef, ...]:
    cands = tuple(
        e
        for e in sorted(joint.edges_at(t))
        if e not in exclude and not joint.is_constant(e)
    )
    if len(cands) > max_candidates:
        raise SearchSpaceError(
            f"{len(cands)} conditioning candidates at t={t} exceed the cap of "
            f"{max_candidates}; raise max_candidates explicitly to proceed"
        )
    return cands


def _subsets(cands: Sequence[EdgeRef]):
    for k in range(len(cands) + 1):
        yield from itertools.combinations(cands, k)


def edge_flow(
    joint: Joint,
    edge: EdgeRef,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[bool, Optional[tuple[EdgeRef, ...]]]:
    """Flow verdict for one edge, with the first (minimal) witness found."""
    m = joint.default_message(message)
    if not joint.has_var(edge):
        raise ValidationError(f"edge {edge} absent from joint")
    if joint.is_constant(edge):
        return False, None
    cands = _candidates(joint, edge.time, frozenset([edge]), max_candidates)
    for sub in _subsets(cands):
        if joint.dependent([m], [edge], list(sub)):
            return True, sub
    return False, None


def set_flow(
    joint: Joint,
    edges: Sequence[EdgeRef],
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> bool:
    """Flow verdict for a set of same-time edges (conditioning may overlap the set)."""
    m = joint.default_message(message)
    edges = tuple(edges)
    if not edges:
        return False
    times = {e.time for e in edges}
    if len(times) > 1:
        raise ValidationError("set_flow needs edges at a common time")
    (t,) = times
    for e in edges:
        if not joint.has_var(e):
            raise ValidationError(f"edge {e} absent from joint")
    cands = _candidates(joint, t, frozenset(), max_candidates)
    for sub in _subsets(cands):
        targets = [e for e in edges if e not in sub]
        if targets and joint.dependent([m], targets, list(sub)):
            return True
    return False


def candidate_flow(
    joint: Joint,
    edge: EdgeRef,
    which: int,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> bool:
    """The three rejected, weaker flow tests (1: marginal; 2: single-edge
    conditioning; 3: conditioning on all other edges)."""
    m = joint.default_message(message)
    if not joint.has_var(edge):
        raise ValidationError(f"edge {edge} absent from joint")
    if which not in (1, 2, 3):
        raise ValidationError(f"candidate id must be 1, 2 or 3, got {which!r}")
    if joint.is_constant(edge):
        return False
    if joint.dependent([m], [edge]):
        return True
    if which == 1:
        return False
    others = _candidates(joint, edge.time, frozenset([edge]), max_candidates)
    if which == 2:
        return any(joint.dependent([m], [edge], [o]) for o in others)
    return bool(others) and joint.dependent([m], [edge], list(others))


def quantified_flow(
    joint: Joint,
    edge: EdgeRef,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> float:
    """Maximum subset-conditioned information in bits; 0 iff the edge has no flow.

    May be ``inf`` in the gaussian regime when the message is exactly
    recoverable given the witness.
    """
    m = joint.default_message(message)
    if not joint.has_var(edge):
        raise ValidationError(f"edge {edge} absent from joint")
    if joint.is_constant(edge):
        return 0.0
    cands = _candidates(joint, edge.time, frozenset([edge]), max_candidates)
    best = 0.0
    for sub in _subsets(cands):
        if joint.dependent([m], [edge], list(sub)):
            best = max(best, joint.cmi([m], [edge], list(sub)))
            if math.isinf(best):
                break
    return best


def separability_partition(
    joint: Joint,
    t: int,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    exhaustive_limit: int = 12,
    n_samples: int = 200,
    seed: int = 0,
) -> tuple[frozenset[EdgeRef], frozenset[EdgeRef]]:
    """Split the time slice into flowing / non-flowing edges and verify both sides.

    Every flowing edge must find a witness *inside* the flowing set, and the
    non-flowing set must stay independent of the message under any same-time
    conditioning — exhaustively when at most ``exhaustive_limit`` candidates
    remain after constant filtering, by random subsets above that.
    """
    import random

    m = joint.default_message(message)
    edges = tuple(sorted(joint.edges_at(t)))
    if not edges:
        raise ValidationError(f"no edges at time {t}")
    flags = {
        e: edge_flow(joint, e, m, max_candidates=max_candidates)[0] for e in edges
    }
    r_set = frozenset(e for e in edges if flags[e])
    s_set = frozenset(edges) - r_set

    for e in sorted(r_set):
        inside = tuple(x for x in sorted(r_set) if x != e and not joint.is_constant(x))
        if not any(
            joint.dependent([m], [e], list(sub)) for sub in _subsets(inside)
        ):
            raise InvariantViolation(
                f"flowing edge {e} has no witness inside the flowing set at t={t}"
            )

    s_targets = [e for e in sorted(s_set) if not joint.is_constant(e)]
    if s_targets:
        cands = _candidates(joint, t, frozenset(), max_candidates)
        if len(cands) <= exhaustive_limit:
            subsets = _subsets(cands)
        else:
            rng = random.Random(seed)
            small = [s for s in _subsets(cands) if len(s) <= 2]
            sampled = [
                tuple(sorted(rng.sample(cands, rng.randint(3, len(cands)))))
                for _ in range(n_samples)
            ]
            subsets = small + sampled
        for sub in subsets:
            targets = [e for e in s_targets if e not in sub]
            if targets and joint.dependent([m], targets, list(sub)):
                raise InvariantViolation(
                    f"non-flowing set at t={t} depends on the message given {sub}"
                )
    return r_set, s_set


def find_orphans(report: FlowReport, graph: UnrolledGraph) -> frozenset[NodeRef]:
    """Nodes (t >= 1) whose outgoing edges carry flow while no incoming edge does.

    Uses the set/member equivalence: a set of edges carries flow exactly when
    one of its members does.
    """
    orphans = []
    for v in graph.nodes:
        if v.time == 0 or v.time >= graph.horizon:
            continue
        outgoing = [e for e in graph.outgoing(v) if e in report.entries]
        incoming = [e for e in graph.incoming(v) if e in report.entries]
        if any(report.entries[e].has_flow for e in outgoing) and not any(
            report.entries[e].has_flow for e in incoming
        ):
            orphans.append(v)
    return frozenset(orphans)


def analyze(
    joint: Joint,
    message: Optional[str] = None,
    quantify: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> FlowReport:
    """Run the detector over every edge of the joint for one message."""
    m = joint.default_message(message)
    engine = "gaussian" if isinstance(joint, GaussianJoint) else "exact"
    report = FlowReport(message=m, engine=engine)
    for t in joint.times():
        for e in sorted(joint.edges_at(t)):
            has, witness = edge_flow(joint, e, m, max_candidates=max_candidates)
            q = None
            if quantify:
                q = quantified_flow(joint, e, m, max_candidates=max_candidates)
            report.entries[e] = FlowEntry(e, has, witness, q)
    return report


def analyze_messages(
    joint: Joint,
    messages: Optional[Sequence[str]] = None,
    quantify: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> dict[str, FlowReport]:
    """One report per message against the same joint.

    Dependent message pairs are analyzed as-is but flagged with a warning,
    since each one's flow then also traces the other's.
    """
    names = tuple(messages) if messages is not None else joint.message_vars
    for a, b in itertools.combinations(names, 2):
        if joint.dependent([a], [b]):
            warnings.warn(
                f"messages {a} and {b} are dependent; their flows may be confounded",
                DependentMessagesWarning,
                stacklevel=2,
            )
    return {
        name: analyze(joint, name, quantify=quantify, max_candidates=max_candidates)
        for name in names
    }


def input_nodes(
    joint: Joint, graph: UnrolledGraph, message: Optional[str] = None
) -> frozenset[NodeRef]:
    """Time-0 nodes whose outgoing transmissions jointly depend on the message."""
    m = joint.default_message(message)
    out = []
    for v in graph.nodes_at(0):
        edges = [e for e in graph.outgoing(v) if joint.has_var(e)]
        if edges and joint.dependent([m], edges):
            out.append(v)
    return frozenset(out)
