"""Per-edge message-flow verdicts.

An edge carries flow about a message when some same-time conditioning subset
of the other edges makes its transmission conditionally dependent on the
message; a set of same-time edges T carries flow when some same-time subset
S makes T \\ S dependent on it.  One subset search (``_search``) answers both,
for ``edge_flow``, ``quantified_flow``, ``analyze``, ``set_flow``, both checks
of ``separability_partition`` and the family of the sampled cascade.  It runs
in increasing cardinality with ties broken by canonical edge order, so the
stored witness is a minimal one and the whole analysis is deterministic.

The search of T tries only the subsets of its *source component* comp(T):
the non-constant edges of T's slice joined to a member of T through chains
of shared random sources (``SystemSpec.sources``, recorded on the joint as
``sources``), the union of its members' components.  Given the message M the
sources are mutually independent, and each edge is a function of M and of
the sources it reads.  Split any conditioning set W into S = W ∩ comp(T) and
K = W \\ S.  An edge sharing a source with comp(T) belongs to it, so K's
sources are disjoint from those of T and S, K ⊥ (T, S) | M, and

    I(M; e | S ∪ K) ≤ I(e; M, K | S) = I(M; e | S) + I(e; K | M, S) = I(M; e | S)

for T = {e}; for a set, with T \\ W ⊆ T \\ S,

    I(M; T \\ W | W) ≤ I(M; T \\ W | S) ≤ I(M; T \\ S | S),

the first step as above and the second because adding targets cannot lower
the information.  Hence every witness W contains the witness S inside
comp(T).  The first witness in (cardinality, canonical order) is minimal, so
it lies in comp(T), and the subsets of comp(T) keep their relative order:
the pruned search returns the same witness.  The maximum of I(M; e | S) over
the subsets of comp(e) equals the maximum over all subsets, so the
quantified value is the same in exact arithmetic; in floats, a whole-slice
search may take it at a superset whose equal value rounds a few ulps higher.
A search may also be restricted to a part R of the slice: its component is
still grown over the whole slice, and the subsets of R ∩ comp(T) then stand
for every subset of R, since W ⊆ R gives S ⊆ R ∩ comp(T).  A joint without
``sources`` (a derived message or a table read from CSV) counts every edge
as reading one shared source, and the same code then searches the whole
slice.  The candidate cap applies to the component searched.

Each slice's components are found once per joint (``components_at``, built
afresh whenever ``sources`` is assigned) and serve every search of the slice
and the sampled cascade.  A search asks all of its questions through one
query (``ci_query``): the exact joint codes the message once and each target
set once, then builds one weight grid per subset, whose factorization test
is the verdict.  The gaussian joint answers the same query from its cached
conditional variances.

A quantified search takes each witness's bits from its grid and stops at
the first witness whose bits saturate: I(M; e | S) <= min(H(M), H(e)) for
every S (Cover & Thomas, §2.6), so once a witness reaches that bound,
exactly by ``grid_saturated``'s integer test, no later subset gives more;
an infinite gaussian value saturates likewise.  The witness, the first one,
and the verdicts, which never read the bits, are unchanged; the value may
differ by ulps from an unstopped search's, which may take the same exact
maximum at a later subset.

Three weaker tests (marginal dependence; conditioning on single edges;
conditioning on all other edges) are kept available as ``candidate_flow`` —
they are the natural first attempts, and each one misses synergy-coded
transmissions that the subset-search definition catches.  They search the
whole slice.

Conditioning candidates are filtered to non-constant transmissions
(conditioning on a constant changes nothing) and capped; systems denser than
the cap raise instead of silently degrading.
"""

from __future__ import annotations

import itertools
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
    replicates: Optional[int] = None  # per permutation test; 0 if every test was a G-test


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


def check_cap(max_candidates: int) -> None:
    if max_candidates < 0:
        raise ValidationError(f"max_candidates must be at least 0, got {max_candidates}")


def _cap(cands: tuple[EdgeRef, ...], max_candidates: int, where) -> tuple[EdgeRef, ...]:
    """``cands`` within the cap; ``where()`` names them in the error."""
    check_cap(max_candidates)
    if len(cands) > max_candidates:
        raise SearchSpaceError(
            f"{len(cands)} conditioning candidates {where()} exceed the cap of "
            f"{max_candidates}; raise max_candidates explicitly to proceed"
        )
    return cands


def _subsets(cands: Sequence[EdgeRef], max_size: Optional[int] = None):
    """The subsets of ``cands`` in (cardinality, canonical order), up to ``max_size``."""
    top = len(cands) if max_size is None else min(max_size, len(cands))
    for k in range(top + 1):
        yield from itertools.combinations(cands, k)


def _component(
    joint: Joint, targets: Sequence[EdgeRef], exclude: frozenset[EdgeRef] = frozenset()
) -> tuple[EdgeRef, ...]:
    """comp(T) without ``exclude``, in canonical order: the union of the
    non-constant targets' source components (``components_at``), each
    grown over the whole slice; ``exclude`` is removed after."""
    t = targets[0].time
    comps = joint.components_at(t)
    members = set().union(*(comps.get(e, ()) for e in targets))
    return tuple(x for x in joint.candidates_at(t) if x in members and x not in exclude)


def _search(
    joint: Joint,
    m: str,
    targets: Sequence[EdgeRef],
    max_candidates: int,
    exclude: frozenset[EdgeRef] = frozenset(),
):
    """Yield (S, bits) for every witness S of the same-time targets T: each
    subset S of comp(T) \\ ``exclude`` with I(m; T \\ S | S) > 0, in
    (cardinality, canonical order), and ``bits()`` gives that information
    and whether it saturates.  Constant targets carry nothing and are
    dropped.  One ``ci_query`` serves the search; S is disjoint from m and
    T \\ S by construction."""
    for e in targets:
        if not joint.has_var(e):
            raise ValidationError(f"edge {e} absent from joint")
    check_cap(max_candidates)  # also when every target is constant
    targets = tuple(e for e in targets if not joint.is_constant(e))
    if not targets:
        return
    where = lambda: "sharing a source with " + ", ".join(map(str, targets))
    cands = _cap(_component(joint, targets, exclude), max_candidates, where)
    ask = joint.ci_query([m])
    for sub in _subsets(cands):
        rest = tuple(e for e in targets if e not in sub)
        if rest and (bits := ask(rest, sub)) is not None:
            yield sub, bits


def _witness_and_bits(
    joint: Joint, m: str, edge: EdgeRef, max_candidates: int
) -> tuple[Optional[tuple[EdgeRef, ...]], float]:
    """The first witness of ``edge`` and the largest I(m; edge | S) over
    all of them, stopping at the first that saturates."""
    witness, best = None, 0.0
    for sub, bits in _search(joint, m, [edge], max_candidates, frozenset([edge])):
        if witness is None:
            witness = sub
        q, saturated = bits()
        best = max(best, q)
        if saturated:
            break
    return witness, best


def edge_flow(
    joint: Joint,
    edge: EdgeRef,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[bool, Optional[tuple[EdgeRef, ...]]]:
    """Flow verdict for one edge, with the first (minimal) witness found."""
    m = joint.default_message(message)
    found = _search(joint, m, [edge], max_candidates, frozenset([edge]))
    witness = next((sub for sub, _ in found), None)
    return witness is not None, witness


def set_flow(
    joint: Joint,
    edges: Sequence[EdgeRef],
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> bool:
    """Flow verdict for a set of same-time edges (conditioning may overlap the set)."""
    m = joint.default_message(message)
    edges = tuple(edges)
    if len({e.time for e in edges}) > 1:
        raise ValidationError("set_flow needs edges at a common time")
    return next(_search(joint, m, edges, max_candidates), None) is not None


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
    others = _cap(
        tuple(e for e in joint.candidates_at(edge.time) if e != edge),
        max_candidates,
        lambda: f"at t={edge.time}",
    )
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
    return _witness_and_bits(joint, m, edge, max_candidates)[1]


def separability_partition(
    joint: Joint,
    t: int,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[frozenset[EdgeRef], frozenset[EdgeRef]]:
    """Split the time slice into flowing / non-flowing edges and verify both sides.

    Every flowing edge e must find a witness *inside* the flowing set R: its
    search runs over R ∩ comp(e), with comp(e) grown over the whole slice,
    which by the proof above is every subset of R \\ {e}.  The non-flowing
    set must stay independent of the message under every same-time
    conditioning set: ``set_flow`` on it searches exhaustively, up to the
    candidate cap, and raises beyond it.
    """
    m = joint.default_message(message)
    edges = joint.edges_at(t)
    if not edges:
        raise ValidationError(f"no edges at time {t}")
    flags = {
        e: edge_flow(joint, e, m, max_candidates=max_candidates)[0] for e in edges
    }
    r_set = frozenset(e for e in edges if flags[e])
    s_set = frozenset(edges) - r_set

    for e in sorted(r_set):
        if next(_search(joint, m, [e], max_candidates, s_set | {e}), None) is None:
            raise InvariantViolation(
                f"flowing edge {e} has no witness inside the flowing set at t={t}"
            )
    if set_flow(joint, sorted(s_set), m, max_candidates):
        raise InvariantViolation(f"non-flowing set at t={t} depends on the message")
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
    report = FlowReport(message=m, engine=joint.engine)
    for t in joint.times():
        for e in joint.edges_at(t):
            if quantify:  # one walk of the search gives the witness and the value
                witness, q = _witness_and_bits(joint, m, e, max_candidates)
            else:
                witness, q = edge_flow(joint, e, m, max_candidates)[1], None
            report.entries[e] = FlowEntry(e, witness is not None, witness, q)
    return report


def distinct_messages(messages: Sequence[str]) -> tuple[str, ...]:
    """``messages`` as a tuple; a repeat, which would merge two reports, raises."""
    names = tuple(messages)
    if len(set(names)) < len(names):
        raise ValidationError(f"a message is given more than once: {list(names)}")
    return names


def analyze_messages(
    joint: Joint,
    messages: Optional[Sequence[str]] = None,
    quantify: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> dict[str, FlowReport]:
    """One report per message against the same joint.

    Dependent message pairs are analyzed as-is but flagged with a warning,
    since each one's flow then also traces the other's.  A repeat raises.
    """
    names = distinct_messages(joint.message_vars if messages is None else messages)
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
