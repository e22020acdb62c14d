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
and the sampled cascade.  The searches of one call run together, level by
level (``_search``), and ask their questions through one query
(``ci_query``): the exact joint codes the message once and answers a whole
level of every open search, in batches, each from one stacked weight grid
whose per-stratum factorization test is the verdict.  The gaussian joint
answers the same batches from its cached conditional variances.

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
    searches: Sequence[tuple[Sequence[EdgeRef], frozenset[EdgeRef]]],
    max_candidates: int,
    quantify: bool = False,
) -> list[tuple[Optional[tuple[EdgeRef, ...]], float]]:
    """The subset searches of several same-time target sets T, run
    together: for each (T, exclude), the first witness S, a subset of
    comp(T) \\ ``exclude`` with I(m; T \\ S | S) > 0 in (cardinality,
    canonical order), or None, and, with ``quantify``, the largest
    I(m; T \\ S | S) over the witnesses up to the first that saturates
    (0.0 otherwise).  Constant targets carry nothing and are dropped.

    Every search is checked, and its candidates capped, before the first
    query, in the order given.  Then the open searches advance level by
    level, |S| = 0, 1, …, as the PC algorithm runs its tests (Kalisch &
    Bühlmann, *JMLR* 2007): level k asks every open search's k-subsets, in
    canonical order, search after search, through one ``ci_query`` in
    batches of the joint's ``batch_size``.  A search closes at its first
    witness, or with ``quantify`` at its first saturating one; the rest of
    its level in a batch already built is answered and ignored, and later
    batches skip it.  Each search reads its answers in its own (cardinality,
    canonical) order, so its first witness and its largest bits up to the
    stop are those of a search run alone.  Every order comes from
    ``candidates_at`` and ``itertools.combinations``, never from a set.
    S is disjoint from m and T \\ S by construction.
    """
    plans = []
    for targets, exclude in searches:
        for e in targets:
            if not joint.has_var(e):
                raise ValidationError(f"edge {e} absent from joint")
        check_cap(max_candidates)  # also when every target is constant
        live = tuple(e for e in targets if not joint.is_constant(e))
        where = lambda: "sharing a source with " + ", ".join(map(str, live))
        cands = _cap(_component(joint, live, exclude), max_candidates, where) if live else ()
        plans.append((live, cands, not set(live).isdisjoint(cands)))
    witness: list = [None] * len(plans)
    best = [0.0] * len(plans)
    done = [not live for live, _, _ in plans]
    ask = joint.ci_query([m])

    def level(k: int, open_: list[int]):
        for i in open_:
            live, cands, overlap = plans[i]
            for sub in itertools.combinations(cands, k):
                if done[i]:
                    break
                rest = tuple(e for e in live if e not in sub) if overlap else live
                if rest:
                    yield i, sub, rest

    open_ = [i for i in range(len(plans)) if not done[i]]
    for k in itertools.count():
        queue = level(k, open_)
        while batch := list(itertools.islice(queue, joint.batch_size)):
            answers = ask([(rest, sub) for _, sub, rest in batch])
            for (i, sub, _), bits in zip(batch, answers):
                if done[i] or bits is None:
                    continue
                if witness[i] is None:
                    witness[i] = sub
                if quantify:
                    q, done[i] = bits()
                    best[i] = max(best[i], q)
                else:
                    done[i] = True
        open_ = [i for i in open_ if not done[i] and len(plans[i][1]) > k]
        if not open_:
            return list(zip(witness, best))


def _one_each(edges: Sequence[EdgeRef], exclude: frozenset[EdgeRef] = frozenset()) -> list:
    """The searches of single edges, each excluding itself and ``exclude``."""
    return [((e,), exclude | {e}) for e in edges]


def edge_flows(
    joint: Joint,
    edges: Sequence[EdgeRef],
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> dict[EdgeRef, tuple[bool, Optional[tuple[EdgeRef, ...]]]]:
    """``edge_flow`` for each of ``edges``, searched together (``_search``)."""
    m = joint.default_message(message)
    found = _search(joint, m, _one_each(edges), max_candidates)
    return {e: (w is not None, w) for e, (w, _) in zip(edges, found)}


def edge_flow(
    joint: Joint,
    edge: EdgeRef,
    message: Optional[str] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[bool, Optional[tuple[EdgeRef, ...]]]:
    """Flow verdict for one edge, with the first (minimal) witness found."""
    return edge_flows(joint, [edge], message, max_candidates)[edge]


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
    return _search(joint, m, [(edges, frozenset())], max_candidates)[0][0] is not None


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
    return _search(joint, m, _one_each([edge]), max_candidates, quantify=True)[0][1]


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
    flags = edge_flows(joint, edges, m, max_candidates)
    r_set = frozenset(e for e in edges if flags[e][0])
    s_set = frozenset(edges) - r_set

    inside = sorted(r_set)
    for e, (w, _) in zip(inside, _search(joint, m, _one_each(inside, s_set), max_candidates)):
        if w is None:
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
    edges = [e for t in joint.times() for e in joint.edges_at(t)]
    found = _search(joint, m, _one_each(edges), max_candidates, quantify)
    for e, (witness, q) in zip(edges, found):
        report.entries[e] = FlowEntry(e, witness is not None, witness, q if quantify else None)
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
