"""Serialization of flow reports and DOT rendering of annotated graphs.

:func:`bits_to_json` is the one encoder of bits for every JSON document the
package writes (a report's ``quantified``, ``hidden``'s ``violation_bits``,
``derived``'s ``leftover_bits``); :func:`bits_from_json` reads them back.
:func:`~msgflow.values.json_text` is the one text writer: every document,
a report here, a CLI query or a saved system, is its 2-space indented,
key-sorted text.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from .errors import SpecParseError
from .flow import FlowEntry, FlowReport
from .graph import EdgeRef, UnrolledGraph
from .values import json_text

REPORT_SCHEMA = "msgflow.flow-report/1"

# One color per analyzed message, in declaration order.
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


# A sampled cascade's settings, as it ran them.
_SAMPLED_FIELDS = ("level", "n_tests_planned", "replicates")


def bits_to_json(q: Optional[float]):
    """Encode bits for JSON, an infinite amount as ``"inf"``: JSON has no Infinity."""
    if q is None:
        return None
    if math.isinf(q):
        return "inf"
    return q


def bits_from_json(q):
    if q is None:
        return None
    if q == "inf":
        return math.inf
    return float(q)


def report_to_dict(report: FlowReport) -> dict:
    order = sorted(report.entries)
    names = {e: str(e) for e in order}  # each edge formatted once
    name = lambda e: names.get(e) or str(e)
    # Within a slice every edge's string holds the same two time suffixes,
    # and node names are [A-Za-z_]+ (UnrolledGraph checks them).  Where one
    # name extends another, the shorter one's time digit sorts before any
    # letter or underscore, so the sorted edges are in their strings' order
    # and each slice's lists need no sort.
    partition = {t: {"flow": [], "no_flow": []} for t in report.times()}
    edges = []
    for e in order:
        entry = report.entries[e]
        row = {
            "edge": names[e],
            "time": e.time,
            "has_flow": entry.has_flow,
            "witness": None if entry.witness is None else [name(w) for w in entry.witness],
            "quantified": bits_to_json(entry.quantified),
        }
        if entry.p_values is not None:
            row["p_values"] = [
                {"conditioning": [name(c) for c in sub], "p": p} for sub, p in entry.p_values
            ]
        for field in _SAMPLED_FIELDS:
            if getattr(entry, field) is not None:
                row[field] = getattr(entry, field)
        edges.append(row)
        partition[e.time]["flow" if entry.has_flow else "no_flow"].append(names[e])
    return {
        "schema": REPORT_SCHEMA,
        "message": report.message,
        "engine": report.engine,
        "edges": edges,
        "partition": {str(t): lists for t, lists in partition.items()},
    }


def report_from_dict(d: dict) -> FlowReport:
    if d.get("schema") != REPORT_SCHEMA:
        raise SpecParseError(f"not a flow report: schema {d.get('schema')!r}")
    report = FlowReport(message=d["message"], engine=d["engine"])
    for row in d["edges"]:
        e = EdgeRef.parse(row["edge"])
        witness = row.get("witness")
        p_values = row.get("p_values")
        report.entries[e] = FlowEntry(
            edge=e,
            has_flow=bool(row["has_flow"]),
            witness=None if witness is None else tuple(EdgeRef.parse(w) for w in witness),
            quantified=bits_from_json(row.get("quantified")),
            p_values=None
            if p_values is None
            else tuple(
                (tuple(EdgeRef.parse(c) for c in test["conditioning"]), float(test["p"]))
                for test in p_values
            ),
            **{name: row[name] for name in _SAMPLED_FIELDS if name in row},
        )
    return report


def reports_to_json(reports: Mapping[str, FlowReport]) -> str:
    doc = {
        "schema": "msgflow.analysis/1",
        "messages": sorted(reports),
        "reports": {m: report_to_dict(reports[m]) for m in sorted(reports)},
    }
    return json_text(doc) + "\n"


def to_dot(
    graph: UnrolledGraph,
    reports: Mapping[str, FlowReport],
    constant_edges: Sequence[EdgeRef] = (),
    thickness: bool = False,
) -> str:
    """Render the unrolled graph with one color per message on flowing edges.

    Constant-transmission edges are left out, mirroring the usual decluttered
    drawings of these systems; non-flowing (but active) edges are gray.  With
    ``thickness`` the pen width scales with the quantified flow.
    """
    message_order = sorted(reports)
    colors = {m: _PALETTE[i % len(_PALETTE)] for i, m in enumerate(message_order)}
    constant = set(constant_edges)
    shown = [e for e in graph.edges if e not in constant]
    used_nodes = sorted({v for e in shown for v in (e.src, e.dst)})

    lines = ["digraph flow {", "  rankdir=LR;", "  node [shape=circle];"]
    for t in range(graph.horizon + 1):
        members = [v for v in used_nodes if v.time == t]
        if members:
            row = " ".join(f'"{v}";' for v in members)
            lines.append(f"  {{ rank=same; {row} }}")
    for e in shown:
        flows = [m for m in message_order if reports[m].entries.get(e) and reports[m].entries[e].has_flow]
        attrs = []
        if flows:
            attrs.append("color=\"" + ":".join(colors[m] for m in flows) + "\"")
            if thickness:
                qs = [
                    reports[m].entries[e].quantified
                    for m in flows
                    if reports[m].entries[e].quantified is not None
                ]
                # A bit widens the pen by 1, by 3 at most: an infinite flow draws 4.
                width = max((1.0 + min(q, 3.0) for q in qs), default=1.6)
                attrs.append(f"penwidth={width:.2f}")
        else:
            attrs.append('color="#bbbbbb"')
        lines.append(f'  "{e.src}" -> "{e.dst}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def path_graph_to_dot(h, graph: UnrolledGraph) -> str:
    """Render a recovered path subgraph."""
    lines = ["digraph paths {", "  rankdir=LR;", "  node [shape=circle];"]
    for v in sorted(h.nodes):
        shape = "doublecircle" if v == h.target or v in h.root_inputs else "circle"
        lines.append(f'  "{v}" [shape={shape}];')
    for e in sorted(h.edges):
        lines.append(f'  "{e.src}" -> "{e.dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
