"""Serialization of flow reports and DOT rendering of annotated graphs."""

from __future__ import annotations

import json
import math
from typing import Mapping, Optional, Sequence

from .errors import SpecParseError
from .flow import FlowEntry, FlowReport
from .graph import EdgeRef, UnrolledGraph

REPORT_SCHEMA = "msgflow.flow-report/1"

# One color per analyzed message, in declaration order.
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


# A sampled cascade's settings, as it ran them.
_SAMPLED_FIELDS = ("level", "n_tests_planned", "replicates")


def _quantified_to_json(q: Optional[float]):
    if q is None:
        return None
    if math.isinf(q):
        return "inf"
    return q


def _quantified_from_json(q):
    if q is None:
        return None
    if q == "inf":
        return math.inf
    return float(q)


def report_to_dict(report: FlowReport) -> dict:
    edges = []
    for e in sorted(report.entries):
        entry = report.entries[e]
        row = {
            "edge": str(e),
            "time": e.time,
            "has_flow": entry.has_flow,
            "witness": None
            if entry.witness is None
            else [str(w) for w in entry.witness],
            "quantified": _quantified_to_json(entry.quantified),
        }
        if entry.p_values is not None:
            row["p_values"] = [
                {"conditioning": [str(c) for c in sub], "p": p}
                for sub, p in entry.p_values
            ]
        for name in _SAMPLED_FIELDS:
            if getattr(entry, name) is not None:
                row[name] = getattr(entry, name)
        edges.append(row)
    partition = {}
    for t in report.times():
        r, s = report.partition(t)
        partition[str(t)] = {
            "flow": sorted(str(e) for e in r),
            "no_flow": sorted(str(e) for e in s),
        }
    return {
        "schema": REPORT_SCHEMA,
        "message": report.message,
        "engine": report.engine,
        "edges": edges,
        "partition": partition,
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
            quantified=_quantified_from_json(row.get("quantified")),
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _edge_label_width(q: Optional[float]) -> float:
    if q is None:
        return 1.6
    if math.isinf(q):
        return 4.0
    return 1.0 + min(q, 3.0)


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
                width = max((_edge_label_width(q) for q in qs), default=1.6)
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
