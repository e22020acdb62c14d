"""Command-line front end.

Subcommands: analyze (flow verdicts per edge), paths (flow-path recovery),
hidden (slice-to-slice alarms under an observation mask), derived
(derivedness query), simulate (trial CSV export), fixtures (list or export
built-in systems).  They parse and print; ``flow.analyze_messages`` and
``sampling.analyze_sampled``, with its seed policy, are the analyses.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 budget exceeded,
5 no path found, 6 model violation at an input node.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from fractions import Fraction
from typing import Optional

from . import canon, derived, flow, paths, report, sampling
from .discrete import enumerate_joint
from .errors import (
    BudgetExceededError,
    ModelViolationAtInput,
    MsgflowError,
    NoPathFound,
    SearchSpaceError,
    SpecParseError,
    ValidationError,
)
from .gaussian import linear_propagate
from .graph import EdgeRef, NodeRef
from .system import SystemSpec, load_system
from .values import json_text

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_NO_PATH = 5
EXIT_MODEL_VIOLATION = 6


def _load_spec(args) -> SystemSpec:
    if args.fixture and args.spec:
        raise ValidationError("give either --spec or --fixture, not both")
    if args.fixture:
        params = {}
        if args.fixture == "sk":
            params = {"sigma2": args.sigma2, "iterations": args.iterations}
        elif args.fixture == "output-msg":
            params = {"gate": None if args.gate == "random" else int(args.gate)}
        return canon.build(args.fixture, **params).spec
    if not args.spec:
        raise ValidationError("one of --spec or --fixture is required")
    return load_system(args.spec)


def _joint_for(spec: SystemSpec):
    return linear_propagate(spec) if spec.is_gaussian else enumerate_joint(spec)


def _check_messages(spec: SystemSpec, messages) -> None:
    unknown = [m for m in messages if m not in spec.message.components]
    if unknown:
        raise ValidationError(f"unknown message variable {unknown[0]!r}")


def _load_query(args, check, cap: Optional[int] = None):
    """The spec, its exact joint and the one message a query is about.  The
    message, the conditioning cap if given, and the query's other options,
    by ``check(graph)``, are checked before the joint is built."""
    spec = _load_spec(args)
    _check_messages(spec, [] if args.message is None else [args.message])
    if cap is not None:
        flow.check_cap(cap)
    check(spec.graph)
    joint = _joint_for(spec)
    return spec, joint, joint.default_message(args.message)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: Optional[str]) -> None:
    _emit(json_text(doc) + "\n", out)


def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    messages = flow.distinct_messages(args.message or spec.message.components)
    _check_messages(spec, messages)
    sampled = {k: getattr(args, k) for k in ("n_trials", "seed", "alpha", "n_perm")}
    cap = args.max_conditioning
    if args.engine == "sampled":
        missing = [k for k, v in sampled.items() if v is None]
        if missing:
            raise ValidationError(f"sampled engine needs {missing}")
        if args.quantify:
            raise ValidationError("--quantify does not apply to the sampled engine")
        if spec.is_continuous:
            raise ValidationError(
                "the sampled engine tests discrete trials; this system has a gaussian "
                "message or noise"
            )
        cap = sampling.DEFAULT_MAX_SUBSET if cap is None else cap
        sampling.check_cascade(args.alpha, cap, args.n_perm, args.seed)
        joint = sampling.sample_trials(spec, args.n_trials, args.seed)
        reports = sampling.analyze_sampled(joint, messages, args.alpha, cap, args.n_perm, args.seed)
    else:
        extra = [k for k, v in sampled.items() if v is not None]
        if extra:
            raise ValidationError(f"{extra} only apply to the sampled engine")
        cap = flow.DEFAULT_MAX_CANDIDATES if cap is None else cap
        flow.check_cap(cap)
        joint = _joint_for(spec)
        reports = flow.analyze_messages(joint, messages, quantify=args.quantify, max_candidates=cap)
    if args.format == "json":
        _emit(report.reports_to_json(reports), args.out)
    elif args.format == "dot":
        constant = tuple(filter(joint.is_constant, joint.edge_vars))
        _emit(report.to_dot(spec.graph, reports, constant, thickness=args.quantify), args.out)
    else:
        _emit(_text_report(reports), args.out)
    return 0


def _text_report(reports) -> str:
    lines = []
    for m in sorted(reports):
        rep = reports[m]
        lines.append(f"message {m} ({rep.engine} engine)")
        for t in rep.times():
            r, s = rep.partition(t)
            lines.append(f"  t={t}: flow on {len(r)}/{len(r) + len(s)} edges")
            for e in sorted(r):
                entry = rep.entries[e]
                extra = ""
                if entry.witness:
                    extra += " given {" + ", ".join(map(str, entry.witness)) + "}"
                if entry.quantified is not None:
                    q = "inf" if math.isinf(entry.quantified) else f"{entry.quantified:.4f}"
                    extra += f" [{q} bits]"
                lines.append(f"    {e}{extra}")
    return "\n".join(lines) + "\n"


def cmd_paths(args) -> int:
    target = NodeRef.parse(args.target)

    def check(graph) -> None:
        paths.check_target(graph, target)
        paths.check_limit(args.limit)

    spec, joint, message = _load_query(args, check, args.max_conditioning)
    rep = flow.analyze(joint, message, max_candidates=args.max_conditioning)
    v_ip = flow.input_nodes(joint, spec.graph, message)
    h = paths.find_info_paths(rep, spec.graph, target, v_ip)
    listing = paths.enumerate_paths(h, limit=args.limit)
    if args.format == "dot":
        _emit(report.path_graph_to_dot(h, spec.graph), args.out)
    else:
        doc = {
            "schema": "msgflow.paths/1",
            "message": message,
            "target": str(target),
            "root_inputs": sorted(str(v) for v in h.root_inputs),
            "nodes": sorted(str(v) for v in h.nodes),
            "edges": sorted(str(e) for e in h.edges),
            "paths": [[str(v) for v in p] for p in listing.paths],
            "truncated": listing.truncated,
            "node_visits": h.node_visits,
            "edge_inspections": h.edge_inspections,
        }
        _emit_json(doc, args.out)
    return 0


def cmd_hidden(args) -> int:
    mask = derived.ObservationMask(frozenset(args.hide))
    spec, joint, message = _load_query(args, mask.validate)
    alarms = []
    for t in range(spec.graph.horizon - 1):
        bits = derived.hidden_ask(joint, spec.graph, mask, t, message)  # alarm and bits at once
        value = report.bits_to_json(0.0 if bits is None else bits()[0])
        alarms.append({"t": t, "alarm": bits is not None, "violation_bits": value})
    doc = {
        "schema": "msgflow.hidden/1",
        "message": message,
        "hidden": sorted(mask.hidden_names),
        "alarms": alarms,
    }
    _emit_json(doc, args.out)
    return 0


def cmd_derived(args) -> int:
    q = [EdgeRef.parse(e) for e in args.query_edges]
    p = [EdgeRef.parse(e) for e in args.given_edges]

    def check(graph) -> None:
        for e in q + p:
            if e not in graph:
                raise ValidationError(f"unknown edge {e}")

    _, joint, message = _load_query(args, check)
    bits = derived.derived_ask(joint, q, p, message)  # the verdict and its bits, from one ask
    value = report.bits_to_json(0.0 if bits is None else bits()[0])
    doc = {
        "schema": "msgflow.derived/1",
        "message": message,
        "query": sorted(str(e) for e in q),
        "given": sorted(str(e) for e in p),
        "is_derived": bits is None,
        "leftover_bits": value,
    }
    _emit_json(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    trials = sampling.sample_trials(_load_spec(args), args.n_trials, args.seed)
    trials.to_csv(args.out)
    return 0


def cmd_fixtures(args) -> int:
    if args.build:
        _emit_json(canon.build(args.build).spec.to_json_dict(), args.out)
        return 0
    _emit("".join(name + "\n" for name in canon.FIXTURE_NAMES), args.out)
    return 0


def _fraction(text: str) -> Fraction:
    """A ``Fraction`` option; a zero denominator is a parse error, not a crash."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from exc


def _add_system(p: argparse.ArgumentParser, out_required: bool = False) -> None:
    """The options that name the system, and the output file."""
    p.add_argument("--spec", help="SystemSpec JSON file")
    p.add_argument("--fixture", help="built-in fixture name")
    p.add_argument("--sigma2", type=_fraction, default="1", help="sk fixture: noise variance")
    p.add_argument("--iterations", type=int, default=3, help="sk fixture: iterations")
    p.add_argument("--gate", default="1", choices=["0", "1", "random"], help="output-msg fixture")
    p.add_argument(
        "--out", required=out_required, help=None if out_required else "output file, or stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msgflow",
        description="Decide which edges of a clocked message-passing system carry "
        "information about a message, and recover the flow paths.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    one_message = "message variable (default: the only one)"

    p = sub.add_parser("analyze", help="per-edge flow verdicts")
    _add_system(p)
    p.add_argument("--message", action="append", help="message variable (repeatable)")
    p.add_argument("--engine", default="exact", choices=["exact", "sampled"])
    p.add_argument(
        "--max-conditioning",
        type=int,
        help=f"conditioning cap (default {flow.DEFAULT_MAX_CANDIDATES} candidates "
        "sharing a random source with the edge; "
        f"sampled engine: subsets of at most {sampling.DEFAULT_MAX_SUBSET} edges)",
    )
    p.add_argument("--n-trials", type=int, help="sampled engine: trial count")
    p.add_argument("--seed", type=int, help="sampled engine: master seed")
    p.add_argument("--alpha", type=float, help="sampled engine: family error level")
    p.add_argument("--n-perm", type=int, help="sampled engine: permutations per permutation test")
    p.add_argument("--quantify", action="store_true", help="report flow volumes")
    p.add_argument("--format", default="json", choices=["json", "dot", "text"])
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("paths", help="recover flow paths to a target node")
    _add_system(p)
    p.add_argument("--message", help=one_message)
    p.add_argument(
        "--max-conditioning",
        type=int,
        default=flow.DEFAULT_MAX_CANDIDATES,
        help="conditioning cap: candidates sharing a random source with the edge "
        "(default %(default)s)",
    )
    p.add_argument("--target", required=True, help="target node id, e.g. A4")
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("hidden", help="hidden-node alarms under an observation mask")
    _add_system(p)
    p.add_argument("--message", help=one_message)
    p.add_argument("--hide", action="append", required=True, help="hidden base node")
    p.set_defaults(fn=cmd_hidden)

    p = sub.add_parser("derived", help="does one edge set add anything beyond another?")
    _add_system(p)
    p.add_argument("--message", help=one_message)
    p.add_argument("--query-edges", nargs="+", required=True, metavar="EDGE")
    p.add_argument("--given-edges", nargs="+", required=True, metavar="EDGE")
    p.set_defaults(fn=cmd_derived)

    p = sub.add_parser("simulate", help="draw trials and export them as CSV")
    _add_system(p, out_required=True)
    p.add_argument("--n-trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fixtures", help="list fixtures or export one as JSON")
    p.add_argument("--build", help="fixture name to export")
    p.add_argument("--out", help="output file")
    p.set_defaults(fn=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.fn(args)
        except SpecParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except OSError as exc:  # load_system maps an unreadable --spec; this is --out
            print(f"parse error: cannot write the output: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except (BudgetExceededError, SearchSpaceError) as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except NoPathFound as exc:
            print(f"no path: {exc}", file=sys.stderr)
            return EXIT_NO_PATH
        except ModelViolationAtInput as exc:
            print(f"model violation: {exc}", file=sys.stderr)
            return EXIT_MODEL_VIOLATION
        except (ValidationError, MsgflowError) as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as one line of its own, as errors are printed."""
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
