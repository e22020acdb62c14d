"""Regenerate ``bench/expected.json`` and check it against the exact engine.

Usage (from the repository root)::

    python3 bench/make_expected.py

* Fixtures: verdicts and minimal witnesses from the exact engine (or the
  linear-Gaussian one for ``sk``), checked against the flows pinned in
  ``msgflow.canon``.  ``hidden-local`` and ``hidden-masked`` pin no flows;
  their verdicts are ce1's pad masking and are listed in ``NOTES.md``.
* Pad-mask rungs of every workload: verdicts, witnesses and paths by
  construction (``padmask.expected``), checked against the exact engine.

Exits non-zero without writing if any check fails.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import msgflow as mf  # noqa: E402
from padmask import expected, relabel, spec_dict  # noqa: E402
from workloads import ALL_FIXTURES, WORKLOADS  # noqa: E402


def analyse(spec):
    """The exact joint and every message's report, as ``msgflow analyze`` makes them."""
    joint = mf.linear_propagate(spec) if spec.is_gaussian else mf.enumerate_joint(spec)
    return joint, mf.analyze_messages(joint, spec.message.components)


def witnesses(reports) -> dict:
    return {
        m: {str(e): sorted(str(w) for w in entry.witness)
            for e, entry in rep.entries.items() if entry.has_flow}
        for m, rep in reports.items()
    }


def main() -> int:
    warnings.simplefilter("ignore")  # mult-msg's dependent messages
    ok = True
    fixtures = {}
    for name in ALL_FIXTURES:
        fx = mf.build(name)
        flows = witnesses(analyse(fx.spec)[1])
        for m, pinned in fx.expected_flow.items():
            if set(flows[m]) != {str(e) for e in pinned}:
                print(f"{name}/{m}: engine {sorted(flows[m])} != pinned", file=sys.stderr)
                ok = False
        fixtures[name] = flows

    padmask = {}
    rungs = {r.name: r for wl in WORKLOADS.values() for r in wl.rungs}
    for name, rung in sorted(rungs.items()):
        want = expected(rung)
        spec = mf.SystemSpec.from_json_dict(spec_dict(rung, relabel(rung, None)))
        joint, reports = analyse(spec)
        flows, rep = witnesses(reports), reports["M"]
        h = mf.find_info_paths(rep, spec.graph, mf.NodeRef.parse("B3"), mf.input_nodes(joint, spec.graph, "M"))
        paths = [[str(v) for v in p] for p in mf.enumerate_paths(h).paths]
        if flows["M"] != want["flow"] or paths != want["paths"]["B3"]:
            print(f"{name}: engine {flows['M']} {paths} != construction {want}", file=sys.stderr)
            ok = False
        else:
            print(f"{name}: {rung.realizations} realizations, {len(joint.rows)} rows, "
                  f"{len(rep.entries)} edges, matches the construction")
        padmask[name] = want
    if not ok:
        return 1
    with open(BENCH / "expected.json", "w") as fh:
        json.dump({"fixtures": fixtures, "padmask": padmask}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
