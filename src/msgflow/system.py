"""System descriptions: graph + message law + intrinsic noise + node functions.

A system fixes, for every node of the unrolled graph, one expression per
outgoing edge.  At times >= 1 an expression may read the node's incoming
transmissions and its own intrinsic variable; at time 0 it may instead read
the message, but only at declared input nodes.  Edges without an expression
carry the constant 0, which is how sparse figures embed into the complete
graph.

Message laws come in three kinds:

* ``discrete`` — named components with an exact joint pmf over value tuples;
* ``gaussian`` — a single zero-mean scalar component with rational variance;
* ``derived``  — components defined as expressions over intrinsic variables,
  for systems whose message lives at the output rather than the input.

Two forward passes push realizations through the node functions:
``SystemSpec.propagate`` computes one realization from value dicts and is
the reference the tests compare against; :class:`ColumnPass` computes whole
columns of realizations for the exact enumerator and the trial sampler,
running each node function once per distinct combination of its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import exprs
from .errors import MsgflowError, SpecParseError, ValidationError
from .exprs import EvalEnv, Expr, compile_expr, expr_to_json, leaf_refs, parse_expr
from .graph import EdgeRef, NodeRef, UnrolledGraph
from .values import Value, value_from_json, value_to_json

Pmf = tuple  # tuple of (value tuple, Fraction) pairs, order-preserving


def _normalize_pmf(pairs, what: str) -> Pmf:
    out = []
    total = Fraction(0)
    seen = set()
    for value, p in pairs:
        p = Fraction(p)
        if p < 0:
            raise ValidationError(f"{what}: negative probability for {value!r}")
        if p == 0:
            continue
        if value in seen:
            raise ValidationError(f"{what}: duplicate support value {value!r}")
        seen.add(value)
        out.append((value, p))
        total += p
    if total != 1:
        raise ValidationError(f"{what}: probabilities sum to {total}, expected 1")
    return tuple(out)


@dataclass(frozen=True)
class MessageSpec:
    kind: str  # "discrete" | "gaussian" | "derived"
    components: tuple[str, ...]
    pmf: Optional[Pmf] = None  # discrete: ((component values...), prob)
    variance: Optional[Fraction] = None  # gaussian
    exprs: Optional[tuple[Expr, ...]] = None  # derived, one per component

    @staticmethod
    def discrete(components, pmf) -> "MessageSpec":
        components = tuple(components)
        norm = _normalize_pmf(
            (((tuple(v) if isinstance(v, (list, tuple)) else (v,)), p) for v, p in pmf),
            "message",
        )
        for v, _ in norm:
            if len(v) != len(components):
                raise ValidationError(
                    f"message value {v!r} does not match components {components}"
                )
        return MessageSpec("discrete", components, pmf=norm)

    @staticmethod
    def bernoulli(name: str = "M", p=Fraction(1, 2)) -> "MessageSpec":
        p = Fraction(p)
        return MessageSpec.discrete((name,), (((0,), 1 - p), ((1,), p)))

    @staticmethod
    def gaussian(name: str = "M", variance=1) -> "MessageSpec":
        variance = Fraction(variance)
        if variance <= 0:
            raise ValidationError("gaussian message needs positive variance")
        return MessageSpec("gaussian", (name,), variance=variance)

    @staticmethod
    def derived(components, component_exprs) -> "MessageSpec":
        return MessageSpec("derived", tuple(components), exprs=tuple(component_exprs))


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "discrete" | "gaussian"
    pmf: Optional[Pmf] = None
    variance: Optional[Fraction] = None

    @staticmethod
    def discrete(pmf) -> "NoiseSpec":
        return NoiseSpec("discrete", pmf=_normalize_pmf(pmf, "noise"))

    @staticmethod
    def bernoulli(p=Fraction(1, 2)) -> "NoiseSpec":
        p = Fraction(p)
        return NoiseSpec.discrete(((0, 1 - p), (1, p)))

    @staticmethod
    def gaussian(variance) -> "NoiseSpec":
        variance = Fraction(variance)
        if variance <= 0:
            raise ValidationError("gaussian noise needs positive variance")
        return NoiseSpec("gaussian", variance=variance)


class SystemSpec:
    """An immutable, validated computational system."""

    def __init__(
        self,
        graph: UnrolledGraph,
        message: MessageSpec,
        noise: Mapping[NodeRef, NoiseSpec] = (),
        functions: Mapping[NodeRef, Mapping[EdgeRef, Expr]] = (),
        declared_inputs: tuple[str, ...] = (),
    ) -> None:
        self.graph = graph
        self.message = message
        self.noise: dict[NodeRef, NoiseSpec] = dict(noise)
        self.functions: dict[NodeRef, dict[EdgeRef, Expr]] = {
            v: dict(fs) for v, fs in dict(functions).items()
        }
        self.declared_inputs: frozenset[str] = frozenset(declared_inputs)
        self._validate()
        self._compiled = None

    # ----- validation -------------------------------------------------

    def _validate(self) -> None:
        g = self.graph
        if not all(isinstance(c, str) for c in self.message.components):
            raise ValidationError("message component names must be strings")
        if len(set(self.message.components)) != len(self.message.components):
            raise ValidationError("duplicate message component names")
        for name in self.declared_inputs:
            if name not in g.node_names:
                raise ValidationError(f"declared input {name!r} is not a node")
        if self.message.kind == "derived" and self.declared_inputs:
            raise ValidationError("derived messages cannot also enter at input nodes")
        for v, ns in self.noise.items():
            if v not in g:
                raise ValidationError(f"noise declared at unknown node {v}")
            if ns.kind == "gaussian" and self.message.kind == "discrete":
                raise ValidationError("cannot mix gaussian noise with a discrete message")
            if ns.kind == "discrete" and self.message.kind == "gaussian":
                raise ValidationError("cannot mix discrete noise with a gaussian message")
        for v, fns in self.functions.items():
            if v not in g:
                raise ValidationError(f"function declared at unknown node {v}")
            out = set(g.outgoing(v))
            inc = set(g.incoming(v))
            for e, expr in fns.items():
                if e not in out:
                    raise ValidationError(f"{v} has no outgoing edge {e}")
                self._check_leaves(v, e, expr, inc)
        if self.message.kind == "derived":
            if len(self.message.exprs or ()) != len(self.message.components):
                raise ValidationError("a derived message needs one expression per component")
            for expr in self.message.exprs or ():
                for kind, payload in leaf_refs(expr):
                    if kind != "noise" or payload is None:
                        raise ValidationError(
                            "derived message expressions may only read named intrinsic variables"
                        )
                    if payload not in self.noise:
                        raise ValidationError(f"derived message reads {payload}, which has no noise")

    def _check_leaves(self, v: NodeRef, e: EdgeRef, expr: Expr, incoming: set) -> None:
        for kind, payload in leaf_refs(expr):
            if kind == "edge":
                if payload not in incoming:
                    raise ValidationError(
                        f"function for {e} reads {payload}, not an incoming edge of {v}"
                    )
            elif kind == "noise":
                if payload is not None and payload != v:
                    raise ValidationError(
                        f"function for {e} reads intrinsic variable of another node {payload}"
                    )
                if payload is not None and payload not in self.noise:
                    raise ValidationError(f"function for {e} reads {payload}, which has no noise")
            elif kind == "msg":
                if v.time != 0 or v.name not in self.declared_inputs:
                    raise ValidationError(
                        f"function for {e} reads the message but {v} is not a declared input"
                    )
                if payload is not None and payload not in self.message.components:
                    raise ValidationError(f"unknown message component {payload!r}")

    # ----- structural queries ------------------------------------------

    @property
    def is_gaussian(self) -> bool:
        return self.message.kind == "gaussian"

    def expr_for(self, e: EdgeRef) -> Expr:
        return self.functions.get(e.src, {}).get(e, exprs.CONST_ZERO)

    def noise_nodes(self) -> tuple[NodeRef, ...]:
        return tuple(sorted(self.noise))

    def realization_count(self) -> int:
        """Number of (message, noise) realizations the exact engine enumerates."""
        if self.message.kind == "gaussian":
            raise ValidationError("gaussian systems are not enumerable")
        n = len(self.message.pmf) if self.message.kind == "discrete" else 1
        for ns in self.noise.values():
            n *= len(ns.pmf)
        return n

    # ----- propagation --------------------------------------------------

    def _compile(self):
        if self._compiled is None:
            plan = []
            for t in range(self.graph.horizon):
                for v in self.graph.nodes_at(t):
                    fns = self.functions.get(v, {})
                    plan.extend(
                        (v, e, compile_expr(fns[e])) for e in self.graph.outgoing(v) if e in fns
                    )
            self._compiled = tuple(plan)
        return self._compiled

    def propagate(
        self,
        msg_values: Mapping[str, Value],
        noise_values: Mapping[NodeRef, Value],
    ) -> dict[EdgeRef, Value]:
        """Forward pass: every edge transmission of one realization."""
        out: dict[EdgeRef, Value] = {e: 0 for e in self.graph.edges}
        env = EvalEnv(edges=out, msg_values=dict(msg_values), noise_values=dict(noise_values))
        for v, e, fn in self._compile():
            env.own_noise = noise_values.get(v, 0)
            out[e] = fn(env)
        return out

    # ----- JSON ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        g = self.graph
        d: dict = {
            "nodes": list(g.node_names),
            "horizon": g.horizon,
            "adjacency": "complete" if g.is_complete else sorted(map(list, g.base_edges)),
            "message": _message_to_json(self.message),
            "noise": {
                str(v): _noise_to_json(ns) for v, ns in sorted(self.noise.items())
            },
            "functions": {
                str(v): {
                    str(e.dst): expr_to_json(expr) for e, expr in sorted(fns.items())
                }
                for v, fns in sorted(self.functions.items())
            },
            "declared_inputs": sorted(self.declared_inputs),
        }
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "SystemSpec":
        """Build a system from its JSON document.

        A malformed document (a value of the wrong type, a missing key
        inside a field, a zero denominator) raises SpecParseError; a missing
        top-level field, or a well-formed document that breaks a rule of the
        model, raises ValidationError.
        """
        if not isinstance(d, dict):
            raise ValidationError("system spec must be a JSON object")
        missing = {"nodes", "horizon", "message", "functions"} - set(d)
        if missing:
            raise ValidationError(f"system spec missing fields: {sorted(missing)}")
        try:
            parts = SystemSpec._read_json_dict(d)
        except MsgflowError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"malformed system spec: {exc!r}") from exc
        return SystemSpec(*parts)

    @staticmethod
    def _read_json_dict(d: dict) -> tuple:
        """The graph, message, noise, functions and declared inputs of a document."""
        adjacency = d.get("adjacency", "complete")
        graph = UnrolledGraph(
            d["nodes"],
            d["horizon"],
            None if adjacency == "complete" else [tuple(p) for p in adjacency],
        )
        message = _message_from_json(d["message"])
        noise = {
            NodeRef.parse(k): _noise_from_json(v)
            for k, v in d.get("noise", {}).items()
        }
        functions: dict[NodeRef, dict[EdgeRef, Expr]] = {}
        for node_id, fns in d["functions"].items():
            v = NodeRef.parse(node_id)
            functions[v] = {}
            for dst_id, ex in fns.items():
                dst = NodeRef.parse(dst_id)
                if dst.time != v.time + 1:
                    raise ValidationError(
                        f"function key {dst_id!r} under {node_id!r} is not at time {v.time + 1}"
                    )
                functions[v][EdgeRef(v, dst)] = parse_expr(ex)
        declared_inputs = tuple(d.get("declared_inputs", ()))
        if not all(isinstance(name, str) for name in declared_inputs):
            raise SpecParseError("declared inputs must be node names")
        return graph, message, noise, functions, declared_inputs


# ----- the column forward pass ------------------------------------------


def compress(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber codes to 0..m-1, keeping their order; returns (codes, m)."""
    uniq, inverse = np.unique(key, return_inverse=True)
    return inverse, len(uniq)


def mixed_radix(columns: Iterable[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """One code per row for the joint value of several code columns.

    ``columns`` holds (codes, code count) pairs, combined in mixed radix in
    the order given.  A code count above the row count ``n`` is compressed
    at once, so codes stay below n times a column's count and never
    overflow.  Returns the codes and their count.
    """
    key, k = np.zeros(n, dtype=np.int64), 1
    for codes, size in columns:
        key, k = key * size + codes, k * size
        if k > n:
            key, k = compress(key)
    return key, k


def first_rows(key: np.ndarray, k: int) -> np.ndarray:
    """The first row holding each distinct code (all below ``k``), ascending."""
    n = len(key)
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, key, np.arange(n))
    return np.sort(first[first < n])


def _strict(v: Value):
    """A key that tells equal values of different types apart: 1, Fraction(1), 1.0."""
    return tuple(map(_strict, v)) if isinstance(v, tuple) else (type(v), v)


class _Column:
    """The values of one column of the pass.

    Node functions see values told apart by type as well as by equality
    (``xor`` accepts 1 but not Fraction(1)); the table merges equal values,
    keeping the first one seen.  Both are numbered in order of first sight.
    """

    __slots__ = ("_index", "objs", "table", "table_code")

    def __init__(self) -> None:
        self._index: dict = {}
        self.objs: list = []
        self.table: dict = {}
        self.table_code: list[int] = []

    def code(self, v: Value) -> int:
        key = _strict(v)
        c = self._index.get(key)
        if c is None:
            c = self._index[key] = len(self.objs)
            self.objs.append(v)
            self.table_code.append(self.table.setdefault(v, len(self.table)))
        return c


class ColumnPass:
    """The forward pass over whole columns of realizations, for both engines.

    A call takes the sources of n realizations: an index array into the
    message pmf (float draws for a gaussian message, zeros for a derived
    one) and, per noise node, an index array into its pmf or float draws.
    It returns every message and edge column, in ``variables`` order, as an
    int64 code array of shape (columns, n) into the decode lists
    ``values()``.  Codes number values in order of first appearance and
    stay fixed across calls, so the chunks of one grid share them.

    Each compiled node function, and each derived message component, runs
    once per distinct combination of the columns it reads (``leaf_refs``),
    in order of the combination's first row, and its result is mapped back
    to every row.  A function given the same inputs returns the same value,
    and columns tell values apart by type, so every row gets exactly the
    value ``SystemSpec.propagate`` computes for it, and the first value
    seen of each column is the one the first row holds.
    """

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        g, m = spec.graph, spec.message
        edges = tuple(e for t in range(g.horizon) for e in g.edges_at(t))
        self.variables: tuple = tuple(m.components) + edges
        # Columns by slot: the variables first, then the noise nodes.
        self._slot = {key: i for i, key in enumerate((*self.variables, *spec.noise))}
        self._cols = [_Column() for _ in self._slot]
        fns = [(None, name, x) for name, x in zip(m.components, m.exprs or ())]
        fns += [(e.src, e, spec.expr_for(e)) for e in edges]
        # (node, slot, compiled function, columns read)
        self._fns = [
            (v, self._slot[key], compile_expr(x), self._reads(x, v)) for v, key, x in fns
        ]

    def _reads(self, expr: Expr, v: Optional[NodeRef]) -> tuple:
        """The columns ``expr`` reads at node ``v``, in order of first use, as
        (slot, EvalEnv field, key) triples."""
        reads: dict = {}
        for kind, payload in leaf_refs(expr):
            if kind == "edge":
                reads[payload] = "edges"
            elif kind == "msg":
                # A bare leaf sees every component, so that it stays ambiguous
                # when there are several, as in ``propagate``.
                names = self.spec.message.components if payload is None else (payload,)
                reads.update(dict.fromkeys(names, "msg_values"))
            else:
                node = v if payload is None else payload
                if node in self.spec.noise:  # a node without noise reads 0
                    reads[node] = "noise_values"
        return tuple((self._slot[key], field, key) for key, field in reads.items())

    def values(self) -> list[tuple]:
        """The decode list of each column, in ``variables`` order."""
        return [tuple(col.table) for col in self._cols[: len(self.variables)]]

    def __call__(self, msg: np.ndarray, noise: Mapping[NodeRef, np.ndarray]) -> np.ndarray:
        spec, n = self.spec, len(msg)
        out = np.empty((len(self.variables), n), dtype=np.int64)
        # Each column's codes by slot, the variables' ones written in place into out.
        codes: list = [*out, *([None] * len(spec.noise))]
        for v, draws in noise.items():
            pmf, i = spec.noise[v].pmf, self._slot[v]
            codes[i] = _source(self._cols[i], draws, pmf and [x for x, _ in pmf])
        if spec.message.kind != "derived":
            pmf = spec.message.pmf
            for j in range(len(spec.message.components)):
                codes[j][:] = _source(self._cols[j], msg, pmf and [x[j] for x, _ in pmf])
        for v, i, fn, reads in self._fns:
            codes[i][:] = self._apply(v, self._cols[i], fn, reads, codes, n)
        for row, col in zip(out, self._cols):
            row[:] = np.asarray(col.table_code, dtype=np.int64)[row]
        return out

    def _apply(self, v, col: _Column, fn, reads, codes: list, n: int) -> np.ndarray:
        """Codes of one function's column, from the columns it reads."""
        key, k = mixed_radix([(codes[i], len(self._cols[i].objs)) for i, _, _ in reads], n)

        def code_at(row: int) -> int:
            env = EvalEnv(edges={})
            for i, field, name in reads:
                getattr(env, field)[name] = self._cols[i].objs[codes[i][row]]
            env.own_noise = env.noise_values.get(v, 0)
            return col.code(fn(env))

        return _each(key, k, code_at)


def _source(col: _Column, draws: np.ndarray, support: Optional[list]) -> np.ndarray:
    """Codes of a source column: indices into ``support``, or float draws."""
    if support is None:
        uniq, key = np.unique(draws, return_inverse=True)
        return _each(key, len(uniq), lambda r: col.code(float(draws[r])))
    return _each(draws, len(support), lambda r: col.code(support[draws[r]]))


def _each(key: np.ndarray, k: int, code_at: Callable[[int], int]) -> np.ndarray:
    """Map every row to ``code_at`` of the first row with its key, calling
    it once per distinct key in order of first appearance."""
    if k == 1:
        return np.full(len(key), code_at(0), dtype=np.int64)
    lut = np.empty(k, dtype=np.int64)
    for r in first_rows(key, k).tolist():
        lut[key[r]] = code_at(r)
    return lut[key]


def _message_to_json(m: MessageSpec) -> dict:
    if m.kind == "discrete":
        return {
            "kind": "discrete",
            "components": list(m.components),
            "pmf": [
                {"value": [value_to_json(x) for x in v], "p": [p.numerator, p.denominator]}
                for v, p in m.pmf
            ],
        }
    if m.kind == "gaussian":
        return {
            "kind": "gaussian",
            "components": list(m.components),
            "variance": [m.variance.numerator, m.variance.denominator],
        }
    return {
        "kind": "derived",
        "components": list(m.components),
        "exprs": [expr_to_json(x) for x in m.exprs],
    }


def _message_from_json(d: dict) -> MessageSpec:
    kind = d.get("kind")
    if kind == "discrete":
        pmf = [
            (tuple(value_from_json(x) for x in row["value"]), Fraction(*row["p"]))
            for row in d["pmf"]
        ]
        return MessageSpec.discrete(d["components"], pmf)
    if kind == "gaussian":
        if len(d["components"]) != 1:
            raise ValidationError("gaussian messages are scalar")
        return MessageSpec.gaussian(d["components"][0], Fraction(*d["variance"]))
    if kind == "derived":
        return MessageSpec.derived(
            d["components"], [parse_expr(x) for x in d["exprs"]]
        )
    raise ValidationError(f"unknown message kind {kind!r}")


def _noise_to_json(ns: NoiseSpec) -> dict:
    if ns.kind == "discrete":
        return {
            "kind": "discrete",
            "pmf": [
                {"value": value_to_json(v), "p": [p.numerator, p.denominator]}
                for v, p in ns.pmf
            ],
        }
    return {"kind": "gaussian", "variance": [ns.variance.numerator, ns.variance.denominator]}


def _noise_from_json(d: dict) -> NoiseSpec:
    kind = d.get("kind")
    if kind == "discrete":
        return NoiseSpec.discrete(
            [(value_from_json(row["value"]), Fraction(*row["p"])) for row in d["pmf"]]
        )
    if kind == "gaussian":
        return NoiseSpec.gaussian(Fraction(*d["variance"]))
    raise ValidationError(f"unknown noise kind {kind!r}")


def load_system(path) -> SystemSpec:
    """Read a SystemSpec JSON file."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON in {path}: {exc}") from exc
    return SystemSpec.from_json_dict(d)


def save_system(spec: SystemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
