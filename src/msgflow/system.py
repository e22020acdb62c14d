"""System descriptions: graph + message law + intrinsic noise + node functions.

A system fixes, for every node of the unrolled graph, one expression per
outgoing edge.  At times >= 1 an expression may read the node's incoming
transmissions and its own intrinsic variable; at time 0 it may instead read
the message, but only at declared input nodes.  Edges without an expression
carry the constant 0, which is how sparse figures embed into the complete
graph.

Message laws come in three kinds:

* ``discrete`` — named components with an exact joint law over value tuples,
  held, as discrete noise is, as positive integer weights of gcd 1 over
  their sum, built from a document's ``[num, den]`` integers;
* ``gaussian`` — a single zero-mean scalar component with rational variance;
* ``derived``  — components defined as expressions over intrinsic variables,
  for systems whose message lives at the output rather than the input.

Every forward pass shares one compiled plan (``SystemSpec.compiled``), built
once when the system is loaded: the derived message components, then the
node functions in forward order, each with the variables it reads.  The read
rule ``SystemSpec.leaf_key`` checks each leaf as the plan compiles and
resolves it to the variable it names (an ``EdgeRef``, a message component
name or a noise ``NodeRef``) or to 0; every pass runs the functions over one
dict from variables to values.  ``propagate`` runs the plan on one
realization and is the reference the tests compare against;
:class:`ColumnPass` on whole columns of weighted rows, for the exact
enumerator and the trial sampler; the linear-Gaussian engine on affine forms
(:func:`msgflow.gaussian.linear_propagate`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import ExpressionTypeError, MsgflowError, SpecParseError, ValidationError
from .exprs import Expr, compile_expr, expr_to_json, parse_expr
from .graph import EdgeRef, NodeRef, UnrolledGraph
from .values import (
    Value,
    fraction_from_json,
    fraction_to_json,
    json_text,
    ratio_from_json,
    value_from_json,
    value_to_json,
)


def _normalize_pmf(pairs, what: str) -> tuple[tuple, tuple]:
    """A law's support and weights from (value, (num, den)) integer pairs,
    den != 0: the rows of positive p = num/den, in the order given, and
    their p over the least common denominator L of the dens, divided by the
    weights' gcd.  The weights must sum to L, since the ps sum to 1."""
    rows, seen = [], set()
    for value, (num, den) in pairs:
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise ValidationError(f"{what}: negative probability for {value!r}")
        if num == 0:
            continue
        if value in seen:
            raise ValidationError(f"{what}: duplicate support value {value!r}")
        seen.add(value)
        rows.append((value, num, den))
    lcm = math.lcm(*(den for _, _, den in rows))
    weights = [num * (lcm // den) for _, num, den in rows]
    if sum(weights) != lcm:
        raise ValidationError(
            f"{what}: probabilities sum to {Fraction(sum(weights), lcm)}, expected 1"
        )
    g = math.gcd(*weights)
    return tuple(v for v, _, _ in rows), tuple(w // g for w in weights)


def _ratios(pmf) -> list:
    """(value, p) rows, p anything ``Fraction()`` takes, as (value, (num, den))."""
    return [(v, Fraction(p).as_integer_ratio()) for v, p in pmf]


class _Law:
    """A discrete law: its ``support`` and positive integer ``weights`` of gcd
    1, each value's probability its weight over the weights' sum."""

    @property
    def pmf(self) -> Optional[tuple]:
        """(value, Fraction probability) pairs, in support order."""
        if self.weights is None:
            return None
        d = sum(self.weights)
        return tuple((v, Fraction(w, d)) for v, w in zip(self.support, self.weights))


@dataclass(frozen=True)
class MessageSpec(_Law):
    kind: str  # "discrete" | "gaussian" | "derived"
    components: tuple[str, ...]
    support: Optional[tuple] = None  # discrete: (component values...) per row
    weights: Optional[tuple[int, ...]] = None  # discrete
    variance: Optional[Fraction] = None  # gaussian
    exprs: Optional[tuple[Expr, ...]] = None  # derived, one per component

    @staticmethod
    def discrete(components, pmf) -> "MessageSpec":
        """(value, p) rows, p anything ``Fraction()`` takes."""
        as_tuple = lambda v: tuple(v) if isinstance(v, (list, tuple)) else (v,)
        return MessageSpec._discrete(components, ((as_tuple(v), p) for v, p in _ratios(pmf)))

    @staticmethod
    def _discrete(components, rows) -> "MessageSpec":
        """(value tuple, (num, den)) rows, as ``_normalize_pmf`` takes them."""
        components = tuple(components)
        support, weights = _normalize_pmf(rows, "message")
        for v in support:
            if len(v) != len(components):
                raise ValidationError(
                    f"message value {v!r} does not match components {components}"
                )
        return MessageSpec("discrete", components, support, weights)

    @staticmethod
    def bernoulli(name: str = "M", p=Fraction(1, 2)) -> "MessageSpec":
        return MessageSpec.discrete((name,), (((0,), 1 - Fraction(p)), ((1,), p)))

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
class NoiseSpec(_Law):
    kind: str  # "discrete" | "gaussian"
    support: Optional[tuple] = None
    weights: Optional[tuple[int, ...]] = None
    variance: Optional[Fraction] = None

    @staticmethod
    def discrete(pmf) -> "NoiseSpec":
        """(value, p) rows, p anything ``Fraction()`` takes."""
        return NoiseSpec("discrete", *_normalize_pmf(_ratios(pmf), "noise"))

    @staticmethod
    def bernoulli(p=Fraction(1, 2)) -> "NoiseSpec":
        return NoiseSpec.discrete(((0, 1 - Fraction(p)), (1, p)))

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
        # The joint's columns: message components, then edges in forward time order.
        edges = [e for t in range(graph.horizon) for e in graph.edges_at(t)]
        self.variables: tuple = (*message.components, *edges)
        fns = {e: x for fs in self.functions.values() for e, x in fs.items()}
        steps = list(zip(message.components, message.exprs or ()))
        steps += [(e, fns[e]) for e in edges if e in fns]
        self._compiled = tuple(self._compile(var, x) for var, x in steps)

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
            for e in fns:
                if e not in out:
                    raise ValidationError(f"{v} has no outgoing edge {e}")
        if self.message.kind == "derived":
            if len(self.message.exprs or ()) != len(self.message.components):
                raise ValidationError("a derived message needs one expression per component")

    # ----- structural queries ------------------------------------------

    @property
    def is_gaussian(self) -> bool:
        return self.message.kind == "gaussian"

    @property
    def is_continuous(self) -> bool:
        """A gaussian message or some gaussian noise: draws that are floats."""
        return self.is_gaussian or any(n.kind == "gaussian" for n in self.noise.values())

    def noise_nodes(self) -> tuple[NodeRef, ...]:
        return tuple(sorted(self.noise))

    def sources(self) -> Optional[dict[EdgeRef, frozenset]]:
        """The independent random sources each edge reads, or None.

        A source is a noise node (its ``NodeRef``) or, when the message has
        several components, the whole message as one source (the tuple of
        its component names): components need not be independent of each
        other, and a query conditions on only one of them.  A
        single-component message is no source, because every query
        conditions on it.  An edge reads the noise and message leaves of its
        expression and, transitively, the sources of the edges it reads;
        the set may be larger than what the edge depends on, never smaller.
        Given the queried message component the sources are mutually
        independent.  A derived message is a function of the noise, so no
        such split exists and the method returns None.
        """
        if self.message.kind == "derived":
            return None
        components = self.message.components
        message = frozenset([components]) if len(components) > 1 else frozenset()
        out = dict.fromkeys(self.variables[len(components):], frozenset())
        for e, _, reads in self.compiled():
            out[e] = frozenset().union(
                *(out[k] if isinstance(k, EdgeRef) else {k} if isinstance(k, NodeRef) else message
                  for k in reads)
            )
        return out

    def realization_count(self) -> int:
        """Number of (message, noise) realizations the exact engine enumerates."""
        if self.is_continuous:
            raise ValidationError("a system with a gaussian source is not enumerable")
        n = len(self.message.support) if self.message.kind == "discrete" else 1
        for ns in self.noise.values():
            n *= len(ns.support)
        return n

    # ----- propagation --------------------------------------------------

    def compiled(self) -> tuple:
        """The plan, built once when the system is constructed: (variable,
        compiled function, the variables it reads in order of first use) for
        each derived message component, then for each edge with a function
        in forward order.  An edge without one carries 0."""
        return self._compiled

    def _compile(self, var, expr: Expr) -> tuple:
        """One step of the plan: ``var``'s compiled function and what it reads."""
        key, reads = self.leaf_key(var.src if isinstance(var, EdgeRef) else None, var), {}

        def read(kind: str, payload):
            k = key(kind, payload)
            if k is not None:
                reads.setdefault(k)
            return k

        return var, compile_expr(expr, read), tuple(reads)

    def leaf_key(self, v: Optional[NodeRef], var=None) -> Callable:
        """The read rule, as ``compile_expr``'s resolver for the function of
        ``var`` at node ``v`` (None: a derived message component).  It checks
        each leaf, raising ValidationError, and returns what the leaf reads:

        * an edge leaf, only of an incoming edge of v: that ``EdgeRef``;
        * a bare noise leaf: v, or None (0) when v has no noise; a named one
          must name v, and v must have noise;
        * a msg leaf, only at a declared input at time 0: the component it
          names, or when bare the message's sole component;
        * a derived component reads only named noise leaves of nodes with noise.
        """
        comps, noise, who = self.message.components, self.noise, f"function for {var}"
        incoming = frozenset(self.graph.incoming(v)) if v is not None else ()

        def key(kind: str, payload):
            if v is None:
                if kind != "noise" or payload is None:
                    raise ValidationError(
                        "derived message expressions may only read named intrinsic variables"
                    )
                if payload not in noise:
                    raise ValidationError(f"derived message reads {payload}, which has no noise")
            elif kind == "edge" and payload not in incoming:
                raise ValidationError(f"{who} reads {payload}, not an incoming edge of {v}")
            elif kind == "noise":
                if payload is None:
                    return v if v in noise else None
                if payload != v:
                    raise ValidationError(
                        f"{who} reads intrinsic variable of another node {payload}"
                    )
                if payload not in noise:
                    raise ValidationError(f"{who} reads {payload}, which has no noise")
            elif kind == "msg":
                if v.time != 0 or v.name not in self.declared_inputs:
                    raise ValidationError(
                        f"{who} reads the message but {v} is not a declared input"
                    )
                if payload is None:
                    if len(comps) != 1:
                        raise ValidationError(
                            f"{who} reads a bare msg leaf, but the message has several components"
                        )
                    return comps[0]
                if payload not in comps:
                    raise ValidationError(f"unknown message component {payload!r}")
            return payload

        return key

    def propagate(
        self,
        msg_values: Mapping[str, Value],
        noise_values: Mapping[NodeRef, Value],
    ) -> dict[EdgeRef, Value]:
        """Forward pass: every edge transmission of one realization.  A
        derived message's components are computed from ``noise_values``."""
        for v in self.noise:
            if v not in noise_values:
                raise ValidationError(f"propagate needs a value of the noise at {v}")
        env: dict = dict.fromkeys(self.graph.edges, 0)
        env.update(msg_values)
        env.update(noise_values)
        for e, fn, _ in self.compiled():
            env[e] = fn(env)
        return {e: env[e] for e in self.graph.edges}

    # ----- JSON ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        g = self.graph
        d: dict = {
            "nodes": list(g.node_names),
            "horizon": g.horizon,
            "adjacency": "complete" if g.is_complete else sorted(map(list, g.base_edges)),
            "message": {
                "components": list(self.message.components),
                **_law_to_json(self.message, lambda v: list(map(value_to_json, v))),
            },
            "noise": {
                str(v): _law_to_json(ns, value_to_json) for v, ns in sorted(self.noise.items())
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

        A malformed document (not an object, a missing key at any level, a
        value of the wrong type, a zero denominator) raises SpecParseError; a
        well-formed document that breaks a rule of the model raises
        ValidationError.
        """
        if not isinstance(d, dict):
            raise SpecParseError("system spec must be a JSON object")
        missing = {"nodes", "horizon", "message", "functions"} - set(d)
        if missing:
            raise SpecParseError(f"system spec missing fields: {sorted(missing)}")
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
        pairs, horizon = d.get("adjacency", "complete"), d["horizon"]
        if type(horizon) is not int:  # a JSON boolean is a Python int, but no horizon
            raise SpecParseError(f"horizon must be an integer: {horizon!r}")
        graph = UnrolledGraph(
            _names(d["nodes"], "nodes"),
            horizon,
            None if pairs == "complete" else [_names(p, "adjacency pair", 2) for p in pairs],
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
                functions[v][EdgeRef(v, NodeRef.parse(dst_id))] = parse_expr(ex)
        declared_inputs = _names(d.get("declared_inputs", []), "declared inputs")
        return graph, message, noise, functions, declared_inputs


def _names(value, what: str, n: Optional[int] = None) -> tuple:
    """A JSON array of names, ``n`` of them if given; a string is none."""
    if not isinstance(value, list) or n not in (None, len(value)) or not all(
        isinstance(x, str) for x in value
    ):
        raise SpecParseError(f"{what} must be an array of {n or 'any number of'} names: {value!r}")
    return tuple(value)


# ----- the column forward pass ------------------------------------------


_INT64_MAX = int(np.iinfo(np.int64).max)


def compress(key: np.ndarray, k: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Renumber the distinct values of ``key`` to 0..m-1, keeping their order;
    returns (codes, m), the inverse and count of ``np.unique``.

    When the caller knows every code lies below ``k`` and k is at most twice
    the row count, a presence table ranks them in O(n + k) without a sort:
    the rank of a present code is the number of present codes below it.
    Otherwise ``np.unique`` sorts.
    """
    if k is None or k > 2 * len(key):
        uniq, inverse = np.unique(key, return_inverse=True)
        return inverse, len(uniq)
    seen = np.zeros(k, dtype=np.int64)
    seen[key] = 1
    present = seen.cumsum()  # present codes up to and including each code
    return present[key] - 1, int(present[-1])


def mixed_radix(columns: Iterable[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """One code per row for the joint value of several code columns.

    ``columns`` holds (int64 codes, code count) pairs, combined in mixed
    radix in the order given; returns the codes and a bound k above them.
    A first column that needs no compression is returned itself, to be
    read only.

    Columns are multiplied in without renumbering.  Before a product whose
    bound would pass int64 the key is compressed to its m <= n distinct
    values, so the next bound is at most n times a column's count, and a
    bound above ``n`` is compressed once at the end: no code overflows, and
    k <= n.  Mixed radix orders rows by their values, first column most
    significant, and each compression is monotone, so the codes give the
    same partition of the rows, in the same order, as compressing after
    every column would; only their values may differ.
    """
    key, k = np.zeros(n, dtype=np.int64), 1
    for codes, size in columns:
        if k * size > _INT64_MAX:
            key, k = compress(key, k)
        # While k is 1 the key is all zeros, and the product is the column.
        key = key * size + codes if k > 1 else codes.astype(np.int64, copy=False)
        k *= size
    if k > n:
        key, k = compress(key, k)
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
    """The forward pass over whole columns of weighted rows, for both engines.

    ``outcomes`` walks the noise sources one at a time, on the schedule the
    constructor builds from what each function reads: the exact enumerator
    splits rows by integer law weights, the trial sampler by multinomial
    counts.

    Each step of the plan (``SystemSpec.compiled``), a derived message
    component or a node function, runs once per distinct combination of the
    columns it reads, in order of the combination's first row, and
    its result is mapped back to every row.  A function given the same
    inputs returns the same value, and columns tell values apart by type,
    so every row gets exactly the value ``SystemSpec.propagate`` computes
    for it, and the first value seen of each column is the one the first
    row holds.  An error names the failing function's column: ``edge
    A0->B1: ...``.
    """

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        self.variables = spec.variables
        edges = self.variables[len(spec.message.components):]
        # Columns by slot: the variables first, then the noise nodes.
        self._slot = {key: i for i, key in enumerate((*self.variables, *spec.noise))}
        self._cols = [_Column() for _ in self._slot]
        # (slot, compiled function, columns read as (slot, variable))
        self._fns = [
            (self._slot[var], fn, tuple((self._slot[k], k) for k in reads))
            for var, fn, reads in spec.compiled()
        ]
        # A column without a function is the constant 0, coded once here.
        self._zeros = {self._slot[e] for e in edges} - {i for i, _, _ in self._fns}
        for j in self._zeros:
            self._cols[j].code(0)
        # Per function, the noise nodes it reads first and the slots of those
        # whose last reader it is.
        first: dict = {}
        last: dict = {}
        for i, (_, _, reads) in enumerate(self._fns):
            for j, key in reads:
                if isinstance(key, NodeRef):
                    first.setdefault(key, i)
                    last[j] = i
        self._schedule = [([], []) for _ in self._fns]
        for key, i in first.items():
            self._schedule[i][0].append(key)
        for j, i in last.items():
            self._schedule[i][1].append(j)

    def outcomes(
        self, supports: Mapping, start: tuple, split: Callable
    ) -> tuple[np.ndarray, list[tuple], np.ndarray]:
        """The distinct outcomes of weighted rows of (message, noise) values.

        ``supports`` maps the message (key None) to its value tuples, one
        empty tuple for a derived message, and each noise node to its
        values.  ``start`` holds the message rows: their weights and indices
        into ``supports[None]``.  ``split(u, w)`` gives the children of rows
        of weights ``w`` under noise node u: each child's parent row, weight
        and index into ``supports[u]``.  Rows and children have positive
        weights.  A realization's index is its values' indices in mixed
        radix over the supports (message most significant, then the noise
        nodes sorted), ``itertools.product`` order.  Returns the code
        columns, in ``variables`` order, their decode lists and each
        outcome's summed weight, outcomes in order of their least index.

        The rows span the columns computed so far and the live noise
        sources.  Before a function runs they are split by each source it
        reads first.  After it runs,
        the sources it reads last are dropped and the rows now equal merge,
        summing their weights and keeping the least index.  Rows are keyed
        by strict codes, which tell 1 from 1.0 for the functions still to
        run; rows that differ only there merge at the end.  A source no
        function reads is never split.
        """
        spec = self.spec
        order = [None, *spec.noise_nodes()]
        itype = np.int64 if math.prod(len(supports[u]) for u in order) <= _INT64_MAX else object
        offsets, stride = {}, 1
        for u in reversed(order):
            offsets[u] = np.array([j * stride for j in range(len(supports[u]))], dtype=itype)
            stride *= len(supports[u])
        weights, pick = start
        index, n = offsets[None][pick], len(pick)
        # Codes by slot of the computed columns and the live sources; every
        # constant column holds the one array ``zero``.
        zero = np.zeros(n, dtype=np.int64)
        held: list = [zero if j in self._zeros else None for j in range(len(self._cols))]
        if spec.message.kind != "derived":
            for j in range(len(spec.message.components)):
                held[j] = _codes(self._cols[j], [x[j] for x in supports[None]], pick)
        # A key over the columns computed up to the last merge, the
        # non-constant slots computed since, and the live sources.
        done, k_done, fresh, live = np.arange(n), n, [], []
        for (i, fn, reads), (expand, retire) in zip(self._fns, self._schedule):
            for u in expand:
                parent, weights, pick = split(u, weights)
                n, j = len(pick), self._slot[u]
                z = np.zeros(n, dtype=np.int64)
                held = [c if c is None else z if c is zero else c[parent] for c in held]
                held[j] = _codes(self._cols[j], supports[u], pick)
                zero, done, index = z, done[parent], index[parent] + offsets[u][pick]
                live.append(j)
            held[i] = self._apply(i, fn, reads, held, n)
            if len(self._cols[i].objs) == 1:
                held[i] = zero
            else:
                fresh.append(i)
            if not retire:
                continue
            for j in retire:
                held[j] = None
                live.remove(j)
            done, k_done = mixed_radix(
                [(done, k_done), *((held[j], len(self._cols[j].objs)) for j in fresh)], n
            )
            fresh = []
            key, k = mixed_radix(
                [(done, k_done), *((held[j], len(self._cols[j].objs)) for j in live)], n
            )
            key, m = compress(key, k)
            if m < n:
                rep = np.empty(m, dtype=np.int64)
                rep[key] = np.arange(n)
                merged = np.zeros(m, dtype=weights.dtype)
                np.add.at(merged, key, weights)
                least = index[rep]
                np.minimum.at(least, key, index)
                z = np.zeros(m, dtype=np.int64)
                held = [c if c is None else z if c is zero else c[rep] for c in held]
                zero, done, weights, index, n = z, done[rep], merged, least, m
        return self._table(held, weights, np.argsort(index))

    def _table(self, held: list, weights: np.ndarray, order: np.ndarray) -> tuple:
        """The walk's rows in ``order`` as table codes, decode lists and weights.

        Each column's strict codes map to its table codes.  A column whose
        codes then do not number its values by first appearance, or that
        merged equal values of different types, is renumbered, and each of
        its values is decoded by the value its first row holds.  Rows that
        became equal merge into the first, summing their weights.
        """
        cols = self._cols[: len(self.variables)]
        out = np.zeros((len(cols), len(order)), dtype=np.int64)
        values = []
        for j, col in enumerate(cols):
            values.append(tuple(col.table))
            if len(col.objs) == 1:  # a constant column: every code is 0
                continue
            strict = held[j][order]
            held[j] = None
            k = len(col.table)
            # Without merged values the table codes are the strict codes.
            if len(col.objs) == k and _first_seen(strict, k):
                out[j] = strict
                continue
            codes = np.asarray(col.table_code, dtype=np.int64)[strict]
            first = first_rows(codes, k)
            lut = np.empty(k, dtype=np.int64)
            lut[codes[first]] = np.arange(k)
            out[j] = lut[codes]
            values[j] = tuple(col.objs[s] for s in strict[first].tolist())
        weights = weights[order]
        if any(len(col.objs) > len(col.table) for col in cols):
            key, k = mixed_radix(zip(out, map(len, values)), len(order))
            first = first_rows(key, k)
            if len(first) < len(order):
                lut = np.empty(k, dtype=np.int64)
                lut[key[first]] = np.arange(len(first))
                merged = np.zeros(len(first), dtype=weights.dtype)
                np.add.at(merged, lut[key], weights)
                out, weights = out[:, first], merged
        return out, values, weights

    def _apply(self, slot: int, fn, reads, codes: list, n: int) -> np.ndarray:
        """Codes of one function's column, from the columns it reads."""
        col = self._cols[slot]
        key, k = mixed_radix([(codes[i], len(self._cols[i].objs)) for i, _ in reads], n)

        def code_at(row: int) -> int:
            return col.code(fn({var: self._cols[i].objs[codes[i][row]] for i, var in reads}))

        try:
            return _each(key, k, code_at)
        except ExpressionTypeError as exc:
            name = self.variables[slot]
            what = "edge" if isinstance(name, EdgeRef) else "message component"
            raise ExpressionTypeError(f"{what} {name}: {exc}") from exc


def _codes(col: _Column, support: list, pick: np.ndarray) -> np.ndarray:
    """Codes of the source values ``support[pick]``, coding only values some
    row holds, in support order."""
    lut = np.zeros(len(support), dtype=np.int64)
    lut[pick] = 1
    for x in np.flatnonzero(lut).tolist():
        lut[x] = col.code(support[x])
    return lut[pick]


def _first_seen(codes: np.ndarray, k: int) -> bool:
    """Whether ``codes``, which hold each of 0..k-1, number their values in
    order of first appearance: each code is at most one above every code
    before it, starting from 0."""
    if codes[0] != 0 or k <= 2:
        return codes[0] == 0
    top = np.maximum.accumulate(codes)
    return not np.any(codes[1:] > top[:-1] + 1)


def _each(key: np.ndarray, k: int, code_at: Callable[[int], int]) -> np.ndarray:
    """Map every row to ``code_at`` of the first row with its key, calling
    it once per distinct key in order of first appearance."""
    if k == 1:
        return np.full(len(key), code_at(0), dtype=np.int64)
    lut = np.empty(k, dtype=np.int64)
    for r in first_rows(key, k).tolist():
        lut[key[r]] = code_at(r)
    return lut[key]


def _law_to_json(law: MessageSpec | NoiseSpec, value: Callable) -> dict:
    """A message or noise law's document; ``value`` encodes one support value."""
    if law.kind == "discrete":
        pmf = [{"value": value(v), "p": fraction_to_json(p)} for v, p in law.pmf]
        return {"kind": "discrete", "pmf": pmf}
    if law.kind == "gaussian":
        return {"kind": "gaussian", "variance": fraction_to_json(law.variance)}
    return {"kind": "derived", "exprs": [expr_to_json(x) for x in law.exprs]}


def _pmf_from_json(d: dict, value: Callable) -> list:
    """A discrete law's (value, (num, den)) rows; ``value`` decodes a value."""
    return [(value(row["value"]), ratio_from_json(row["p"], "p")) for row in d["pmf"]]


def _message_from_json(d: dict) -> MessageSpec:
    kind, components = d.get("kind"), d["components"]
    # A string would read as its characters; element types are a model rule.
    if not isinstance(components, list):
        raise SpecParseError(f"message components must be an array: {components!r}")
    if kind == "discrete":
        pmf = _pmf_from_json(d, lambda v: tuple(map(value_from_json, v)))
        return MessageSpec._discrete(components, pmf)
    if kind == "gaussian":
        if len(components) != 1:
            raise ValidationError("gaussian messages are scalar")
        variance = fraction_from_json(d["variance"], "variance")
        return MessageSpec.gaussian(components[0], variance)
    if kind == "derived":
        return MessageSpec.derived(components, [parse_expr(x) for x in d["exprs"]])
    raise ValidationError(f"unknown message kind {kind!r}")


def _noise_from_json(d: dict) -> NoiseSpec:
    kind = d.get("kind")
    if kind == "discrete":
        return NoiseSpec("discrete", *_normalize_pmf(_pmf_from_json(d, value_from_json), "noise"))
    if kind == "gaussian":
        return NoiseSpec.gaussian(fraction_from_json(d["variance"], "variance"))
    raise ValidationError(f"unknown noise kind {kind!r}")


def load_system(path) -> SystemSpec:
    """Read a SystemSpec JSON file."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON in {path}: {exc}") from exc
    return SystemSpec.from_json_dict(d)


def save_system(spec: SystemSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(spec.to_json_dict()) + "\n")
