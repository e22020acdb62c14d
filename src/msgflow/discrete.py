"""Discrete joint tables, for exact joints and sampled trials alike.

One table serves both engines.  Each column (a message component or an edge
transmission) is an integer code array, its values numbered in order of first
appearance, with a decode list of those values; each row carries an integer
weight:

* an exact joint (``enumerate_joint``) holds every distinct outcome of the
  system once, weighted by its probability over the least common denominator;
* sampled trials (``sampling.sample_trials``) hold one row per trial, each of
  weight 1.

Every query asks one question of one (c, a, b) weight grid, built by
``weight_grid`` with C compressed to its observed strata:

* ``dependent`` — an exact yes/no decision of I(A;B|C) > 0.  A and B are
  independent given C exactly when every cell of the full grid factorizes,
  w_abc·w_c == w_ac·w_bc; empty cells take part too, so no separate
  zero-cell pass is needed.  Flow verdicts are always taken from
  ``dependent``, never from a float threshold.
* ``cmi`` — I(A;B|C) in bits as a float, for display; on trials it is the
  plug-in estimate.
* the permutation test of :mod:`msgflow.sampling` reads its per-stratum
  contingency tables from the same grid.

Weights are int64 when the squared total weight fits in int64, so no product
of two margins can overflow; otherwise they are Python ints in object arrays,
run through the same code.  The choice is made from the data, and no float
enters a verdict.

Variable identifiers are message component names (strings) and
:class:`~msgflow.graph.EdgeRef` objects.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .graph import EdgeRef
from .system import SystemSpec
from .values import value_str

# Aliases use ``|``: typing.Union caches its results, which would keep the
# classes of a reloaded package alive.
VarId = str | EdgeRef

DEFAULT_BUDGET = 2 ** 24

_INT64_MAX = int(np.iinfo(np.int64).max)


class JointVariables:
    """Variable bookkeeping shared by every joint: messages, edges, times."""

    def __init__(self, variables: Sequence[VarId]) -> None:
        self.variables: tuple[VarId, ...] = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValidationError("duplicate variable ids")
        self.message_vars: tuple[str, ...] = tuple(
            v for v in self.variables if isinstance(v, str)
        )
        self.edge_vars: tuple[EdgeRef, ...] = tuple(
            v for v in self.variables if isinstance(v, EdgeRef)
        )
        edges_at: dict[int, list[EdgeRef]] = {}
        for e in self.edge_vars:
            edges_at.setdefault(e.time, []).append(e)
        self._edges_at = {t: tuple(es) for t, es in edges_at.items()}

    def default_message(self, message: Optional[str] = None) -> str:
        if message is not None:
            if not isinstance(message, str) or message not in self._index:
                raise ValidationError(f"unknown message variable {message!r}")
            return message
        if len(self.message_vars) != 1:
            raise ValidationError(
                f"message is ambiguous, choose one of {self.message_vars}"
            )
        return self.message_vars[0]

    def times(self) -> tuple[int, ...]:
        return tuple(sorted(self._edges_at))

    def edges_at(self, t: int) -> tuple[EdgeRef, ...]:
        return self._edges_at.get(t, ())

    def has_var(self, v: VarId) -> bool:
        return v in self._index

    def _col(self, v: VarId) -> int:
        if v not in self._index:
            raise ValidationError(f"unknown variable {v}")
        return self._index[v]


def _check_sets(a, b, c) -> None:
    sa, sb, sc = set(a), set(b), set(c)
    if sa != sb and sa & sb:
        raise ValidationError("first two variable sets must be disjoint or identical")
    if sc & (sa | sb):
        raise ValidationError("conditioning set overlaps the queried sets")


def _compress(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber codes to 0..k-1, keeping their order."""
    uniq, inverse = np.unique(code, return_inverse=True)
    return inverse, len(uniq)


class DiscreteJoint(JointVariables):
    """A finite joint: integer-coded columns and integer row weights.

    ``weights`` are non-negative rationals, scaled to integers over their
    least common denominator; row i has probability ``weights[i] / total``.
    Without weights every row (trial) has weight 1.
    """

    def __init__(
        self,
        variables: Sequence[VarId],
        rows: Iterable[tuple],
        weights: Optional[Sequence] = None,
    ) -> None:
        super().__init__(variables)
        rows = list(rows)
        width, n = len(self.variables), len(rows)
        if any(len(row) != width for row in rows):
            raise ValidationError(f"every row needs {width} values")
        if weights is None:
            ints = [1] * n
        else:
            fracs = [Fraction(w) for w in weights]
            if len(fracs) != n:
                raise ValidationError("rows and weights differ in length")
            if any(w < 0 for w in fracs):
                raise ValidationError("negative weight")
            denom = math.lcm(*(w.denominator for w in fracs))
            ints = [int(w * denom) for w in fracs]
        self.total = sum(ints)
        if self.total <= 0:
            raise ValidationError("the table has no weight")
        dtype = np.int64 if self.total * self.total <= _INT64_MAX else object
        self.weights = np.array(ints, dtype=dtype)

        self.codes = np.empty((width, n), dtype=np.int64)
        values = []
        for j in range(width):
            index: dict = {}
            self.codes[j] = [index.setdefault(row[j], len(index)) for row in rows]
            values.append(tuple(index))
        self.values: tuple[tuple, ...] = tuple(values)
        self._finite = [not any(isinstance(x, float) for x in vs) for vs in values]

    # ----- rows and columns --------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.weights)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The decoded rows, in table order."""
        return tuple(zip(*(self.column(v) for v in self.variables)))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(w), self.total) for w in self.weights)

    def column(self, v: VarId) -> list:
        j = self._col(v)
        values = self.values[j]
        return [values[c] for c in self.codes[j].tolist()]

    def support(self, v: VarId) -> tuple:
        """The values of ``v``, in order of first appearance."""
        return self.values[self._col(v)]

    def is_constant(self, v: VarId) -> bool:
        return len(self.values[self._col(v)]) <= 1

    # ----- information queries -----------------------------------------

    def _code(self, vars: Sequence[VarId]) -> tuple[np.ndarray, int]:
        """One code per row for the joint value of ``vars``, and the code count.

        Columns are combined in mixed radix, in the order given; a code
        count above the row count is compressed at once, so codes stay
        below rows² and never overflow.  A combination of several columns
        is compressed to its observed values, which keeps their order.
        """
        code, k = np.zeros(self.n_rows, dtype=np.int64), 1
        for v in vars:
            j = self._col(v)
            if not self._finite[j]:
                raise ValidationError(
                    f"column {v} is continuous; CI tests need finite alphabets"
                )
            kv = len(self.values[j])
            code, k = code * kv + self.codes[j], k * kv
            if k > self.n_rows:
                code, k = _compress(code)
        if len(vars) > 1:
            code, k = _compress(code)
        return code, k

    def weight_grid(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> np.ndarray:
        """Total weight of each (c, a, b) value combination, shape (kc, ka, kb).

        A single column keeps its first-appearance codes; several columns
        are numbered in mixed-radix order over their observed values.  Each
        of kc, ka and kb is at most the row count.
        """
        _check_sets(a_vars, b_vars, c_vars)
        a, ka = self._code(a_vars)
        b, kb = self._code(b_vars)
        c, kc = self._code(c_vars)
        grid = np.zeros(kc * ka * kb, dtype=self.weights.dtype)
        np.add.at(grid, (c * ka + a) * kb + b, self.weights)
        return grid.reshape(kc, ka, kb)

    def dependent(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> bool:
        """Exact test of I(A;B|C) > 0: some cell fails w_abc·w_c == w_ac·w_bc.

        For A == B (the same set) this decides H(A|C) > 0: a stratum with two
        values of A has an empty off-diagonal cell against positive margins.
        """
        g = self.weight_grid(a_vars, b_vars, c_vars)
        w_ac = g.sum(axis=2)
        w_bc = g.sum(axis=1)
        w_c = w_ac.sum(axis=1)
        return bool(np.any(g * w_c[:, None, None] != w_ac[:, :, None] * w_bc[:, None, :]))

    def cmi(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> float:
        """I(A;B|C) in bits.  A == B (same set) yields the conditional entropy H(A|C).

        On trials this is the plug-in estimate from the empirical counts.
        """
        g = self.weight_grid(a_vars, b_vars, c_vars)
        w_ac = g.sum(axis=2)
        w_bc = g.sum(axis=1)
        w_c = w_ac.sum(axis=1)
        live = g > 0
        num = (g * w_c[:, None, None])[live]
        den = (w_ac[:, :, None] * w_bc[:, None, :])[live]
        share = (g[live] / self.total).astype(np.float64)
        bits = float(np.sum(share * np.log2((num / den).astype(np.float64))))
        return max(bits, 0.0)

    def entropy(self, vars: Sequence[VarId]) -> float:
        """H(vars) in bits."""
        return self.cmi(vars, vars)

    # ----- CSV -----------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write a header of variable ids, then one line per row (weights are
        not written: a trial table's rows all weigh 1)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([str(c) for c in self.variables])
            for row in self.rows:
                w.writerow([value_str(x) for x in row])

    @staticmethod
    def from_csv(path) -> "DiscreteJoint":
        """Read a trial table written by ``to_csv``, one trial per line."""
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            variables = tuple(
                EdgeRef.parse(h) if "->" in h else h for h in header
            )
            rows = [tuple(_parse_cell(x) for x in row) for row in r]
        return DiscreteJoint(variables, rows)


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except ValueError:
            pass
    return text


def enumerate_joint(spec: SystemSpec, budget: int = DEFAULT_BUDGET) -> DiscreteJoint:
    """Build the exact joint of (message components, every edge transmission)."""
    if spec.is_gaussian:
        raise ValidationError("gaussian systems use linear_propagate, not enumeration")
    n_real = spec.realization_count()
    if n_real > budget:
        raise BudgetExceededError(
            f"{n_real} realizations exceed the enumeration budget of {budget}"
        )
    graph = spec.graph
    edge_order = tuple(e for t in range(graph.horizon) for e in graph.edges_at(t))
    variables: tuple = tuple(spec.message.components) + edge_order
    noise_nodes = spec.noise_nodes()
    noise_supports = [spec.noise[v].pmf for v in noise_nodes]

    acc: dict[tuple, Fraction] = {}
    order: list[tuple] = []
    if spec.message.kind == "discrete":
        msg_support = spec.message.pmf
    else:  # derived: message computed from the noise realization
        msg_support = (((), Fraction(1)),)
    for msg_tuple, p_msg in msg_support:
        for noise_choice in itertools.product(*noise_supports):
            p = p_msg
            noise_values = {}
            for v, (val, pv) in zip(noise_nodes, noise_choice):
                noise_values[v] = val
                p *= pv
            if spec.message.kind == "derived":
                mv = spec.message_values(noise_values)
                msg_values = {name: mv[name] for name in spec.message.components}
            else:
                msg_values = dict(zip(spec.message.components, msg_tuple))
            edge_values = spec.propagate(msg_values, noise_values)
            outcome = tuple(msg_values[n] for n in spec.message.components) + tuple(
                edge_values[e] for e in edge_order
            )
            if outcome not in acc:
                order.append(outcome)
                acc[outcome] = p
            else:
                acc[outcome] += p
    return DiscreteJoint(variables, order, [acc[o] for o in order])
