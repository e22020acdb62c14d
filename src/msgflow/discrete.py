"""Discrete joint tables, for exact joints and sampled trials alike.

One table serves both engines.  Each column (a message component or an edge
transmission) is an integer code array, its values numbered in order of first
appearance, with a decode list of those values; each row carries an integer
weight:

* an exact joint (``enumerate_joint``) holds every distinct outcome of the
  system once, weighted by its probability over the least common denominator;
* sampled trials (``sampling.sample_trials``) hold one row per distinct
  outcome, weighted by its count of trials, so a discrete system's trials
  have at most as many rows as its exact joint.

Both engines walk the noise sources one at a time with the column forward
pass (:meth:`~msgflow.system.ColumnPass.outcomes`) and build the table from
the code columns (``DiscreteJoint.from_codes``).  The walk splits its
weighted rows by a source just before the source's first reader runs, by
pmf numerators for the exact joint and by multinomial counts for trials, and
merges the rows that become equal once its last reader has run, so its cost
follows the distinct outcomes, not the realization or trial count.  The
pass, like the rows constructor, numbers each column's values by first
appearance and lists only values some row holds, so the table stores its
codes as given.

Every query asks one question of one (c, a, b) weight grid with C
compressed to its observed strata, and one grid query
(``DiscreteJoint.grid_query``), which codes A and each B once, serves
``weight_grid``, ``ci_query`` and the sampled cascade alike.  A grid axis
is one stored column, whose codes serve as they are, or a mixed-radix key
of several columns, renumbered over its observed values by a presence table
(``system.compress``), so building a grid sorts nothing:

* ``ci_query`` — the one question every joint answers; ``dependent`` and
  ``cmi``, written once on ``JointVariables``, are the verdict and the bits
  of one ask.  A query's grid, its margins summed once (``grid_margins``),
  gives the verdict, an exact yes/no decision of I(A;B|C) > 0: A and B are
  independent given C exactly when every cell of the full grid factorizes,
  w_abc·w_c == w_ac·w_bc (``grid_dependent``); empty cells take part too,
  so no separate zero-cell pass is needed.  Flow verdicts are always taken
  from this test, never from a float threshold.  A dependent query also
  gives the bits (``grid_cmi``; the plug-in estimate on trials) and whether
  they reach min(H(A), H(B)) exactly (``grid_saturated``), where a
  quantified search stops.
* the conditional-independence tests of :mod:`msgflow.sampling` read their
  per-stratum contingency tables from one ``grid_query`` per cascade, and
  the G-test its statistic from ``grid_cmi`` on the margins the test summed.

Weights are int64 when the squared total weight fits in int64, so no product
of two margins, the total among them, can overflow; otherwise they are Python
ints in object arrays, run through the same code.  The choice is made from
the data, and no float enters a verdict.

``to_csv`` writes the integer row weights in a last ``#weight`` column unless
every row weighs 1, so exact joints and merged trials round-trip through
``from_csv``; gaussian trials, whose draws are all distinct, keep one plain
line per trial.

Variable identifiers are message component names (strings) and
:class:`~msgflow.graph.EdgeRef` objects.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .graph import EdgeRef
from .system import _INT64_MAX, ColumnPass, SystemSpec, compress, mixed_radix
from .values import value_str

# Aliases use ``|``: typing.Union caches its results, which would keep the
# classes of a reloaded package alive.
VarId = str | EdgeRef

DEFAULT_BUDGET = 2 ** 24

WEIGHT_HEADER = "#weight"


class JointVariables:
    """Variable bookkeeping shared by every joint: messages, edges, times.

    ``edges_at(t)`` lists each slice in canonical (sorted) order, whatever
    the column order, so the flow search and its reports need not sort;
    ``candidates_at(t)`` keeps its non-constant edges, by the subclass's
    ``is_constant``, found once per slice for every search of it.

    ``sources`` maps each edge to the independent random sources it reads
    (``SystemSpec.sources``); the flow search and the sampled cascade use
    it to prune.  Exact joints and sampled trials built from a system set
    it; None, as for a derived message or a table read from CSV (``to_csv``
    writes no sources), means every edge reads one shared source.
    ``components_at(t)`` groups the slice's candidates by it, once per
    slice; assigning ``sources`` starts a new table, so a copy given other
    sources never reads or writes its original's.
    """

    def __init__(self, variables: Sequence[VarId]) -> None:
        self.sources = None
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
        for e in sorted(self.edge_vars):
            edges_at.setdefault(e.time, []).append(e)
        self._edges_at = {t: tuple(es) for t, es in edges_at.items()}
        self._candidates: dict[int, tuple[EdgeRef, ...]] = {}

    @property
    def sources(self) -> Optional[dict[EdgeRef, frozenset]]:
        return self._sources

    @sources.setter
    def sources(self, sources: Optional[dict[EdgeRef, frozenset]]) -> None:
        self._sources = sources
        self._components: dict[int, dict[EdgeRef, tuple[EdgeRef, ...]]] = {}

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

    def candidates_at(self, t: int) -> tuple[EdgeRef, ...]:
        """The non-constant edges at time t, in canonical order: the
        conditioning candidates of the slice, found once per slice."""
        cands = self._candidates.get(t)
        if cands is None:
            cands = tuple(e for e in self.edges_at(t) if not self.is_constant(e))
            self._candidates[t] = cands
        return cands

    def components_at(self, t: int) -> dict[EdgeRef, tuple[EdgeRef, ...]]:
        """Each candidate at time t mapped to its source component: the
        candidates joined to it through chains of shared sources, in
        canonical order.  Found once per slice."""
        comps = self._components.get(t)
        if comps is None:
            cands = self.candidates_at(t)
            # Without sources every edge reads one shared source.
            sources = dict.fromkeys(cands, {None}) if self.sources is None else self.sources
            merged: list[tuple[set, set]] = []  # (members, sources read), disjoint reads
            for e in cands:
                group, read, apart = {e}, set(sources[e]), []
                for g, r in merged:
                    if read.isdisjoint(r):
                        apart.append((g, r))
                    else:
                        group |= g
                        read |= r
                merged = apart + [(group, read)]
            comps = {}
            for group, _ in merged:
                comp = tuple(x for x in cands if x in group)
                comps.update(dict.fromkeys(comp, comp))
            self._components[t] = comps
        return comps

    def dependent(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> bool:
        """Exact test of I(A;B|C) > 0, the verdict of one ``ask``.
        For A == B (the same set) this decides H(A|C) > 0."""
        return self.ask(a_vars, b_vars, c_vars) is not None

    def cmi(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> float:
        """I(A;B|C) in bits, the bits of one ``ask``; 0 where it finds
        independence.  A == B (same set) yields the conditional entropy
        H(A|C).  On trials this is the plug-in estimate."""
        bits = self.ask(a_vars, b_vars, c_vars)
        return 0.0 if bits is None else bits()[0]

    def ask(self, a_vars: Sequence[VarId], b_vars: Sequence[VarId], c_vars: Sequence[VarId] = ()):
        """One ``ci_query`` ask of I(A;B|C), its sets checked: None when it
        is 0, otherwise a callable giving its bits and whether they saturate."""
        _check_sets(a_vars, b_vars, c_vars)
        return self.ci_query(a_vars)(tuple(b_vars), c_vars)

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


class DiscreteJoint(JointVariables):
    """A finite joint: integer-coded columns and integer row weights.

    ``weights`` are non-negative rationals, scaled to integers over their
    least common denominator; row i has probability ``weights[i] / total``.
    Without weights every row has weight 1.  Both engines build the
    table from code columns with ``from_codes``; this constructor takes
    decoded rows.
    """

    engine = "exact"  # the engine ``flow.analyze`` reports

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
        if weights is not None:
            fracs = [Fraction(w) for w in weights]
            denom = math.lcm(*(w.denominator for w in fracs))
            weights = [w * denom for w in fracs]
        codes = np.empty((width, n), dtype=np.int64)
        values = []
        for j in range(width):
            index: dict = {}
            codes[j] = [index.setdefault(row[j], len(index)) for row in rows]
            values.append(tuple(index))
        self._fill(codes, values, weights)

    @classmethod
    def from_codes(
        cls,
        variables: Sequence[VarId],
        codes: np.ndarray,
        values: Sequence[Sequence],
        weights: Optional[Sequence[int]] = None,
    ) -> "DiscreteJoint":
        """A table from code columns: ``codes[j]`` (int64) indexes the distinct
        values ``values[j]``, and ``weights`` are non-negative integers (1 per
        row without them).  The table keeps the codes as given, so they must
        number each column's values in order of first appearance, and every
        value must be held by some row, as the column pass and the rows
        constructor produce them."""
        table = cls.__new__(cls)
        JointVariables.__init__(table, variables)
        table._fill(codes, values, weights)
        return table

    def _fill(self, codes: np.ndarray, values: Sequence[Sequence], weights) -> None:
        width, n = codes.shape
        if width != len(self.variables) or len(values) != width:
            raise ValidationError(f"the table needs {len(self.variables)} columns")
        if weights is None:
            ints = [1] * n
        else:
            ints = [int(w) for w in weights]
            if len(ints) != n:
                raise ValidationError("rows and weights differ in length")
            if any(i != w for i, w in zip(ints, weights)):
                raise ValidationError("non-integral weight")
            if any(w < 0 for w in ints):
                raise ValidationError("negative weight")
        self.total = sum(ints)
        if self.total <= 0:
            raise ValidationError("the table has no weight")
        dtype = np.int64 if self.total * self.total <= _INT64_MAX else object
        self.weights = np.array(ints, dtype=dtype)

        self.codes = codes
        self.values: tuple[tuple, ...] = tuple(map(tuple, values))
        self._finite = [True] * width
        self._constant = {v: len(vs) <= 1 for v, vs in zip(self.variables, self.values)}

    def _floats_continuous(self) -> "DiscreteJoint":
        """Call every column that holds a float continuous, so CI queries on
        it refuse.  For tables whose draws are not known to be finite:
        trials with a gaussian source, and tables read from CSV."""
        self._finite = [not any(isinstance(x, float) for x in vs) for vs in self.values]
        return self

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
        try:
            return self._constant[v]
        except KeyError:
            raise ValidationError(f"unknown variable {v}") from None

    # ----- information queries -----------------------------------------

    def _code(self, vars: Sequence[VarId]) -> tuple[np.ndarray, int]:
        """One code per row for the joint value of ``vars``, and the code count.

        A single column is its stored codes: they are dense, every value is
        held by a row, and they number values by first appearance.  Several
        columns are combined in mixed radix (``mixed_radix``), in the order
        given, and numbered over their observed values only, in mixed-radix
        order, by a presence table (``compress``; the bound is at most the
        row count).  Either way the codes depend on the values the rows hold
        and on their order, not on the row count, so tables that differ only
        in how their rows are split or merged get the same codes.
        """
        cols = [self._col(v) for v in vars]
        for v, j in zip(vars, cols):
            if not self._finite[j]:
                raise ValidationError(
                    f"column {v} is continuous; CI tests need finite alphabets"
                )
        if len(cols) == 1:
            return self.codes[cols[0]], len(self.values[cols[0]])
        code, k = mixed_radix([(self.codes[j], len(self.values[j])) for j in cols], self.n_rows)
        return compress(code, k) if cols else (code, k)

    def weight_grid(
        self,
        a_vars: Sequence[VarId],
        b_vars: Sequence[VarId],
        c_vars: Sequence[VarId] = (),
    ) -> np.ndarray:
        """Total weight of each (c, a, b) value combination, shape (kc, ka, kb).

        Each axis is ``_code``'s: a single column keeps its first-appearance
        codes, and several columns are numbered in mixed-radix order over
        their observed values, without a sort.  Each of kc, ka and kb is at
        most the row count, and the grid is the same for any split or merge
        of rows that keeps their values, their order of first appearance
        and each value combination's total weight.
        """
        _check_sets(a_vars, b_vars, c_vars)
        return self.grid_query(a_vars)(tuple(b_vars), c_vars)

    def grid_query(self, a_vars: Sequence[VarId]):
        """``grid(B, C)`` is ``weight_grid(A, B, C)`` without its set checks:
        the one grid builder.  A is coded once and each tuple B folded once
        into the index a·kb + b, so a call codes only C (not at all when C is
        empty) and makes one ``np.add.at`` at (c·ka + a)·kb + b.  The caller
        keeps C disjoint from A and B."""
        a, ka = self._code(a_vars)
        folded: dict = {}

        def grid(b_vars: tuple, c_vars: Sequence[VarId]) -> np.ndarray:
            ab = folded.get(b_vars)
            if ab is None:
                b, kb = self._code(b_vars)
                ab = folded[b_vars] = (a * kb + b, kb)
            index, kb = ab
            kc = 1
            if c_vars:
                c, kc = self._code(c_vars)
                index = c * (ka * kb) + index
            g = np.zeros(kc * ka * kb, dtype=self.weights.dtype)
            np.add.at(g, index, self.weights)
            return g.reshape(kc, ka, kb)

        return grid

    def ci_query(self, a_vars: Sequence[VarId]):
        """The queries about A: ``ask(B, C)`` is None when I(A;B|C) = 0 and
        otherwise a callable giving I(A;B|C) in bits and whether they
        saturate.  Like ``grid_query`` it checks no sets.

        Each query builds one grid (``grid_query``), whose margins, summed
        once, give the verdict, the bits (``grid_cmi``) and the saturation.
        """
        grid = self.grid_query(a_vars)

        def ask(b_vars: tuple, c_vars: Sequence[VarId]):
            g = grid(b_vars, c_vars)
            m = grid_margins(g)
            if not grid_dependent(g, m):
                return None
            return lambda: (grid_cmi(g, self.total, m), grid_saturated(g, self.total, m))

        return ask

    def entropy(self, vars: Sequence[VarId]) -> float:
        """H(vars) in bits."""
        return self.cmi(vars, vars)

    # ----- CSV -----------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write a header of variable ids, then one line per row.

        Unless every row weighs 1, as gaussian trials do, each line ends
        with the row's integer weight, in a last column headed ``#weight``;
        discrete trials write one weighted line per distinct outcome.
        """
        weights = self.weights.tolist()
        weighted = any(w != 1 for w in weights)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([str(c) for c in self.variables] + [WEIGHT_HEADER] * weighted)
            for row, weight in zip(self.rows, weights):
                w.writerow([value_str(x) for x in row] + [str(weight)] * weighted)

    @staticmethod
    def from_csv(path) -> "DiscreteJoint":
        """Read a table written by ``to_csv``; without a ``#weight`` column
        each line is one trial of weight 1.  Blank lines are skipped.  A
        column that holds a float is continuous (``_floats_continuous``)."""
        with open(path, newline="") as fh:
            lines = [line for line in csv.reader(fh) if line]
        if not lines:
            raise ValidationError(f"{path} has no header line")
        header, lines = lines[0], lines[1:]
        weighted = header[-1:] == [WEIGHT_HEADER]
        variables = tuple(
            EdgeRef.parse(h) if "->" in h else h for h in header[: len(header) - weighted]
        )
        rows = [tuple(_parse_cell(x) for x in line[: len(line) - weighted]) for line in lines]
        weights = [_parse_weight(line[-1]) for line in lines] if weighted else None
        return DiscreteJoint(variables, rows, weights)._floats_continuous()


def grid_margins(g: np.ndarray) -> tuple:
    """(w_ac, w_bc, w_c) of a (c, a, b) weight grid."""
    w_ac = g.sum(axis=2)
    return w_ac, g.sum(axis=1), w_ac.sum(axis=1)


def grid_dependent(g: np.ndarray, margins: tuple) -> bool:
    """I(A;B|C) > 0 on a (c, a, b) weight grid, exactly: A and B are
    independent given C when every cell, empty ones too, factorizes as
    w_abc·w_c == w_ac·w_bc."""
    w_ac, w_bc, w_c = margins
    return bool((g * w_c[:, None, None] != w_ac[:, :, None] * w_bc[:, None, :]).any())


def grid_cmi(g: np.ndarray, total: int, margins: tuple) -> float:
    """I(A;B|C) in bits of a (c, a, b) weight grid of total weight ``total``:
    Σ (w_abc/total)·log2(w_abc·w_c / (w_ac·w_bc)) over the occupied cells."""
    w_ac, w_bc, w_c = margins
    c, a, b = np.nonzero(g)  # the occupied cells, in C order
    w = g[c, a, b]
    share = (w / total).astype(np.float64)
    ratio = w * w_c[c] / (w_ac[c, a] * w_bc[c, b])
    bits = float(np.sum(share * np.log2(ratio.astype(np.float64))))
    return max(bits, 0.0)


def grid_saturated(g: np.ndarray, total: int, margins: tuple) -> bool:
    """I(A;B|C) = min(H(A), H(B)) on a (c, a, b) weight grid, exactly.  As
    I(A;B|C) = H(A) − (H(A) − H(A|C)) − H(A|B,C) <= min(H(A), H(B)), it is
    H(A), the minimum, exactly when A ⊥ C, w_ac·total == w_a·w_c, and no
    (c, b) holds two occupied a, H(A|B,C) = 0; likewise for B."""
    w_ac, w_bc, w_c = margins
    apart = lambda w_xc: (w_xc * total == w_xc.sum(axis=0) * w_c[:, None]).all()
    fixed = lambda axis: (np.count_nonzero(g, axis=axis) <= 1).all()
    return bool(apart(w_ac) and fixed(1) or apart(w_bc) and fixed(2))


def _parse_weight(text: str) -> int:
    try:
        w = int(text)
    except ValueError:
        w = -1
    if w < 0:
        raise ValidationError(f"row weight {text!r} is not a non-negative integer")
    return w


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
    """Build the exact joint of (message components, every edge transmission).

    The joint is the pushforward of P(M) × Π_s P(s), over the noise nodes s,
    by the map from a realization to its outcome.  It is built one source at
    a time by :meth:`~msgflow.system.ColumnPass.outcomes`, which runs the
    node functions in forward order on weighted rows over the columns
    computed so far and the live sources: a source is drawn just before its
    first reader runs and summed out once its last reader has run.

    Merging is exact.  After each function the rows carry the law of
    (computed columns, live sources) under P(M) × Π P(s) over the sources
    drawn so far.  Every later column is a function of the computed
    columns, the live sources and the sources not yet drawn, since a summed
    out source has no reader left; the sources not yet drawn are independent
    of everything drawn.  So the outcome law depends on the rows only
    through that law: merging the rows that agree on (computed columns, live
    sources), summing their weights, leaves it unchanged, and drawing a
    source multiplies in its own law.  This is variable elimination (Zhang &
    Poole, 1994) run forward.  A source no function reads is never drawn.

    Weights: each law is taken over its own least common denominator D_s,
    so a row weighs the sum, over the realizations it stands for, of the
    product of the drawn sources' integer pmf numerators.  The sums are
    divided by their gcd at the end, which scales them to the outcome
    probabilities over their least common denominator, as the rows
    constructor would; an undrawn source would have multiplied every weight
    by the same D_s, which the gcd removes.  Weights are int64 while the
    square of the product of every D_s fits, Python ints beyond.

    Order: each row carries the smallest ``itertools.product``-order index
    (message most significant, then the noise nodes sorted) of the
    realizations it stands for.  Drawing value j of a source adds j times
    the source's stride to every member, and a merge keeps the least.  The
    table lists the outcomes by that index, numbers each column's values by
    first appearance and decodes equal values of different types (1,
    Fraction(1), 1.0) by the first row's, so it equals the table of the
    realizations taken one by one in product order.  Indices are int64
    while the realization count fits, Python ints beyond.

    ``budget`` bounds the realization count.  The joint records each edge's
    random sources (``SystemSpec.sources``) for the flow search.
    """
    if spec.is_gaussian:
        raise ValidationError("gaussian systems use linear_propagate, not enumeration")
    n_real = spec.realization_count()
    if n_real > budget:
        raise BudgetExceededError(
            f"{n_real} realizations exceed the enumeration budget of {budget}"
        )
    msg_pmf = spec.message.pmf if spec.message.kind == "discrete" else (((), Fraction(1)),)
    laws = {None: msg_pmf, **{v: spec.noise[v].pmf for v in spec.noise_nodes()}}
    denoms = [math.lcm(*(p.denominator for _, p in law)) for law in laws.values()]
    # Realization weights sum to the product of the D_s: int64 while its
    # square fits, as in the table.
    dtype = np.int64 if math.prod(denoms) ** 2 <= _INT64_MAX else object
    factors = {
        u: np.array([int(p * d) for _, p in law], dtype=dtype)
        for (u, law), d in zip(laws.items(), denoms)
    }

    def split(u, w: np.ndarray) -> tuple:
        k = len(factors[u])
        rows = np.arange(len(w))
        return rows.repeat(k), (w[:, None] * factors[u]).ravel(), np.tile(np.arange(k), len(w))

    fwd = ColumnPass(spec)
    supports = {u: [x for x, _ in law] for u, law in laws.items()}
    codes, values, weights = fwd.outcomes(supports, split(None, np.ones(1, dtype))[1:], split)
    weights = weights.tolist()
    g = math.gcd(*weights)
    joint = DiscreteJoint.from_codes(fwd.variables, codes, values, [w // g for w in weights])
    joint.sources = spec.sources()
    return joint
