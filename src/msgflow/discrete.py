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
its integer law weights for the exact joint and by multinomial counts for
trials, and merges the rows that become equal once its last reader has run,
so its cost follows the distinct outcomes, not the realization or trial
count.  The pass, like the rows constructor, numbers each column's values
by first appearance and lists only values some row holds, so the table
stores its codes as given.

Queries about one A are answered in batches, each from one stacked (c, a,
b) weight grid (``DiscreteJoint._stack``) that numbers the C strata of every
query of the batch end to end; a single query is the batch of one, and that
one grid builder serves ``weight_grid``, ``grid_query``, ``ci_query`` and
the sampled cascade alike.  A grid axis is one stored column, whose codes
serve as they are, or a mixed-radix key of several columns, renumbered over
its observed values by a presence table (``system.compress``) where needed,
so building a grid sorts nothing:

* ``ci_query`` — the one question every joint answers; ``dependent`` and
  ``cmi``, written once on ``JointVariables``, are the verdict and the bits
  of a batch of one.  A batch's grid, its margins summed once
  (``grid_margins``), gives each query's verdict, an exact yes/no decision
  of I(A;B|C) > 0: A and B are independent given C exactly when every cell
  of the query's strata factorizes,
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
import functools
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

BATCH_ROWS = 4096  # rows one stacked grid indexes at most (``DiscreteJoint.batch_size``)

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
        return self.ci_query(a_vars)([(tuple(b_vars), tuple(c_vars))])[0]

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
        self._sizes = np.array([len(vs) for vs in self.values], dtype=np.int64)
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

    def _cols(self, vars: Sequence[VarId]) -> list[int]:
        """The column of each of ``vars``; an unknown variable, or a
        continuous column, is refused."""
        cols = [self._col(v) for v in vars]
        for v, j in zip(vars, cols):
            if not self._finite[j]:
                raise ValidationError(
                    f"column {v} is continuous; CI tests need finite alphabets"
                )
        return cols

    def _code(self, vars: Sequence[VarId], dense: bool = True) -> tuple[np.ndarray, int]:
        """One code per row for the joint value of ``vars``, and the code count.

        A single column is its stored codes: they are dense, every value is
        held by a row, and they number values by first appearance.  Several
        columns are combined in mixed radix (``mixed_radix``), in the order
        given, and numbered over their observed values only, in mixed-radix
        order, by a presence table (``compress``; the bound is at most the
        row count).  Either way the codes depend on the values the rows hold
        and on their order, not on the row count, so tables that differ only
        in how their rows are split or merged get the same codes.  Unless
        ``dense``, several columns keep ``mixed_radix``'s codes, in the same
        order below a bound of at most the row count, some of them unheld.
        """
        cols = self._cols(vars)
        if len(cols) == 1:
            return self.codes[cols[0]], len(self.values[cols[0]])
        code, k = mixed_radix([(self.codes[j], len(self.values[j])) for j in cols], self.n_rows)
        return compress(code, k) if cols and dense else (code, k)

    @property
    def batch_size(self) -> int:
        """The most queries one stacked grid (``ci_query``) holds:
        max(1, BATCH_ROWS // n_rows), so a batch indexes at most
        ``BATCH_ROWS`` rows and a larger table asks one query a batch.
        Measured with ``analyze`` on pad-mask rungs (best of 7; 2-vCPU x86,
        numpy 2.4.6), one query a batch against 4,096 rows a batch: k3d3
        (128 rows) 1.39 → 0.65 ms, k4d4 (512) 3.11 → 1.68 ms, k5d5 (2,048)
        7.5 → 8.1 ms, k6d6 (8,192) 28.5 ms either way.  Budgets of 8,192
        and 16,384 rows read 1.25–1.45 ms on k4d4 and 5.3–6.2 ms on k5d5,
        but 32.3 ms on k6d6, and 65,536 rows 10.7 ms on k5d5 and 84.6 ms on
        k6d6: the subsets of a search that stopped early in a batch are
        still answered, and on a large table each costs its rows."""
        return max(1, BATCH_ROWS // self.n_rows)

    def _strata(self, queries: Sequence[tuple]):
        """The stratum of each row for each of a batch of (B, C) queries whose
        C hold equally many variables, numbered end to end over the batch,
        shape (m, n), or (m, 1) to broadcast when C is empty; and each
        query's first stratum, with the stratum count appended.

        Query q's key is the mixed-radix value of its C columns, below k_q,
        the product of their code counts (0 below 1 when C is empty).
        Adding o_q, the sum of the bounds before q, puts q's keys in [o_q,
        o_q + k_q), so the keys of different queries never meet and ascend
        with q, and the keys serve as strata with q's first at o_q.  Strata
        no row holds are empty, and every test of the grid ignores them
        (``grid_dependent``, ``grid_terms``, ``grid_saturated``), so the
        keys are ranked only when the bounds pass the rows indexed, which
        keeps the grid within as many strata as rows.  One presence table
        ranks them (``compress``, which sorts instead when the bound passes
        twice the keys) and keeps their order: q's strata are the ranks
        from its smallest key's up to the next query's, the strata
        ``_code`` gives q alone, shifted by the strata before it.  A stored
        column's codes are already dense.  When the summed bounds might pass
        int64 (m·w^k, w the widest column's count), each query is first
        coded by ``_code``, to fewer codes than rows and in the same order.
        """
        m, k = len(queries), len(queries[0][1])
        if k == 0:
            return np.arange(m)[:, None], np.arange(m + 1)
        cols = np.array([self._cols(c) for _, c in queries], dtype=np.intp)
        sizes = self._sizes[cols]
        if m * int(sizes.max()) ** k > _INT64_MAX:
            coded = [self._code(c, dense=False) for _, c in queries]
            key, bounds = np.stack([code for code, _ in coded]), [kc for _, kc in coded]
        else:
            key, bounds = self.codes[cols[:, 0]], sizes.prod(axis=1)
            for j in range(1, k):
                key = key * sizes[:, j, None] + self.codes[cols[:, j]]
        offsets = np.concatenate(([0], np.cumsum(bounds)))
        key = key + offsets[:-1, None]
        if k == 1 or offsets[-1] <= key.size:
            return key, offsets
        ranks, count = compress(key.ravel(), int(offsets[-1]))
        ranks = ranks.reshape(m, -1)
        return ranks, np.append(ranks.min(axis=1), count)

    def _stack(self, a: np.ndarray, ka: int, queries: Sequence[tuple], held: dict):
        """The stacked (strata, ka, KB) weight grid of a batch of (B, C)
        queries about A, whose codes ``a`` take ``ka`` values, and each
        query's first stratum with the stratum count appended (``_strata``).

        KB is the batch's widest kb, and row i of query q adds its weight at
        s·(ka·KB) + a_i·KB + b_i, s its stratum: one ``np.add.at``, on a flat
        index and flat weights, fills the grid.  Query q's strata, cut to
        its own kb columns, are the grid it would build alone; the cells
        past its kb stay 0.  Each B of the batch is coded once and folded
        once into a·KB + b.  ``held`` keeps the previous batch's folds, keyed
        by B's variable ids and KB; the weights repeat once per query.

        A batch of one is ``_grid``'s grid, its one stratum range [0, kc).
        """
        if len(queries) == 1:
            g = self._grid(a, ka, *queries[0], held)
            return g, np.array([0, len(g)])
        coded = {b: self._code(b) for b in dict.fromkeys(b for b, _ in queries)}
        kb = max(size for _, size in coded.values())
        kept = dict(held)
        held.clear()
        for b, (code, _) in coded.items():
            held[b, kb] = kept[b, kb] if (b, kb) in kept else a * kb + code
        m, (b, _) = len(queries), queries[0]
        ab = held[b, kb] if len(held) == 1 else np.stack([held[b, kb] for b, _ in queries])
        strata, starts = self._strata(queries)
        index = strata * (ka * kb) + ab
        g = np.zeros(int(starts[-1]) * ka * kb, dtype=self.weights.dtype)
        np.add.at(g, index.ravel(), np.tile(self.weights, m))
        return g.reshape(-1, ka, kb), starts

    def _grid(self, a: np.ndarray, ka: int, b: tuple, c: tuple, held: dict, dense=False):
        """The (kc, ka, kb) weight grid of one (B, C) query about A: the
        stacked grid of a batch of one, KB its own kb and its strata its C
        codes, ``_code``'s, observed ones only when ``dense``
        (``grid_query``).  It adds the stored weights to an index built from
        stored code rows as views, and ``held`` keeps its last B's fold, so
        a run of queries on one target folds it once."""
        if b not in held:
            code, kb = self._code(b)
            held.clear()
            held[b] = (a * kb + code, kb)
        index, kb = held[b]
        kc = 1
        if c:
            key, kc = self._code(c, dense)
            index = key * (ka * kb) + index
        g = np.zeros(kc * ka * kb, dtype=self.weights.dtype)
        np.add.at(g, index, self.weights)
        return g.reshape(kc, ka, kb)

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
        the grid of a batch of one (``_grid``), A coded once.  The caller
        keeps C disjoint from A and B."""
        a, ka = self._code(a_vars)
        held: dict = {}
        return lambda b, c: self._grid(a, ka, tuple(b), tuple(c), held, dense=True)

    def ci_query(self, a_vars: Sequence[VarId]):
        """The queries about A: ``batch([(B, C), ...])``, whose C hold equally
        many variables, answers each query with None when I(A;B|C) = 0, and
        otherwise with a callable giving I(A;B|C) in bits and whether they
        saturate.  Like ``grid_query`` it checks no sets; a caller keeps a
        batch within ``batch_size``.

        A batch is one stacked grid (``_stack``), whose margins, summed
        once, give every query's verdict (``grid_dependent``).  The first
        bits asked take the terms of every occupied cell (``grid_terms``)
        and every query's saturation (``grid_saturated``).  ``np.nonzero``
        lists the cells in (stratum, a, b) order, so query q's cells are
        contiguous, and in the order its own grid would list them; the sum
        of its slice of the terms (``term_sum``) is then the float
        ``grid_cmi`` gives on its own grid, bit for bit.
        """
        a, ka = self._code(a_vars)
        held: dict = {}

        def batch(queries: Sequence[tuple]) -> list:
            g, starts = self._stack(a, ka, queries, held)
            margins = grid_margins(g)

            measured: list = []

            def bits(q: int) -> tuple[float, bool]:
                if not measured:
                    cells, terms = grid_terms(g, self.total, margins)
                    cuts = np.searchsorted(cells, starts).tolist()
                    measured.extend((terms, cuts, grid_saturated(g, self.total, margins, starts)))
                terms, cuts, saturated = measured
                return term_sum(terms[cuts[q] : cuts[q + 1]]), bool(saturated[q])

            dependent = grid_dependent(g, margins, starts).tolist()
            return [functools.partial(bits, q) if d else None for q, d in enumerate(dependent)]

        return batch

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


def grid_dependent(g: np.ndarray, margins: tuple, starts: np.ndarray) -> np.ndarray:
    """I(A;B|C) > 0 for each query of a stacked (c, a, b) weight grid, whose
    query q holds the strata ``starts[q]`` to ``starts[q + 1]``, exactly: A
    and B are independent given C when every cell, empty ones too, of every
    stratum factorizes as w_abc·w_c == w_ac·w_bc.  A padded cell (b at or
    past the query's own kb) and every cell of an empty stratum read
    0·w_c == w_ac·0, so they never break it, and the test of a query's
    strata is its test alone."""
    w_ac, w_bc, w_c = margins
    broken = g * w_c[:, None, None] != w_ac[:, :, None] * w_bc[:, None, :]
    return np.logical_or.reduceat(broken.ravel(), starts[:-1] * (g.size // len(g)))


def grid_terms(g: np.ndarray, total: int, margins: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The occupied cells of a (c, a, b) weight grid of total weight
    ``total``, as each cell's stratum and its term (w_abc/total)·log2(w_abc·w_c
    / (w_ac·w_bc)), in the C order of ``np.nonzero``: (stratum, a, b)."""
    w_ac, w_bc, w_c = margins
    c, a, b = np.nonzero(g)
    w = g[c, a, b]
    share = (w / total).astype(np.float64)
    ratio = w * w_c[c] / (w_ac[c, a] * w_bc[c, b])
    return c, share * np.log2(ratio.astype(np.float64))


def grid_cmi(g: np.ndarray, total: int, margins: tuple) -> float:
    """I(A;B|C) in bits of a (c, a, b) weight grid of total weight ``total``:
    the sum of its occupied cells' terms (``grid_terms``)."""
    return term_sum(grid_terms(g, total, margins)[1])


def term_sum(terms: np.ndarray) -> float:
    """The bits of a query's terms, in their order; never below 0."""
    return max(float(np.sum(terms)), 0.0)


def grid_saturated(g: np.ndarray, total: int, margins: tuple, starts: np.ndarray) -> np.ndarray:
    """I(A;B|C) = min(H(A), H(B)) for each query of a stacked (c, a, b)
    weight grid, exactly.  As I(A;B|C) = H(A) − (H(A) − H(A|C)) − H(A|B,C)
    <= min(H(A), H(B)), it is H(A), the minimum, exactly when A ⊥ C,
    w_ac·total == w_a·w_c, and no (c, b) holds two occupied a, H(A|B,C) =
    0; likewise for B.  Each condition holds per stratum, and a query's
    holds when all its strata's do (``reduceat`` over its first strata);
    w_a sums w_ac over the query's strata, and padded B columns read 0."""
    w_ac, w_bc, w_c = margins
    first, strata = starts[:-1], np.diff(starts)
    occupied = g != 0
    w_x = lambda w_xc: np.repeat(np.add.reduceat(w_xc, first), strata, axis=0)
    apart = lambda w_xc: w_xc * total == w_x(w_xc) * w_c[:, None]
    fixed = lambda axis: occupied.sum(axis=axis) <= 1
    side = lambda w_xc, axis: apart(w_xc).all(axis=1) & fixed(axis).all(axis=1)
    every = lambda per_stratum: np.logical_and.reduceat(per_stratum, first)
    return every(side(w_ac, 1)) | every(side(w_bc, 2))


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

    Weights: each law holds positive integer weights w_i of gcd 1 over
    their sum D_s (``MessageSpec``, ``NoiseSpec``), and a row weighs the
    sum, over the realizations it stands for, of the product of the drawn
    sources' weights.  D_s is the least common denominator L of the law's
    reduced probabilities w_i/D_s: each reduced denominator divides D_s, so
    L does; each L·w_i/D_s is an integer, so D_s divides L·gcd(w) = L.  The
    weights are the numerators p_i·L over that denominator.  The sums are
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
    laws = {None: spec.message, **{v: spec.noise[v] for v in spec.noise_nodes()}}
    # A derived message is one empty row of weight 1.
    supports = {u: list(law.support or ((),)) for u, law in laws.items()}
    factors = {u: law.weights or (1,) for u, law in laws.items()}
    # Realization weights sum to the product of the D_s: int64 while its
    # square fits, as in the table.
    dtype = np.int64 if math.prod(map(sum, factors.values())) ** 2 <= _INT64_MAX else object
    factors = {u: np.array(w, dtype=dtype) for u, w in factors.items()}

    def split(u, w: np.ndarray) -> tuple:
        k = len(factors[u])
        rows = np.arange(len(w))
        return rows.repeat(k), (w[:, None] * factors[u]).ravel(), np.tile(np.arange(k), len(w))

    fwd = ColumnPass(spec)
    codes, values, weights = fwd.outcomes(supports, split(None, np.ones(1, dtype))[1:], split)
    weights = weights.tolist()
    g = math.gcd(*weights)
    joint = DiscreteJoint.from_codes(fwd.variables, codes, values, [w // g for w in weights])
    joint.sources = spec.sources()
    return joint
