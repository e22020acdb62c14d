"""Trial-based observation and statistical flow detection.

A trial is one independent realization of every random variable in a system,
observed noiselessly on all edges.  ``sample_trials`` runs the exact
enumerator's walk (:meth:`~msgflow.system.ColumnPass.outcomes`) on counts of
trials: each source, from its own stream spawned from the seed, splits a row
of c trials by a multinomial draw of c over its values.  It returns the same
table the exact engine uses (:class:`~msgflow.discrete.DiscreteJoint`), one
row per distinct outcome weighted by its count of trials, at a cost that does
not depend on the trial count for a discrete system.  The tests below read
only the per-stratum counts, which are sufficient statistics, so every weight
grid, p-value and verdict is the one a table of one row per trial gives.

Detection replays the exact detector's subset search as a sequence of
conditional-independence tests: the family is the subsets the exact search
(:mod:`msgflow.flow`) tries, up to a size limit and in the same order, the
size limit clamped to the searched edges.  With sources on the trials that
is the subsets of the edge's source component comp(e); without them (a
derived message, a table read from CSV) it is the subsets of the whole
slice.  Both families test the same null hypothesis, "no S gives
I(M; e | S) > 0": some subset of the slice is a witness exactly when some
subset of comp(e) is (the proof is in :mod:`msgflow.flow`).  Bonferroni over
the smaller family still bounds the per-edge family-wise error by alpha, and
each of its tests runs at a larger level than in the whole slice's family,
so its power can only rise.  A constant edge carries nothing and runs no
test.  The whole per-edge cascade is Bonferroni-corrected, which stays valid
under the arbitrary dependence between the cascade's tests.

A cascade builds its grids over (conditioning stratum, M, e) through one
query (``DiscreteJoint.grid_query``), which codes M and e once, so a test
codes only its conditioning set.  Its margins, summed once (``_strata``),
give the route, G and its degrees of freedom (``_ci_test``):

* the G-test, when every cell of every free stratum (more than one occupied
  value of M and of e) expects at least ``COCHRAN_MIN_EXPECTED`` trials
  under the null (Cochran's rule, checked in integers).  G = 2·n·ln 2 times
  the plug-in conditional information in bits, on Σ (R_c − 1)(K_c − 1)
  degrees of freedom over the free strata, and p is its chi-square tail
  (``chi2_sf``);
* the permutation test otherwise: the statistic is the plug-in conditional
  mutual information, the null is built by permuting the edge column
  within strata of identical conditioning values (every replicate table of
  a stratum is drawn at once, one vectorised hypergeometric call per cell,
  whatever the alphabet sizes), and a cascade runs with enough replicates
  that its smallest p-value lies below its Bonferroni level.

Both routes test the same conditional-independence null; Tsamardinos &
Borboudakis (ECML PKDD 2010) compare them.  The G-test draws nothing and
takes strata of any weight.  The verdict is the edge's report entry
(:class:`~msgflow.flow.FlowEntry`), which records the p-values, the level,
the family size and the replicates each permutation test drew, 0 when no
test of the cascade permuted.

All randomness is driven by spawned child streams of one master seed, so
identical inputs give bit-identical trials and p-values; a cascade builds a
test's stream only when the test permutes.  ``analyze_sampled``, what
``msgflow analyze --engine sampled`` prints, owns the seed policy.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .discrete import DiscreteJoint, VarId, grid_cmi, grid_margins
from .errors import (
    ContinuousSamplingWarning,
    DegenerateTestWarning,
    ValidationError,
)
from .flow import FlowEntry, FlowReport, _component, _subsets, distinct_messages
from .graph import EdgeRef
from .system import ColumnPass, SystemSpec

# numpy's hypergeometric sampler refuses good or bad counts of 10**9 or more.
DRAW_LIMIT = 10**9
# numpy's multinomial sampler takes its trial counts as int64.
MAX_TRIALS = 2**63 - 1
DEFAULT_MAX_SUBSET = 2  # a cascade's Bonferroni level shrinks with its length
# Cochran's rule: a test takes the G-test when every free cell expects this many.
COCHRAN_MIN_EXPECTED = 5
_EPS = 2.0**-52  # relative tolerance of the chi-square tail's series and fraction
_MAX_TERMS = 100_000  # the fraction converges in O(sqrt(df)) terms


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative")


def check_cascade(alpha: float, max_subset_size: int, n_perm: int, seed: int) -> None:
    """Refuse cascade settings no run can use, before any trial is drawn."""
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    if n_perm < 1:
        raise ValidationError("need at least one permutation")
    if max_subset_size < 0:
        raise ValidationError(f"max_subset_size must be at least 0, got {max_subset_size}")
    _check_seed(seed)


def sample_trials(spec: SystemSpec, n: int, seed: int) -> DiscreteJoint:
    """Draw ``n`` independent trials, as the counts of their distinct outcomes.

    The trials run through the enumerator's walk
    (:meth:`~msgflow.system.ColumnPass.outcomes`) with counts for weights:
    the message rows start as multinomial(n, P(M)), one row of count n for
    a derived message, and a discrete source splits a row of count c by
    multinomial(c, P(s)).  Each source, the message first and then the
    noise nodes sorted, draws from its own stream spawned from ``seed``.
    So a discrete system's sampling holds no array of n entries, and its
    cost does not depend on n.  A gaussian source splits a row of count c
    into c rows of weight 1, one fresh draw each: it draws n values, hands
    its k-th draw to the walk's k-th trial (an order the draws do not
    affect), and the draw's number is its index in the product order.  The table has one row per distinct
    outcome, ordered by least product-order index like the exact joint;
    gaussian trials, whose draws are all distinct, keep one row per trial in
    the order of the message's draws.  The trials record each edge's random
    sources (``SystemSpec.sources``, None for a derived message), so the
    cascade searches each edge's source component.  With a gaussian source,
    a column that holds a float is continuous, and CI queries on it refuse.

    The counts have the law of the outcome counts of n i.i.d. trials:

    * Counts of independent draws split multinomially.  The c trials of a
      row draw a source independent of everything drawn before as c i.i.d.
      draws of P(s), so their counts per value are multinomial(c, P(s)),
      independently across rows; the n trials' message counts are
      multinomial(n, P(M)).
    * multinomial(c1, p) + multinomial(c2, p) ~ multinomial(c1 + c2, p) for
      independent summands.  Two rows merge only once they agree on every
      column a later function reads, so splitting their summed count by a
      later, independent source gives the children the law that splitting
      each row apart and adding the counts of equal children would give.

    By induction over the walk, the final counts are those of n i.i.d.
    trials.  The draws are not those of a trial-by-trial sampler with the
    same seed; the law is.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    if n > MAX_TRIALS:
        raise ValidationError(f"{n} trials exceed 2^63 - 1, the most numpy's int64 counts hold")
    _check_seed(seed)
    if spec.is_continuous:
        warnings.warn(
            "sampling a continuous system; the discrete CI tests will not accept it",
            ContinuousSamplingWarning,
            stacklevel=2,
        )
    laws = {None: spec.message, **{v: spec.noise[v] for v in spec.noise_nodes()}}
    streams = np.random.SeedSequence(seed).spawn(len(laws))
    rngs = dict(zip(laws, map(np.random.default_rng, streams)))
    supports, probs = {}, {}
    for u, law in laws.items():
        if law.kind == "gaussian":
            draws = rngs[u].normal(0.0, math.sqrt(float(law.variance)), size=n).tolist()
            supports[u] = [(x,) for x in draws] if u is None else draws
        else:
            pmf = law.pmf or (((), 1),)  # a derived message: one row of all n
            supports[u] = [x for x, _ in pmf]
            probs[u] = np.array([float(p) for _, p in pmf])
            probs[u] /= probs[u].sum()

    def split(u, w: np.ndarray) -> tuple:
        if u not in probs:
            return np.arange(len(w)).repeat(w), np.ones(n, dtype=np.int64), np.arange(n)
        counts = rngs[u].multinomial(w, probs[u]).ravel()
        drawn = np.flatnonzero(counts)  # children of positive count
        return drawn // len(probs[u]), counts[drawn], drawn % len(probs[u])

    fwd = ColumnPass(spec)
    codes, values, weights = fwd.outcomes(supports, split(None, np.array([n]))[1:], split)
    trials = DiscreteJoint.from_codes(fwd.variables, codes, values, weights.tolist())
    trials.sources = spec.sources()
    return trials._floats_continuous() if spec.is_continuous else trials


# ----- conditional-independence tests -------------------------------------


class _Strata(NamedTuple):
    """A test's (c, a, b) weight grid, its margins and its strata's terms."""

    tables: np.ndarray  # w_abc, shape (kc, ka, kb)
    rows: np.ndarray  # w_ac
    cols: np.ndarray  # w_bc
    n_c: np.ndarray  # w_c
    free: np.ndarray  # more than one occupied A value and more than one B value
    df: np.ndarray  # (R_c − 1)(K_c − 1) in a free stratum, 0 elsewhere


def _strata(tables: np.ndarray) -> Optional[_Strata]:
    """A test's strata from its grid, or None when p is 1 without a test: a
    column of one occupied value is independent of everything, and a stratum
    of one trial has nothing to permute (warned when every stratum is one)."""
    rows, cols, n_c = grid_margins(tables)
    if min(np.count_nonzero(rows.sum(axis=0)), np.count_nonzero(cols.sum(axis=0))) <= 1:
        return None
    if (n_c <= 1).all():
        warnings.warn(
            "every conditioning stratum has one trial; the test is degenerate",
            DegenerateTestWarning,
            stacklevel=3,
        )
        return None
    r, k = (rows > 0).sum(axis=1), (cols > 0).sum(axis=1)
    free = (r > 1) & (k > 1)
    return _Strata(tables, rows, cols, n_c, free, (r - 1) * (k - 1) * free)


def _dense(s: _Strata) -> bool:
    """Cochran's rule: every cell of a free stratum whose row and column are
    occupied expects at least ``COCHRAN_MIN_EXPECTED`` trials under the null,
    w_ac·w_bc >= COCHRAN_MIN_EXPECTED·w_c, checked in integers over every
    stratum, a floor of 0 exempting the strata that are not free.  The
    products fit, since an int64 grid holds the squared total weight."""
    expected = s.rows[:, :, None] * s.cols[:, None, :]
    floor = COCHRAN_MIN_EXPECTED * s.n_c * s.free
    return not ((expected > 0) & (expected < floor[:, None, None])).any()


def _g_statistic(s: _Strata) -> tuple[float, int]:
    """G = 2·Σ w_abc·ln(w_abc·w_c / (w_ac·w_bc)) = 2·n·ln 2·Î(A; B | C) and
    its degrees of freedom Σ_c (R_c − 1)(K_c − 1) over the free strata, for
    R_c occupied A values and K_c occupied B values in stratum c (Agresti,
    *Categorical Data Analysis*).  A forced stratum adds nothing to either:
    with one occupied A value every cell has w_ac = w_c and w_abc = w_bc, so
    its log ratio is exactly ln 1, and (R_c − 1)(K_c − 1) is 0.  An empty
    stratum, which a zero-weight row's conditioning value makes, has no
    cell either; counted, it would add (0 − 1)(0 − 1) = 1."""
    n = int(s.n_c.sum())
    g = 2.0 * n * math.log(2.0) * grid_cmi(s.tables, n, (s.rows, s.cols, s.n_c))
    return g, int(s.df.sum())


def chi2_sf(x: float, df: int) -> float:
    """The chi-square upper tail P(X >= x) on ``df`` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x/2), by its series below
    a + 1 and its continued fraction (modified Lentz) above (Numerical
    Recipes, §6.2).  df 0 is the point mass at 0."""
    a, z = df / 2.0, x / 2.0
    if df == 0 or z <= 0.0:
        return 1.0
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        # P(a, z) = e^-z z^a / Γ(a) · Σ_i z^i / (a (a+1) … (a+i))
        term = total = 1.0 / a
        ap = a
        while abs(term) > abs(total) * _EPS:
            ap += 1.0
            term *= z / ap
            total += term
        return max(1.0 - scale * total, 0.0)
    tiny = 1e-300
    b = z + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return scale * h


def _ci_test(tables: np.ndarray, n_perm: int, seed: int, i: int) -> tuple[float, int]:
    """Test i of a cascade seeded by ``seed``, on its (c, a, b) weight grid:
    its p-value and the permutation replicates it drew.  The G-test where
    the grid is dense (``_dense``), the permutation test on the same grid
    otherwise; a test that needs neither draws 0.  Only a permutation test
    builds its stream, SeedSequence(seed, spawn_key=(i,)), which is
    SeedSequence(seed).spawn(n)[i] for every n > i."""
    s = _strata(tables)
    if s is None:
        return 1.0, 0
    if _dense(s):
        return chi2_sf(*_g_statistic(s)), 0
    stream = np.random.SeedSequence(seed, spawn_key=(i,))
    return _permutation_p(s, n_perm, int(stream.generate_state(1, np.uint32)[0])), n_perm


def _xlog2x(counts: np.ndarray) -> np.ndarray:
    """Σ x·log2 x over the last axis, with 0·log2 0 = 0."""
    c = np.asarray(counts, dtype=np.float64)
    return np.sum(c * np.log2(np.where(c > 0, c, 1.0)), axis=-1)


def permutation_ci_test(
    trials: DiscreteJoint,
    a_vars: Sequence[VarId],
    b_vars: Sequence[VarId],
    c_vars: Sequence[VarId] = (),
    n_perm: int = 999,
    seed: int = 0,
) -> float:
    """Permutation p-value for conditional dependence of A and B given C.

    The null permutes the B columns jointly within strata of identical C
    values, which preserves the (A,C) and (B,C) margins.  The statistic (the
    plug-in conditional information) depends on a permutation only through
    the per-stratum contingency table, and a uniformly permuted stratum
    induces a table with fixed margins, so replicates are drawn directly as
    hypergeometric tables — the same null distribution at a fraction of the
    cost.  ``p = (1 + #{perm stat >= observed}) / (1 + n_perm)``.

    A uniform permutation deals each occupied A row (in turn) a uniform
    sample without replacement of the B values not yet dealt, so the table
    is a chain of univariate hypergeometric draws (Patefield, AS 159, 1981):
    given the row's earlier cells, its cell in column j counts the draws
    from column j among the ``left`` it still needs, out of the values left
    in columns j and later.  The last column of a row, and the last row,
    take what remains.  Each draw is one vectorised call over all
    replicates, so a free stratum with R occupied rows and K occupied
    columns costs (R−1)(K−1) calls and O(n_perm × K) memory.  A stratum
    of total weight ``DRAW_LIMIT`` (10^9) or more raises ValidationError,
    since numpy's sampler draws from smaller counts only.
    """
    if n_perm < 1:
        raise ValidationError("need at least one permutation")
    _check_seed(seed)
    s = _strata(trials.weight_grid(a_vars, b_vars, c_vars))
    return 1.0 if s is None else _permutation_p(s, n_perm, seed)


def _permutation_p(s: _Strata, n_perm: int, seed: int) -> float:
    """The body of ``permutation_ci_test`` on a grid ``_strata`` built."""
    heaviest = s.n_c.max()
    if heaviest >= DRAW_LIMIT:
        raise ValidationError(
            f"a conditioning stratum weighs {heaviest}; the permutation test "
            f"takes strata below {DRAW_LIMIT}, the largest count numpy's "
            "hypergeometric sampler draws from"
        )
    # Every count fits int64, also when the grid holds Python ints.
    tables, rows, cols, n_c = (x.astype(np.int64, copy=False) for x in s[:4])
    n = int(n_c.sum())

    const = float(_xlog2x(n_c) - _xlog2x(rows).sum() - _xlog2x(cols).sum())
    cells = _xlog2x(tables).sum(axis=1)
    observed = max((float(cells.sum()) + const) / n, 0.0)

    # Strata whose table is forced by its margins contribute a constant term.
    terms = np.full(n_perm, float(cells[~s.free].sum()))

    # One stream per stratum, split deterministically from the master seed;
    # replicate r combines the r-th table drawn in every stratum, so strata
    # can be sampled independently (and in parallel) with identical results.
    free = np.flatnonzero(s.free)
    streams = np.random.SeedSequence(seed).spawn(max(len(free), 1))
    for v, child in zip(free, streams):
        rng = np.random.default_rng(child)
        urn = cols[v][cols[v] > 0]
        # Column counts not yet drawn: the margins until the first row is
        # drawn (scalar arguments draw faster), one row per replicate after.
        remaining = urn
        for size in rows[v][rows[v] > 0][:-1]:
            cell = np.empty((n_perm, len(urn)), dtype=urn.dtype)
            left = size
            rest = remaining.sum(axis=-1)
            for j in range(len(urn) - 1):
                rest = rest - remaining[..., j]
                cell[:, j] = rng.hypergeometric(remaining[..., j], rest, left, size=n_perm)
                left = left - cell[:, j]
            cell[:, -1] = left
            remaining = remaining - cell
            terms += _xlog2x(cell)
        terms += _xlog2x(remaining)
    stats = np.maximum((terms + const) / n, 0.0)
    exceed = int(np.count_nonzero(stats >= observed - 1e-12))
    return (1 + exceed) / (1 + n_perm)


def detect_flow_sampled(
    trials: DiscreteJoint,
    edge: EdgeRef,
    alpha: float = 0.05,
    max_subset_size: int = DEFAULT_MAX_SUBSET,
    n_perm: int = 999,
    seed: int = 0,
    message: Optional[str] = None,
) -> FlowEntry:
    """Run the per-edge cascade: marginal test, then growing conditioning subsets.

    Returns the edge's report entry (:class:`~msgflow.flow.FlowEntry`), with
    ``quantified`` None.  The family is the subsets of the edge's source
    component of at most ``max_subset_size`` edges (``flow._component``, the
    whole slice for trials without ``sources``), in the exact search's
    order; test i, if it permutes, draws from the i-th stream spawned from
    ``seed`` (at least 0).  Each test runs at the Bonferroni level
    ``alpha / N`` where ``N`` counts the family; the cascade stops at the
    first rejection and later tests are left unrun.  The component holds every minimal witness of the slice, so
    the smaller family tests the same null at family-wise error at most
    alpha, with each test at a level no lower than the whole slice would
    give.  ``max_subset_size`` must be at least 0 and is clamped to the
    component's size; ``n_tests_planned`` counts the family so clamped.  One
    ``grid_query([m])`` builds every grid: C never holds m or the edge, as
    the family excludes the edge from its component.  A constant edge
    returns "no flow" with no test: empty ``p_values``, ``n_tests_planned``
    and ``replicates`` 0, and ``level`` ``alpha``.

    Each test is a G-test when its grid is dense by Cochran's rule, and a
    permutation test otherwise (``_ci_test``).  A permutation p-value is
    never below ``1 / (1 + n_perm)``, so a level under that floor could
    never be reached.  Each permutation test therefore draws
    ``max(n_perm, ceil(N / alpha))`` replicates; the count is derived from
    ``alpha`` and ``N``, and is not a separate setting.  ``replicates``
    records it when some test of the cascade ran by permutation, and is 0
    when every test that ran was a G-test.
    """
    m = trials.default_message(message)
    if not trials.has_var(edge):
        raise ValidationError(f"edge column {edge} missing from trials")
    check_cascade(alpha, max_subset_size, n_perm, seed)
    if trials.is_constant(edge):
        return FlowEntry(edge, False, None, None, (), alpha, 0, 0)
    family = list(_subsets(_component(trials, [edge], frozenset([edge])), max_subset_size))
    n_tests = len(family)
    level = alpha / n_tests
    n_perm = max(n_perm, math.ceil(n_tests / alpha))
    grid = trials.grid_query([m])
    p_values = []
    replicates = 0
    for i, sub in enumerate(family):
        p, drawn = _ci_test(grid((edge,), sub), n_perm, seed, i)
        replicates = max(replicates, drawn)
        p_values.append((sub, p))
        if p <= level:
            return FlowEntry(edge, True, sub, None, tuple(p_values), level, n_tests, replicates)
    return FlowEntry(edge, False, None, None, tuple(p_values), level, n_tests, replicates)


def analyze_sampled(
    trials: DiscreteJoint,
    messages: Optional[Sequence[str]] = None,
    alpha: float = 0.05,
    max_subset_size: int = DEFAULT_MAX_SUBSET,
    n_perm: int = 999,
    seed: int = 0,
) -> dict[str, FlowReport]:
    """Every edge's cascade (``detect_flow_sampled``), one report per message:
    the sampled twin of ``flow.analyze_messages``.  Message i draws from the
    i-th child of ``SeedSequence(seed)``, and the k-th edge of
    ``sorted(trials.edge_vars)`` from its k-th child's ``generate_state(1, uint64)[0]``."""
    names = distinct_messages(trials.message_vars if messages is None else messages)
    check_cascade(alpha, max_subset_size, n_perm, seed)
    edges = sorted(trials.edge_vars)
    reports = {}
    for m, stream in zip(names, np.random.SeedSequence(seed).spawn(len(names))):
        rep = reports[m] = FlowReport(m, "sampled")
        for e, child in zip(edges, stream.spawn(len(edges))):
            s = int(child.generate_state(1, np.uint64)[0])
            rep.entries[e] = detect_flow_sampled(trials, e, alpha, max_subset_size, n_perm, s, m)
    return reports
