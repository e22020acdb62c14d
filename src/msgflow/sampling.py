"""Trial-based observation and statistical flow detection.

A trial is one independent realization of every random variable in a system,
observed noiselessly on all edges.  ``sample_trials`` draws each source once
for all trials and runs the column forward pass
(:class:`~msgflow.system.ColumnPass`) the exact enumerator also uses.  It
returns the same table the exact engine uses
(:class:`~msgflow.discrete.DiscreteJoint`), one row of weight 1 per trial;
``TrialMatrix`` and ``plug_in_cmi`` are the public names of that table and of
its ``cmi``.

Detection replays the exact detector's subset cascade as a sequence of
conditional-independence permutation tests: the statistic is the plug-in
conditional mutual information, the null is built by permuting the edge
column within strata of identical conditioning values, and the whole per-edge
cascade is Bonferroni-corrected, which stays valid under the arbitrary
dependence between the cascade's tests.  A cascade runs with enough
replicates that its smallest p-value lies below its Bonferroni level, and
its verdict records that count.

All randomness is driven by spawned child streams of one master seed, so
identical inputs give bit-identical trials and p-values.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .discrete import DiscreteJoint, VarId
from .errors import (
    ContinuousSamplingWarning,
    DegenerateTestWarning,
    ValidationError,
)
from .graph import EdgeRef
from .system import ColumnPass, MessageSpec, NoiseSpec, SystemSpec

TrialMatrix = DiscreteJoint
plug_in_cmi = DiscreteJoint.cmi


def sample_trials(spec: SystemSpec, n: int, seed: int) -> DiscreteJoint:
    """Draw ``n`` independent trials by sampling (message, noises) and propagating.

    One vectorized draw per source, in a fixed order: the message first (a
    derived message draws nothing), then the noises by node; then one
    :class:`~msgflow.system.ColumnPass` over all trials.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise_nodes = spec.noise_nodes()
    if spec.is_gaussian or any(spec.noise[v].kind == "gaussian" for v in noise_nodes):
        warnings.warn(
            "sampling a continuous system; the discrete CI tests will not accept it",
            ContinuousSamplingWarning,
            stacklevel=2,
        )
    if spec.message.kind == "derived":
        msg = np.zeros(n, dtype=np.int64)
    else:
        msg = _draw(spec.message, rng, n)
    noise = {v: _draw(spec.noise[v], rng, n) for v in noise_nodes}
    fwd = ColumnPass(spec)
    return DiscreteJoint.from_codes(fwd.variables, fwd(msg, noise), fwd.values())


def _draw(law: MessageSpec | NoiseSpec, rng, n: int) -> np.ndarray:
    """Float draws of a gaussian law, or indices into a discrete law's pmf."""
    if law.kind == "gaussian":
        return rng.normal(0.0, math.sqrt(float(law.variance)), size=n)
    probs = np.array([float(p) for _, p in law.pmf])
    probs /= probs.sum()
    return rng.choice(len(probs), size=n, p=probs)


# ----- permutation testing ------------------------------------------------


def _entropy_term(counts: np.ndarray) -> float:
    pos = counts[counts > 0].astype(np.float64)
    return float(np.sum(pos * np.log2(pos)))


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    c = counts.astype(np.float64)
    return np.sum(c * np.log2(np.where(c > 0, c, 1.0)), axis=1)


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
    """
    if n_perm < 1:
        raise ValidationError("need at least one permutation")
    n = trials.total
    tables = trials.weight_grid(a_vars, b_vars, c_vars)
    kc, ka, kb = tables.shape
    if ka <= 1 or kb <= 1:
        # A constant column is independent of everything; every permuted
        # statistic equals the observed 0.
        return 1.0
    n_c = tables.sum(axis=(1, 2))
    if np.all(n_c <= 1):
        warnings.warn(
            "every conditioning stratum has one trial; the test is degenerate",
            DegenerateTestWarning,
            stacklevel=2,
        )
        return 1.0

    strata = [v for v in range(kc) if n_c[v] > 0]
    row_margins = {v: tables[v].sum(axis=1) for v in strata}
    col_margins = {v: tables[v].sum(axis=0) for v in strata}
    const = _entropy_term(n_c) - sum(
        _entropy_term(row_margins[v]) + _entropy_term(col_margins[v]) for v in strata
    )
    observed = max((sum(_entropy_term(tables[v]) for v in strata) + const) / n, 0.0)

    # Strata whose table is forced by its margins contribute a constant term.
    free = [
        v
        for v in strata
        if np.count_nonzero(row_margins[v]) > 1 and np.count_nonzero(col_margins[v]) > 1
    ]
    forced_term = sum(_entropy_term(tables[v]) for v in strata if v not in free)

    # One stream per stratum, split deterministically from the master seed;
    # replicate r combines the r-th table drawn in every stratum, so strata
    # can be sampled independently (and in parallel) with identical results.
    terms = np.full(n_perm, forced_term, dtype=np.float64)
    streams = np.random.SeedSequence(seed).spawn(max(len(free), 1))
    for v, child in zip(free, streams):
        rng = np.random.default_rng(child)
        rows = row_margins[v]
        cols = col_margins[v]
        live = [i for i in range(ka) if rows[i] > 0]
        if len(live) == 2:
            # Two occupied rows: the first draw forces the second, so the
            # whole replicate batch is one vectorized call.
            draws = rng.multivariate_hypergeometric(cols, rows[live[0]], size=n_perm)
            rest = cols[np.newaxis, :] - draws
            terms += _entropy_rows(draws) + _entropy_rows(rest)
        else:
            for r in range(n_perm):
                remaining = cols.copy()
                term = 0.0
                for i in live[:-1]:
                    draw = rng.multivariate_hypergeometric(remaining, rows[i])
                    term += _entropy_term(draw)
                    remaining -= draw
                terms[r] += term + _entropy_term(remaining)
    stats = np.maximum((terms + const) / n, 0.0)
    exceed = int(np.count_nonzero(stats >= observed - 1e-12))
    return (1 + exceed) / (1 + n_perm)


@dataclass(frozen=True)
class SampledVerdict:
    """Outcome of the per-edge test cascade."""

    edge: EdgeRef
    has_flow: bool
    witness: Optional[tuple[EdgeRef, ...]]
    p_values: tuple  # ((conditioning subset, p), ...) in test order; run tests only
    n_tests_planned: int
    level: float
    replicates: int  # drawn per test: n_perm, or more to reach the level


def detect_flow_sampled(
    trials: DiscreteJoint,
    edge: EdgeRef,
    alpha: float = 0.05,
    max_subset_size: int = 2,
    n_perm: int = 999,
    seed: int = 0,
    message: Optional[str] = None,
) -> SampledVerdict:
    """Run the per-edge cascade: marginal test, then growing conditioning subsets.

    Each test runs at the Bonferroni level ``alpha / N`` where ``N`` counts
    every test the full cascade could run; the cascade stops at the first
    rejection and later tests are left unrun.

    A permutation p-value is never below ``1 / (1 + n_perm)``, so a level
    under that floor could never be reached.  Each test therefore draws
    ``max(n_perm, ceil(N / alpha))`` replicates; the count is derived from
    ``alpha`` and ``N``, and is not a separate setting.
    """
    m = trials.default_message(message)
    if not trials.has_var(edge):
        raise ValidationError(f"edge column {edge} missing from trials")
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    if n_perm < 1:
        raise ValidationError("need at least one permutation")
    cands = tuple(
        e
        for e in sorted(trials.edges_at(edge.time))
        if e != edge and not trials.is_constant(e)
    )
    if max_subset_size > len(cands):
        raise ValidationError(
            f"max_subset_size {max_subset_size} exceeds the {len(cands)} "
            f"available conditioning edges"
        )
    n_tests = sum(math.comb(len(cands), k) for k in range(max_subset_size + 1))
    level = alpha / n_tests
    n_perm = max(n_perm, math.ceil(n_tests / alpha))
    streams = np.random.SeedSequence(seed).spawn(n_tests)
    p_values = []
    i = 0
    for k in range(max_subset_size + 1):
        for sub in itertools.combinations(cands, k):
            p = permutation_ci_test(
                trials, [m], [edge], list(sub), n_perm=n_perm,
                seed=_stream_seed(streams[i]),
            )
            i += 1
            p_values.append((sub, p))
            if p <= level:
                return SampledVerdict(edge, True, sub, tuple(p_values), n_tests, level, n_perm)
    return SampledVerdict(edge, False, None, tuple(p_values), n_tests, level, n_perm)


def _stream_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint32)[0])
