"""Greedy submodular selection of the most valuable vantage points.

The objective scores a candidate set ``K`` of VPs by three monotone
submodular terms over the study's T×N code matrix:

* **representation** (facility location): every VP is "served" by its
  most-similar kept VP, where similarity is the exact count of rounds
  in which the two columns agree. Adding a redundant neighbour of an
  already-kept VP gains nothing — this is the redundancy penalty.
* **detection power**: the set of *active transition steps* (rounds
  where at least ``change_threshold`` of all VPs moved between two
  known catchments) that some kept VP itself moved on. A kept set
  covering every active step sees every detectable mode transition.
* **catchment coverage**: the fraction of distinct catchment states
  (site labels — the special unknown/err/other codes are excluded)
  observed by at least one kept VP.

All three terms are monotone and submodular, so greedy selection
under a cardinality budget carries the classic (1 − 1/e) guarantee.

Determinism (the property the CLI tests pin down): agreement counts
are the package's all-pairs Φ count kernel,
:func:`~repro.core.compare.cooccurrence`, run unweighted over the
columns — one one-hot float32 matmul per state code. Every product is
0/1 and every sum is an integer ≤ T < 2²⁴, so each count is *exact* in
float32 (the kernel falls back to float64 from T = 2²⁴ on) —
accumulation order cannot change a single bit, which makes the emitted
plan byte-identical across runs. Ties in the greedy argmax
break to the lowest VP index.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

import numpy as np

from ..core.compare import cooccurrence
from ..core.series import VectorSeries
from ..core.vector import OTHER_CODE
from ..obs import get_registry, span
from .plan import PlanError, VPPlan, series_digest

__all__ = ["SelectionConfig", "agreement_counts", "select_vps"]


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for :func:`select_vps`.

    Exactly one of ``budget`` (absolute kept count) and ``fraction``
    (kept share of all VPs) must be set. The term weights default to
    representation and detection on equal footing with coverage as a
    tie-breaking nudge; ``change_threshold`` matches the Tier-1
    detection threshold so "active steps" are exactly the steps the
    detector could fire on.
    """

    budget: Optional[int] = None
    fraction: Optional[float] = None
    alpha: float = 1.0  # representation (redundancy penalty)
    beta: float = 1.0  # transition detection power
    gamma: float = 0.25  # catchment-state coverage
    change_threshold: float = 0.02

    def __post_init__(self) -> None:
        if (self.budget is None) == (self.fraction is None):
            raise PlanError("set exactly one of budget and fraction")
        if self.budget is not None and self.budget < 1:
            raise PlanError(f"budget must be >= 1, got {self.budget}")
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise PlanError(f"fraction must be in (0, 1], got {self.fraction}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise PlanError("term weights must be non-negative")

    def resolve_budget(self, total_networks: int) -> int:
        if self.budget is not None:
            return min(self.budget, total_networks)
        assert self.fraction is not None
        return max(1, int(total_networks * self.fraction))


def agreement_counts(matrix: np.ndarray) -> np.ndarray:
    """N×N matrix of exact per-pair column-agreement round counts.

    Entry ``(i, j)`` counts the rounds in which VPs ``i`` and ``j``
    report the same code. Every code counts, the special ones included:
    unlike Φ, where an unknown catchment never matches, two VPs that are
    both unknown in a round *agree* in that round. This is
    :func:`~repro.core.compare.cooccurrence` on ``matrix.T`` over every
    code present, unweighted: summed in float32, exact because every
    entry is an integer ≤ T < 2**24, and returned as float64.
    """
    matrix = np.asarray(matrix, dtype=np.int32)
    return cooccurrence(matrix.T, np.unique(matrix))


def _moved(matrix: np.ndarray) -> np.ndarray:
    """(T−1)×N mask: the VP moved between two *known* catchments.

    Transitions into or out of the special states (unknown/err/other,
    codes ≤ 2) are measurement noise — packet loss, probe errors — not
    routing signal, so they never count as movement.
    """
    before, after = matrix[:-1], matrix[1:]
    return (before != after) & (before > OTHER_CODE) & (after > OTHER_CODE)


def select_vps(series: VectorSeries, config: SelectionConfig) -> VPPlan:
    """Greedily select a budgeted VP subset and its weight rescaling.

    Returns a :class:`VPPlan` whose per-VP weight is the number of
    original VPs represented by that kept VP (assignment by highest
    agreement count, ties to the earliest-kept VP), so the weights sum
    to the original VP count.
    """
    matrix = series.matrix
    rounds, total = matrix.shape
    if total == 0:
        raise PlanError("cannot select from a series with no networks")
    if rounds == 0:
        raise PlanError("cannot select from an empty series")
    budget = config.resolve_budget(total)
    started = perf_counter()
    registry = get_registry()
    with span("vps.select", networks=total, rounds=rounds, budget=budget):
        sim = agreement_counts(matrix)

        moved = _moved(matrix)
        if moved.size:
            active_steps = (
                moved.sum(axis=1) / total >= config.change_threshold
            )
            moved_active = moved[active_steps]  # S×N
        else:
            moved_active = np.zeros((0, total), dtype=bool)
        num_active = moved_active.shape[0]

        site_codes = np.asarray(
            sorted(int(code) for code in np.unique(matrix) if code > OTHER_CODE),
            dtype=np.int32,
        )
        presence = (
            np.stack([(matrix == code).any(axis=0) for code in site_codes])
            if site_codes.size
            else np.zeros((0, total), dtype=bool)
        )  # |sites|×N
        num_states = presence.shape[0]

        # Greedy maximization. `best` is each VP's agreement with its
        # closest kept VP; `step_covered`/`state_covered` track the
        # detection and coverage terms. All gains are computed from
        # exact integer counts, so the argmax (first-max tie-break) is
        # bit-deterministic.
        best = np.zeros(total, dtype=np.float64)
        step_covered = np.zeros(num_active, dtype=bool)
        state_covered = np.zeros(num_states, dtype=bool)
        kept: List[int] = []
        kept_mask = np.zeros(total, dtype=bool)
        rep_scale = config.alpha / float(rounds * total)
        det_scale = config.beta / float(max(1, num_active))
        cov_scale = config.gamma / float(max(1, num_states))
        selection: List[dict] = []
        for _ in range(budget):
            rep_gain = np.maximum(sim - best[np.newaxis, :], 0.0).sum(axis=1)
            det_gain = (
                moved_active[~step_covered].sum(axis=0, dtype=np.float64)
                if num_active
                else 0.0
            )
            cov_gain = (
                presence[~state_covered].sum(axis=0, dtype=np.float64)
                if num_states
                else 0.0
            )
            score = rep_gain * rep_scale + det_gain * det_scale + cov_gain * cov_scale
            score[kept_mask] = -np.inf
            choice = int(np.argmax(score))
            kept.append(choice)
            kept_mask[choice] = True
            best = np.maximum(best, sim[choice])
            if num_active:
                step_covered |= moved_active[:, choice]
            if num_states:
                state_covered |= presence[:, choice]
            selection.append(
                {"vp": series.networks[choice], "gain": float(score[choice])}
            )

        # Weight rescaling: assign every VP to its most-agreeing kept
        # representative (ties to the earliest-kept), weight = count.
        kept_order = np.asarray(kept, dtype=np.int64)
        assignment = np.argmax(sim[kept_order, :], axis=0)  # first max wins
        # A kept VP always represents itself, even when another kept VP
        # has an identical column (the argmax tie would otherwise hand
        # its self-assignment to the earlier pick). This keeps every
        # weight >= 1 and the weight total exactly the original VP
        # count.
        assignment[kept_order] = np.arange(len(kept_order))
        counts = np.bincount(assignment, minlength=len(kept_order))
        weights = {
            series.networks[vp_index]: float(counts[position])
            for position, vp_index in enumerate(kept_order)
        }

        plan = VPPlan(
            kept=tuple(series.networks[index] for index in kept),
            weights=weights,
            total_networks=total,
            provenance={
                "series_sha256": series_digest(series),
                "rounds": rounds,
                "active_steps": num_active,
                "objective": {
                    "alpha": config.alpha,
                    "beta": config.beta,
                    "gamma": config.gamma,
                    "change_threshold": config.change_threshold,
                },
                "selection": selection,
            },
        )
    registry.counter(
        "vps_selections_total", help="Completed VP budget selections"
    ).inc()
    registry.histogram(
        "vps_select_seconds", help="Wall time of greedy VP selection"
    ).observe(perf_counter() - started)
    registry.gauge(
        "vps_kept_networks", help="Kept VP count of the latest selection"
    ).set(float(len(kept)))
    return plan
