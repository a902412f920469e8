"""Data cleaning: incorrect data, micro-catchments, gap filling (§2.4).

Raw active measurements arrive with three defects the paper cleans
before analysis:

1. **Incorrect data** — observations naming a state that cannot be
   right (an unmapped server identifier, a bogus site). These become
   ``other`` via :func:`map_unmapped_states`.
2. **Micro-catchments** — sites serving almost no networks (local-only
   anycast sites, enterprise-internal prefixes). Folded into ``other``
   by :func:`fold_micro_catchments`, or the networks dropped entirely by
   :func:`drop_networks`.
3. **Missing data** — unanswered probes. Temporal gaps are repaired by
   nearest-neighbour interpolation with a reach limit (default 3
   observations, per the paper): the first half of a gap copies the
   last value before it, the second half the first value after it.
   Traceroute gaps are instead repaired *spatially*, copying the
   nearest responsive hop (:func:`nearest_viable_hop`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .series import VectorSeries
from .vector import ERROR_CODE, OTHER_CODE, UNKNOWN_CODE

__all__ = [
    "map_unmapped_states",
    "fold_micro_catchments",
    "drop_networks",
    "interpolate_series",
    "nearest_viable_hop",
]


def map_unmapped_states(series: VectorSeries, known_sites: set[str]) -> VectorSeries:
    """Fold states outside ``known_sites`` (and specials) into ``other``.

    Mirrors the identifier-mapping step: a CHAOS/NSID reply whose server
    identifier maps to no known site is real data but not a usable
    catchment, so it is kept as ``other`` rather than dropped.
    """
    catalog = series.catalog
    remap = np.arange(len(catalog), dtype=np.int32)
    for code in range(3, len(catalog)):  # specials occupy 0..2
        if catalog.label(code) not in known_sites:
            remap[code] = OTHER_CODE
    return series.replace_codes(remap[series.matrix])


def fold_micro_catchments(
    series: VectorSeries,
    min_networks: int = 0,
    min_fraction: float = 0.0,
    weights: Optional[np.ndarray] = None,
) -> tuple[VectorSeries, list[str]]:
    """Fold sites that never serve a meaningful share into ``other``.

    A site is micro when its *peak* (weighted) share over the whole
    series stays below both thresholds. Returns the cleaned series and
    the list of folded site labels.
    """
    totals = series.aggregate_over_time(weights)
    if weights is None:
        denominator = float(len(series.networks))
    else:
        denominator = float(np.asarray(weights, dtype=np.float64).sum())
    micro: list[str] = []
    for site in series.catalog.site_labels:
        peak = float(np.max(totals[site])) if site in totals else 0.0
        if peak < min_networks or (denominator and peak / denominator < min_fraction):
            micro.append(site)
    if not micro:
        return series.copy(), []
    catalog = series.catalog
    remap = np.arange(len(catalog), dtype=np.int32)
    for site in micro:
        code = catalog.lookup(site)
        assert code is not None
        remap[code] = OTHER_CODE
    return series.replace_codes(remap[series.matrix]), micro


def drop_networks(
    series: VectorSeries, predicate: Callable[[str], bool]
) -> VectorSeries:
    """Remove networks for which ``predicate`` is true (e.g. internal prefixes)."""
    keep = [network for network in series.networks if not predicate(network)]
    return series.select_networks(keep)


def interpolate_series(
    series: VectorSeries, limit: int = 3, repair_errors: bool = False
) -> VectorSeries:
    """Nearest-neighbour interpolation of unknown runs (§2.4).

    Each unknown cell copies the nearer of the previous/next known
    observation of the same network, provided that neighbour is at most
    ``limit`` steps away; ties go to the earlier observation, matching
    the paper's first-half/second-half rule. Cells with no known
    neighbour within reach stay unknown.

    ``repair_errors`` treats ``err`` observations (query loss, the
    other face of "missing data") as gaps too. At full VP volume a
    one-round err blip is sub-threshold noise and the default leaves
    it alone; at reduced volume (``repro vps``), where one VP carries
    the weight of its whole catchment, repairing these blips is what
    keeps loss noise from masquerading as routing change. Err runs
    longer than ``limit`` — a genuinely unreachable service — stay
    err either way.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    codes = series.matrix
    num_times = codes.shape[0]
    if num_times == 0 or limit == 0:
        return series.copy()

    known = codes != UNKNOWN_CODE
    if repair_errors:
        known &= codes != ERROR_CODE
    # Distances never exceed T-1, so capping the reach at T changes
    # nothing and keeps the sentinels below within int32.
    limit = min(limit, num_times)
    time_index = np.arange(num_times, dtype=np.int32)[:, None]

    # Row of the most recent known observation at or before each cell,
    # and of the next one at or after it. A missing neighbour gets a
    # sentinel row more than ``limit`` steps away from every cell:
    # ``known·(t − sentinel) + sentinel`` is ``t`` where known and the
    # sentinel elsewhere. These two buffers are reused in place below,
    # with ``known`` as the one mask buffer, so no further T×N temporary
    # is made; each select is a product with a mask, which runs several
    # times faster than ``np.where`` or a masked ``np.copyto``.
    before = np.int32(-limit - 1)
    after = np.int32(num_times + limit)
    forward = np.multiply(known, time_index - before, dtype=np.int32)
    forward += before
    np.maximum.accumulate(forward, axis=0, out=forward)
    backward = np.multiply(known, time_index - after, dtype=np.int32)
    backward += after
    flipped = backward[::-1]
    np.minimum.accumulate(flipped, axis=0, out=flipped)

    # ``offset`` is the signed step to the nearer neighbour: −forward
    # distance when the earlier one is no farther (ties go earlier), else
    # +backward distance. Known cells are their own neighbour at offset
    # 0, and so is a cell with no neighbour within reach.
    np.subtract(time_index, forward, out=forward)
    offset = np.subtract(backward, time_index, out=backward)
    earlier = np.less_equal(forward, offset, out=known)
    np.add(forward, offset, out=forward)
    offset -= np.multiply(forward, earlier, out=forward)
    offset *= np.less_equal(np.abs(offset, out=forward), limit, out=earlier)
    source = np.add(offset, time_index, out=offset)
    filled = np.take_along_axis(codes, source, axis=0)

    return series.replace_codes(filled)


def nearest_viable_hop(
    hop_states: Sequence[Optional[str]],
    focus: int,
    max_offset: int = 2,
) -> Optional[str]:
    """Spatial gap filling for traceroutes (§2.4).

    When the hop of interest did not answer (private address, filtered
    ICMP), the paper propagates the nearest responsive hop. ``focus`` is
    a zero-based hop index; hops up to ``max_offset`` away are
    considered, nearer first, with the earlier (closer to the source)
    hop winning ties.
    """
    if not 0 <= focus < len(hop_states):
        raise IndexError(f"focus hop {focus} outside 0..{len(hop_states) - 1}")
    if hop_states[focus] is not None:
        return hop_states[focus]
    for offset in range(1, max_offset + 1):
        before = focus - offset
        if before >= 0 and hop_states[before] is not None:
            return hop_states[before]
        after = focus + offset
        if after < len(hop_states) and hop_states[after] is not None:
            return hop_states[after]
    return None
