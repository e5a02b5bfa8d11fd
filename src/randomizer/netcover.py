"""Finite nets of pure states under the trace-norm metric, built by greedy random packing.

A maximal (delta/2)-separated set of pure states is a (delta/2)-net and hence
a delta-net with margin (Hayden, Leung, Shor and Winter, CMP 250, 2004).
Maximality is only probabilistic here: the builder stops after a run of
consecutive rejections, and ``audit_covering`` measures how well the result
actually covers. A build that has not stopped within ``_WORK_CEILING``
feature entries of windowed candidate-state pairs is refused, so every call
ends.

Every pure-state overlap in this module (the builder's screening, the
separation certificate and the audit) goes through one real kernel. A state x
maps to the real vector F(x) = ``linalg.hermitian_coordinates(x)`` of length
d^2 that lists the coordinates of |x><x| in an orthonormal basis of the
Hermitian matrices under the Hilbert-Schmidt inner product: |x_j|^2, and for
j < k, sqrt(2) Re(x_j conj(x_k)) and sqrt(2) Im(x_j conj(x_k)); the net scan
of ``certify`` reads the same coordinates. Then F(x) . F(y) =
tr(|x><x| |y><y|) = |<x|y>|^2 is an identity, not an approximation, so one
real matrix product yields the squared overlaps of whole blocks of states
directly. The price grows with d: a feature row holds d^2 reals where a state
holds 2d, so at d = 16 the real product does four times the arithmetic of the
complex one.

Both scans look only at the net states that can matter. For unit vectors x
and y, with P = |0><0|,

    | |x_0|^2 - |y_0|^2 | = |tr(P(|x><x| - |y><y|))| <= || |x><x| - |y><y| ||_1 / 2
                          = sqrt(1 - |<x|y>|^2),

so two states whose squared overlap exceeds 1 - r^2 have first features
F_0 = |x_0|^2 within r of each other. The net's feature rows are kept sorted
by F_0, and ``_window_max`` compares each query row only with the contiguous
window of net rows whose F_0 lies within a reach r of its own, padded by
``_ROUNDOFF``. Query rows are sorted by F_0 too and scanned in groups that
share the union of their windows, one product per group.

- The builder calls a candidate close to a state when their squared overlap
  exceeds t = 1 - delta^2/16, so a window of reach delta/4 holds every state
  that can reject it: the window maximum exceeds t exactly when the maximum
  over the whole net does. The builder screens both the kept set and the
  states accepted earlier in a block through these windows. The separation
  certificate scans the same windows, each state's own entry skipped.
- The audit scans each sample once in its window of reach delta/4. A sample
  within trace distance delta/2 of some net state finds its nearest state
  there, so its window maximum is its true maximum whenever that is at least
  1 - delta^2/16. A maximal (delta/2)-packing puts nearly every sample that
  close: on d = 2 nets at delta = 0.25 and 0.125, 6 to 22 of 100,000 samples
  are left. Those rows, and any with an empty window, are rescanned in a
  window that holds every net state, so ``failures`` are those of a full
  scan. The first sample with the smallest maximum is kept, and ``max_gap``
  is its distance to the nearest state of the whole net, evaluated once.

One budget, ``_BLOCK_ENTRIES`` = 2^16 entries, bounds every array a pass
allocates: the feature rows of a block of candidates or of audit samples
(2^14 states, 512 KB, at d = 2; 7281 at d = 3), and each tile of overlaps in
a window's product. The builder draws candidates in such blocks, and the
audit draws, featurizes and scans its samples in them. A builder block ends
no later than the candidate at which either stop rule could first fire: the
run of rejections reaching the stop rule, or the net reaching its budget. A
stop can then fire only at a block's last candidate, so every candidate drawn
is counted, and the counters follow from the block's accept positions. Draws
are prefix-stable, so a block holds exactly the candidates a one-by-one loop
draws. Longer blocks sort more query rows together, so each group of them
spans less F_0 and scans a narrower union of windows. Each block is screened
at once against the kept set as it stood when the block began; one greedy
pass then runs over the survivors in chunks of at most 512, each chunk
screened through the same windows against the states accepted earlier in the
block before its own pairwise product decides it. The maximum over a union is
the maximum of the maxima, so every decision, and hence every net, equals
that of a candidate-by-candidate loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import random_pure_states
from .errors import InvalidParameter, NetInfeasible, require_open_interval, require_positive_int
from .haar import as_stream
from .linalg import TOL, hermitian_coordinates, require_finite

_SIZE_CEILING = 10_000_000  # desk-scale memory ceiling on materialized nets
# desk-scale time ceiling on a build, in feature entries of windowed candidate-state pairs: each
# block's candidates times the states kept when it began, times the share 2 r of F_0's range
# [0, 1] that a window of reach r spans, times the d^2 entries of a feature row. The README's
# d=2, delta=0.125 net takes 4.4e8; the d=4 and d=5, delta=1 builds, whose stop rules would
# take hours, reach 2^33 in under 10 s on a 2-vCPU host
_WORK_CEILING = 1 << 33
_CANDIDATE_BATCH = 512  # survivors decided by one pairwise product in the greedy pass
# the one block budget of every netcover pass: the feature entries of a block of candidates
# or audit samples (2^14 states, 512 KB, at d = 2) and the entries of one tile of overlaps
_BLOCK_ENTRIES = 1 << 16
_WINDOW_ROWS = 256  # sorted query rows that share one window of the net
# pads a window's reach; covers rounding in the features and products and the 1e-12 norm
# tolerance of net states, whose effect on F_0 and on the overlaps is of order 1e-11
_ROUNDOFF = 1e-9


def log_cardinality_bound(d: int, delta: float) -> float:
    """Natural log of the covering-number bound (5/delta)^(2d), kept in log domain."""
    d = require_positive_int(d, "dimension")
    require_open_interval(delta, "delta")
    return 2.0 * d * math.log(5.0 / delta)


def _overlap_threshold(delta: float) -> float:
    # separation >= delta/2 in trace distance <=> |<x|y>|^2 <= 1 - (delta/4)^2
    return 1.0 - (delta * delta) / 16.0


def _column_max(net_feats: np.ndarray, cols: np.ndarray, out: np.ndarray,
                own: int | None = None):
    """Write to ``out`` the largest product of each column of ``cols`` with the rows of ``net_feats``.

    ``cols`` holds query feature rows as columns, so each product holds the
    overlaps of a run of columns with every net state, one row per net state, and
    the maximum runs down the columns, a reduction numpy vectorizes across them.
    Each product holds at most ``_BLOCK_ENTRIES`` entries. With ``own``, column j
    skips net row ``own + j``: the column's own state.
    """
    step = max(1, _BLOCK_ENTRIES // net_feats.shape[0])
    for start in range(0, cols.shape[1], step):
        ov2 = net_feats @ cols[:, start:start + step]
        if own is not None:
            diag = np.arange(ov2.shape[1])
            ov2[own + start + diag, diag] = 0.0
        np.max(ov2, axis=0, out=out[start:start + step])


def _window_reach(gap2: float) -> float:
    """Reach in F_0 that holds every state y with 1 - |<x|y>|^2 <= ``gap2``, padded for rounding."""
    return math.sqrt(gap2 + _ROUNDOFF) + _ROUNDOFF


def _sorted_by_key(feats: np.ndarray) -> np.ndarray:
    """Feature rows sorted by their first column F_0 = |x_0|^2."""
    return feats[np.argsort(feats[:, 0])]


def _windows(keys: np.ndarray, net_keys: np.ndarray, reach: float):
    """The groups of ``_WINDOW_ROWS`` sorted query keys, each with the net rows it scans.

    Iterates over (start, end, a, b): the query rows [start, end) and the net
    rows [a, b) whose key lies within ``reach`` of some key of the group. Both
    key arrays are sorted.
    """
    n = keys.shape[0]
    starts = np.arange(0, n, _WINDOW_ROWS)
    ends = np.minimum(starts + _WINDOW_ROWS, n)
    lo = np.searchsorted(net_keys, keys[starts] - reach, "left")
    hi = np.searchsorted(net_keys, keys[ends - 1] + reach, "right")
    return zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist())


def _window_max(feats: np.ndarray, net_sorted: np.ndarray, reach: float) -> np.ndarray:
    """Largest squared overlap of each feature row with the net rows whose F_0 lies within ``reach``.

    ``net_sorted`` holds the net's feature rows sorted by F_0. The query rows are
    scanned in F_0 order in groups of ``_WINDOW_ROWS``, each against the union of
    its rows' windows, so a row may also see states beyond its own reach. A row
    whose window is empty, as every row's is against an empty net, gets 0. The
    sorted query rows are laid out once as contiguous columns, the layout in
    which BLAS takes a group's product fastest.
    """
    n = feats.shape[0]
    order = np.argsort(feats[:, 0])
    cols = feats[order].T.copy()
    sorted_best = np.zeros(n)
    for start, end, a, b in _windows(cols[0], net_sorted[:, 0], reach):
        if a < b:
            _column_max(net_sorted[a:b], cols[:, start:end], sorted_best[start:end])
    best = np.empty(n)
    best[order] = sorted_best
    return best


@dataclass(frozen=True, eq=False)
class PureStateNet:
    """A (delta/2)-separated list of pure states with its claimed covering radius delta.

    Equality is identity: comparing the state arrays elementwise has no truth value.
    """

    dim: int
    delta: float
    states: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        require_positive_int(self.dim, "dimension")
        require_open_interval(self.delta, "delta", 2)
        states = require_finite(np.asarray(self.states, dtype=complex), "net states")
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != self.dim:
            raise InvalidParameter(f"states must have shape (M, {self.dim}) with M >= 1")
        norms = np.linalg.norm(states, axis=1)
        if np.max(np.abs(norms - 1.0)) > TOL.state_norm:
            raise InvalidParameter("net contains a non-normalized state")
        _require_separated(states, self.delta)
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return int(self.states.shape[0])


def _require_separated(states: np.ndarray, delta: float):
    """Separation certificate: every distinct pair at trace distance >= delta/2.

    A pair closer than delta/2 has a squared overlap above the builder's
    threshold, so each state is compared only with the states in its F_0 window
    of reach delta/4, its own entry skipped.
    """
    threshold = _overlap_threshold(delta)
    feats = _sorted_by_key(hermitian_coordinates(states))
    cols = feats.T.copy()
    best = np.empty(feats.shape[0])
    for start, end, a, b in _windows(cols[0], cols[0], _window_reach(1.0 - threshold)):
        _column_max(feats[a:b], cols[:, start:end], best[start:end], own=start - a)
    worst = float(np.max(best))
    if worst > threshold:
        dist = 2.0 * math.sqrt(max(0.0, 1.0 - worst))
        raise InvalidParameter(
            f"separation certificate failed: pair at trace distance {dist:.6f} < {delta / 2:.6f}"
        )


def _stop_run(size: int) -> int:
    """Consecutive rejections that stop the builder while ``size`` states are kept.

    The block length reads the rule here: a block ends no later than the
    candidate at which this run could first be reached, so the stop can fire
    only at a block's last candidate, and the counters derived from the
    block's accepts are those of a candidate-by-candidate loop.
    """
    return max(1000, 20 * size)


def build_delta_net(d: int, delta: float, rng, max_states: int | None = None) -> PureStateNet:
    """Greedy maximal (delta/2)-separated set of uniform random pure states.

    Candidates are drawn uniformly; one is kept iff its trace distance to every
    kept state is >= delta/2. The builder stops after max(1000, 20 * size)
    consecutive rejections, where size is the number of states kept so far, so
    the rule tracks the set as it grows; or once ``max_states`` are kept.
    ``rng`` is an RngStream or an int seed; the provenance records its seed
    and stream id.

    A build whose candidates, each counted against the share of the states
    kept when its block began that a window spans, pass ``_WORK_CEILING``
    feature entries (d^2 a pair) without a stop raises NetInfeasible, with
    or without a budget.

    Without an explicit ``max_states`` budget the covering-number bound guards
    against astronomically large requests (NetInfeasible); a delta/2-separated
    set is also delta'/2-separated for every delta' < delta, so from delta = 1
    on the guard takes the bound's limit 2 d ln 5. With a budget the guard is
    waived and the result may knowingly undercover, which the provenance
    records as ``stopped_by="budget"``.

    Candidates are drawn in blocks that end where a stop could first fire, and
    each block is decided by one greedy pass (see the module docstring), so
    the result equals a candidate-by-candidate loop.
    """
    d = require_positive_int(d, "dimension")
    require_open_interval(delta, "delta", 2)
    if max_states is not None:
        max_states = require_positive_int(max_states, "max_states")
    else:
        log_bound = log_cardinality_bound(d, delta) if delta < 1.0 else 2.0 * d * math.log(5.0)
        if log_bound > math.log(_SIZE_CEILING):
            raise NetInfeasible(
                f"covering bound exp({log_bound:.1f}) exceeds the size ceiling {_SIZE_CEILING:.0e} "
                f"at (d={d}, delta={delta}); pass max_states to build a budgeted net"
            )

    stream = as_stream(rng)
    gen = stream.generator()
    threshold = _overlap_threshold(delta)
    reach = _window_reach(1.0 - threshold)
    share = min(1.0, 2.0 * reach)  # of F_0's range [0, 1], spanned by a window
    ceiling = _SIZE_CEILING if max_states is None else max_states

    kept: list[np.ndarray] = []
    kept_sorted = np.zeros((0, d * d))
    size = consecutive = candidates = work = 0
    while True:
        # neither stop can fire before the block's last candidate: a run of rejections
        # must reach the stop rule, and each accept is one candidate
        n = max(1, min(_BLOCK_ENTRIES // (d * d), _stop_run(size) - consecutive, ceiling - size))
        block = random_pure_states(d, n, gen)
        feats = hermitian_coordinates(block)
        survivors = np.flatnonzero(_window_max(feats, kept_sorted, reach) <= threshold)
        # greedy over the survivors, a chunk at a time: a chunk is screened against the
        # states accepted earlier in the block, then its first live survivor is kept and
        # removes the later ones too close to it
        accepted: list[int] = []
        for first in range(0, survivors.size, _CANDIDATE_BATCH):
            chunk = survivors[first:first + _CANDIDATE_BATCH]
            if accepted:
                chunk = chunk[_window_max(feats[chunk], _sorted_by_key(feats[accepted]),
                                          reach) <= threshold]
            fresh = feats[chunk]
            close = (fresh @ fresh.T) > threshold
            live = np.ones(chunk.size, dtype=bool)
            for k, pos in enumerate(chunk.tolist()):
                if live[k]:
                    accepted.append(pos)
                    live[k + 1:] &= ~close[k, k + 1:]

        candidates += n
        work += n * size * share * d * d
        if accepted:
            kept.append(block[accepted])
            kept_sorted = _sorted_by_key(np.concatenate([kept_sorted, feats[accepted]]))
            size += len(accepted)
            consecutive = n - 1 - accepted[-1]
        else:
            consecutive += n
        if size >= ceiling:
            if max_states is None:
                raise NetInfeasible(
                    f"net at (d={d}, delta={delta}) exceeded the size ceiling {_SIZE_CEILING:.0e}"
                )
            stopped_by = "budget"
            break
        if consecutive >= _stop_run(size):
            stopped_by = "rejections"
            break
        if work >= _WORK_CEILING:
            raise NetInfeasible(
                f"net at (d={d}, delta={delta}) did not stop within the work ceiling: "
                f"{candidates} candidates against up to {size} kept states, {work:.2e} feature "
                f"entries >= {_WORK_CEILING:.2e}; pass a larger delta, or max_states below {size}"
            )

    prov = {
        "seed": stream.seed,
        "stream_id": stream.stream_id,
        "max_states": max_states,
        "candidates": candidates,
        "rejections": candidates - size,
        "stopped_by": stopped_by,
    }
    return PureStateNet(d, float(delta), np.concatenate(kept), prov)


@dataclass(frozen=True)
class CoverageReport:
    """Monte Carlo audit of a net's covering radius."""

    dim: int
    delta: float
    trials: int
    max_gap: float
    failures: int


def _nearest_overlap(feats: np.ndarray, net_sorted: np.ndarray, delta: float) -> np.ndarray:
    """Largest squared overlap of each feature row with the whole net.

    A net state within trace distance r of a row lies within r/2 of it in F_0, so
    the window of that reach holds the nearest state of every row whose maximum
    is at least 1 - r^2/4. Every row is scanned at r = delta/2, where a maximal
    packing puts nearly every nearest state; the rows beyond it, and those with
    an empty window, are rescanned in a window that holds every net state.
    """
    gap2 = delta * delta / 16.0
    best = _window_max(feats, net_sorted, _window_reach(gap2))
    rows = np.flatnonzero(best < 1.0 - gap2)
    if rows.size:
        best[rows] = _window_max(feats[rows], net_sorted, _window_reach(1.0))
    return best


def audit_covering(net: PureStateNet, trials: int, rng) -> CoverageReport:
    """Sample uniform pure states and measure the worst nearest-net distance.

    A failure is a sampled state farther than ``net.delta`` from every net
    state; for a truly covering net the failure count is zero. ``rng`` is an
    RngStream or an int seed.

    Samples are drawn and scanned in blocks of ``_BLOCK_ENTRIES`` feature
    entries. The worst sample x is the first with the smallest window maximum.
    ``max_gap`` is 2 sqrt(1 - |<y|x>|^2) for its nearest state y in the whole
    net, found by one complex product whose shape does not depend on the
    blocks, so it reads the same for every block size. It is evaluated as
    2 |x - <y|x> y|, which keeps the digits that 1 - |<y|x>|^2 loses near 1.
    """
    trials = require_positive_int(trials, "trials")
    gen = as_stream(rng).generator()
    net_sorted = _sorted_by_key(hermitian_coordinates(net.states))
    block = max(1, _BLOCK_ENTRIES // (net.dim * net.dim))
    worst, worst_ov2 = None, math.inf
    failures = 0
    remaining = trials
    while remaining > 0:
        k = min(block, remaining)
        samples = random_pure_states(net.dim, k, gen)
        best_ov2 = _nearest_overlap(hermitian_coordinates(samples), net_sorted, net.delta)
        i = int(np.argmin(best_ov2))
        if best_ov2[i] < worst_ov2:
            worst, worst_ov2 = samples[i].copy(), best_ov2[i]
        gaps = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - best_ov2))
        failures += int(np.count_nonzero(gaps > net.delta))
        remaining -= k
    overlaps = np.conj(net.states) @ worst
    j = int(np.argmax(np.abs(overlaps)))
    max_gap = 2.0 * float(np.linalg.norm(worst - overlaps[j] * net.states[j]))
    return CoverageReport(net.dim, net.delta, trials, max_gap, failures)
