"""Finite nets of pure states under the trace-norm metric, built by greedy random packing.

A maximal (delta/2)-separated set of pure states is a (delta/2)-net and hence
a delta-net with margin. Maximality is only probabilistic here: the builder
stops after a run of consecutive rejections, and ``audit_covering`` measures
how well the result actually covers.

Every pure-state overlap in this module (the builder's screening, the
separation certificate and the audit) goes through one real kernel. A state x
maps to the real vector F(x) of length d^2 that lists the coordinates of
|x><x| in an orthonormal basis of the Hermitian matrices under the
Hilbert-Schmidt inner product: |x_j|^2, and for j < k, sqrt(2) Re(x_j conj(x_k))
and sqrt(2) Im(x_j conj(x_k)). Then F(x) . F(y) = tr(|x><x| |y><y|) = |<x|y>|^2
is an identity, not an approximation, so one real matrix product yields the
squared overlaps of whole blocks of states directly. At d = 2 that replaces a
complex product with inner dimension 2 followed by two passes over a block of
complex entries; the products are reduced to their row maxima in tiles that
stay in cache. The price grows with d: a feature row holds d^2 reals where a
state holds 2d, so at d = 16 the real product does four times the arithmetic
of the complex one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import random_pure_states
from .errors import InvalidParameter, NetInfeasible, require_positive_int
from .haar import as_stream
from .linalg import TOL, require_finite

_SIZE_CEILING = 10_000_000  # desk-scale memory ceiling on materialized nets
_CANDIDATE_BATCH = 512
_AUDIT_CHUNK = 4096  # audit samples drawn and compared per step
_TILE_ENTRIES = 1 << 17  # one 1 MB float block of overlaps, small enough to stay in L2


def log_cardinality_bound(d: int, delta: float) -> float:
    """Natural log of the covering-number bound (5/delta)^(2d), kept in log domain."""
    d = require_positive_int(d, "dimension")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    return 2.0 * d * math.log(5.0 / delta)


def _overlap_threshold(delta: float) -> float:
    # separation >= delta/2 in trace distance <=> |<x|y>|^2 <= 1 - (delta/4)^2
    return 1.0 - (delta * delta) / 16.0


def _bloch_features(states: np.ndarray) -> np.ndarray:
    """Real rows F(x) of length d^2 with F(x) . F(y) = |<x|y>|^2 for every pair of rows.

    F(x) lists |x_j|^2, then sqrt(2) Re(x_j conj(x_k)) and sqrt(2) Im(x_j conj(x_k))
    for j < k: the entries of |x><x| in an orthonormal Hermitian basis.
    """
    d = states.shape[1]
    rows, cols = np.triu_indices(d, 1)
    cross = math.sqrt(2.0) * (states[:, rows] * np.conj(states[:, cols]))
    return np.concatenate([states.real ** 2 + states.imag ** 2, cross.real, cross.imag], axis=1)


def _tile_rows(m: int) -> int:
    """Rows per tile when each row holds the overlaps with ``m >= 1`` net states."""
    return max(1, _TILE_ENTRIES // m)


def _max_overlap(feats: np.ndarray, net_feats: np.ndarray) -> np.ndarray:
    """Largest squared overlap of each feature row with the net, computed in cache-sized tiles."""
    n, m = feats.shape[0], net_feats.shape[0]
    best = np.zeros(n)
    if m == 0:
        return best
    step = _tile_rows(m)
    block = np.empty((min(step, n), m))
    for start in range(0, n, step):
        tile = block[:min(step, n - start)]
        np.matmul(feats[start:start + step], net_feats.T, out=tile)
        np.max(tile, axis=1, out=best[start:start + tile.shape[0]])
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
        if not 0.0 < self.delta < 2.0:
            raise InvalidParameter(f"delta must lie in (0, 2), got {self.delta}")
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
    """Separation certificate: every distinct pair at trace distance >= delta/2."""
    feats = _bloch_features(states)
    threshold = _overlap_threshold(delta)
    step = _tile_rows(feats.shape[0])
    for start in range(0, feats.shape[0], step):
        ov2 = feats[start:start + step] @ feats.T
        rows = np.arange(ov2.shape[0])
        ov2[rows, start + rows] = 0.0  # ignore self-overlap
        worst = float(np.max(ov2))
        if worst > threshold:
            dist = 2.0 * math.sqrt(max(0.0, 1.0 - worst))
            raise InvalidParameter(
                f"separation certificate failed: pair at trace distance {dist:.6f} < {delta / 2:.6f}"
            )


def build_delta_net(d: int, delta: float, rng, max_states: int | None = None) -> PureStateNet:
    """Greedy maximal (delta/2)-separated set of uniform random pure states.

    Candidates are drawn uniformly; one is kept iff its trace distance to every
    kept state is >= delta/2. The builder stops after max(1000, 20 * size)
    consecutive rejections, where size is the number of states kept so far, so
    the rule tracks the set as it grows; or once ``max_states`` are kept.
    ``rng`` is an RngStream or an int seed; the provenance records its seed
    and stream id.

    Without an explicit ``max_states`` budget the covering-number bound guards
    against astronomically large requests (NetInfeasible); with a budget the
    guard is waived and the result may knowingly undercover, which the
    provenance records as ``stopped_by="budget"``.

    Candidates come in batches of 512 and are screened against the kept set by
    one product per tile; the greedy pass then runs over the batch's survivors
    only, and the counters and stop rule are replayed from the accept
    positions, so the result equals a candidate-by-candidate loop.
    """
    d = require_positive_int(d, "dimension")
    if not 0.0 < delta < 2.0:
        raise InvalidParameter(f"delta must lie in (0, 2), got {delta}")
    if max_states is not None:
        max_states = require_positive_int(max_states, "max_states")
    if max_states is None and delta < 1.0:
        log_bound = log_cardinality_bound(d, delta)
        if log_bound > math.log(_SIZE_CEILING):
            raise NetInfeasible(
                f"covering bound exp({log_bound:.1f}) exceeds the size ceiling {_SIZE_CEILING:.0e} "
                f"at (d={d}, delta={delta}); pass max_states to build a budgeted net"
            )

    stream = as_stream(rng)
    gen = stream.generator()
    threshold = _overlap_threshold(delta)
    ceiling = _SIZE_CEILING if max_states is None else max_states

    kept: list[np.ndarray] = []
    kept_feats = np.zeros((0, d * d))
    consecutive = 0
    candidates = 0
    rejections = 0
    stopped_by = "rejections"

    done = False
    while not done:
        batch = random_pure_states(d, _CANDIDATE_BATCH, gen)
        feats = _bloch_features(batch)
        survivors = np.flatnonzero(_max_overlap(feats, kept_feats) <= threshold)
        # greedy over the survivors: the first live one is kept and removes the later
        # survivors too close to it
        fresh = feats[survivors]
        close = (fresh @ fresh.T) > threshold
        live = np.ones(survivors.size, dtype=bool)
        accepted = []
        for k, pos in enumerate(survivors.tolist()):
            if live[k]:
                accepted.append(pos)
                live[k + 1:] &= ~close[k, k + 1:]

        # replay the sequential counters: each accept ends a run of rejections
        size = kept_feats.shape[0]
        taken = 0
        prev = 0
        for pos in accepted + [_CANDIDATE_BATCH]:
            stop = max(1000, 20 * (size + taken))
            run = pos - prev
            if consecutive + run >= stop:
                candidates += stop - consecutive
                rejections += stop - consecutive
                done = True
                break
            candidates += run
            rejections += run
            consecutive += run
            if pos == _CANDIDATE_BATCH:
                break
            candidates += 1
            taken += 1
            consecutive = 0
            prev = pos + 1
            if size + taken >= ceiling:
                stopped_by = "budget" if max_states is not None else "ceiling"
                done = True
                break
        if taken:
            rows = np.asarray(accepted[:taken])
            kept.append(batch[rows])
            kept_feats = np.concatenate([kept_feats, feats[rows]])

    if stopped_by == "ceiling":
        raise NetInfeasible(
            f"net at (d={d}, delta={delta}) exceeded the size ceiling {_SIZE_CEILING:.0e}"
        )

    prov = {
        "seed": stream.seed,
        "stream_id": stream.stream_id,
        "max_states": max_states,
        "candidates": candidates,
        "rejections": rejections,
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


def audit_covering(net: PureStateNet, trials: int, rng) -> CoverageReport:
    """Sample uniform pure states and measure the worst nearest-net distance.

    A failure is a sampled state farther than ``net.delta`` from every net
    state; for a truly covering net the failure count is zero. ``rng`` is an
    RngStream or an int seed.
    """
    trials = require_positive_int(trials, "trials")
    gen = as_stream(rng).generator()
    net_feats = _bloch_features(net.states)
    max_gap = 0.0
    failures = 0
    remaining = trials
    while remaining > 0:
        k = min(_AUDIT_CHUNK, remaining)
        sample = random_pure_states(net.dim, k, gen)
        best_ov2 = _max_overlap(_bloch_features(sample), net_feats)
        gaps = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - best_ov2))
        max_gap = max(max_gap, float(np.max(gaps)))
        failures += int(np.sum(gaps > net.delta))
        remaining -= k
    return CoverageReport(net.dim, net.delta, trials, max_gap, failures)
