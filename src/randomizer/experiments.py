"""Monte Carlo harnesses plus persistence for channels, nets, certificates and CSV reports."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bounds import BoundConstants, DEFAULT_CONSTANTS, concentration_tail_bound
from .certify import DeviationCertificate, Verdict, default_net_delta, verdict
from .channel import (RandomUnitaryChannel, build_random_channel, random_pure_states,
                      require_pure_state)
from .errors import InvalidParameter, NetInfeasible, ParseError
from .haar import RngStream, sample_haar_unitaries  # noqa: F401 (the benchmark wraps it here)
from .netcover import PureStateNet, build_delta_net
from .workers import parallel_map, resolve_threads  # resolve_threads: cli imports it from here

_TRIAL_CHUNK = 2000

CHANNEL_SCHEMA = "ruc-2"
NET_PROVENANCE = ("seed", "stream_id", "stop_k", "max_states", "candidates", "rejections",
                  "stopped_by")
CONCENTRATION_CSV_COLUMNS = ("d", "N", "delta", "trials", "empirical_tail",
                             "bound", "vacuous", "seed")
SWEEP_CSV_COLUMNS = ("d", "epsilon", "N", "channels", "frac_certified", "frac_not",
                     "frac_undetermined", "mean_A_upper", "mean_A_lower", "seed")


# ---------------------------------------------------------------------------
# concentration harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical tail of the pair statistic against its analytic bound."""

    dim: int
    count: int
    delta: float
    trials: int
    empirical_tail: float
    bound: float
    vacuous: bool
    stat_mean: float
    stat_std: float
    stat_min: float
    stat_max: float
    seed: int
    stream_id: int


def run_concentration_trial(d: int, n: int, delta: float, trials: int,
                            phi: np.ndarray, psi: np.ndarray, seed,
                            consts: BoundConstants = DEFAULT_CONSTANTS) -> ConcentrationReport:
    """Draw ``trials`` independent channels and count tail events at radius delta/d.

    A tail event is |(1/N) sum_i |<psi|U_i|phi>|^2 - 1/d| >= delta/d. Only
    the states U_i phi enter, and for Haar U_i each is a uniform pure state,
    so a chunk of k trials draws k * N uniform pure states in one batch
    instead of k * N unitaries: the same law, without the QR.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise InvalidParameter(f"trials must be positive, got {trials}")
    phi = require_pure_state(phi)
    psi = require_pure_state(psi)
    if phi.shape[0] != d or psi.shape[0] != d:
        raise InvalidParameter("state dimension does not match d")
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    gen = stream.generator()

    inv_d = 1.0 / d
    threshold = delta / d
    exceed = 0
    total = 0.0
    total_sq = 0.0
    stat_min = math.inf
    stat_max = -math.inf
    remaining = int(trials)
    while remaining > 0:
        k = min(_TRIAL_CHUNK, remaining)
        amps = random_pure_states(d, k * n, gen) @ np.conj(psi)
        stats = np.mean(np.abs(amps.reshape(k, n)) ** 2, axis=1)
        exceed += int(np.sum(np.abs(stats - inv_d) >= threshold))
        total += float(np.sum(stats))
        total_sq += float(np.sum(stats * stats))
        stat_min = min(stat_min, float(np.min(stats)))
        stat_max = max(stat_max, float(np.max(stats)))
        remaining -= k

    mean = total / trials
    variance = max(0.0, total_sq / trials - mean * mean)
    bound = concentration_tail_bound(delta, n, consts)
    return ConcentrationReport(
        dim=int(d), count=int(n), delta=float(delta), trials=int(trials),
        empirical_tail=exceed / trials, bound=bound, vacuous=bound >= 1.0,
        stat_mean=mean, stat_std=math.sqrt(variance),
        stat_min=stat_min, stat_max=stat_max,
        seed=stream.seed, stream_id=stream.stream_id,
    )


# ---------------------------------------------------------------------------
# randomizing sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid of (d, epsilon, N) cells plus net and optimizer parameters."""

    dims: tuple[int, ...]
    epsilons: tuple[float, ...]
    counts: tuple[int, ...]
    channels_per_cell: int = 20
    delta: float | None = None  # None: delta = default_net_delta(epsilon) per cell
    stop_k: int | None = None
    max_net_states: int | None = None
    restarts: int = 32
    tol: float = 1e-10
    max_iters: int = 500

    def cells(self) -> list[tuple[int, float, int]]:
        return list(product(self.dims, self.epsilons, self.counts))


@dataclass(frozen=True)
class SweepCell:
    dim: int
    epsilon: float
    count: int
    channels: int
    frac_certified: float
    frac_not: float
    frac_undetermined: float
    mean_A_upper: float
    mean_A_lower: float
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    seed: int
    stream_id: int
    cells: tuple[SweepCell, ...] = field(default_factory=tuple)


def _run_sweep_cell(config: SweepConfig, stream: RngStream, index: int,
                    cell: tuple[int, float, int]) -> SweepCell:
    d, epsilon, n = cell
    cell_stream = stream.child(index)
    delta = config.delta if config.delta is not None else default_net_delta(epsilon)
    try:
        net = build_delta_net(d, delta, cell_stream.child(0), stop_k=config.stop_k,
                              max_states=config.max_net_states)
    except NetInfeasible as exc:
        return SweepCell(d, epsilon, n, 0, 0.0, 0.0, 0.0, math.nan, math.nan,
                         skipped=True, reason=str(exc))

    tallies = {v: 0 for v in Verdict}
    uppers = []
    lowers = []
    for t in range(config.channels_per_cell):
        ch = build_random_channel(d, n, cell_stream.child(1, t))
        cert = verdict(ch, epsilon, net, restarts=config.restarts, tol=config.tol,
                       max_iters=config.max_iters, rng=cell_stream.child(2, t))
        tallies[cert.verdict] += 1
        uppers.append(cert.A_upper)
        lowers.append(cert.A_lower)

    total = config.channels_per_cell
    return SweepCell(
        dim=d, epsilon=epsilon, count=n, channels=total,
        frac_certified=tallies[Verdict.CERTIFIED_RANDOMIZING] / total,
        frac_not=tallies[Verdict.CERTIFIED_NOT_RANDOMIZING] / total,
        frac_undetermined=tallies[Verdict.UNDETERMINED] / total,
        mean_A_upper=float(np.mean(uppers)),
        mean_A_lower=float(np.mean(lowers)),
    )


def run_randomizing_sweep(config: SweepConfig, seed, threads: int = 1) -> SweepReport:
    """Run verdicts over the grid; deterministic per seed, cells independent.

    Cells are the parallel work items; each derives its own substreams for the
    net, the channels and the optimizer, so thread count never changes results.
    """
    if config.channels_per_cell < 1:
        raise InvalidParameter("channels_per_cell must be positive")
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    cells = config.cells()
    results = parallel_map(
        lambda ic: _run_sweep_cell(config, stream, ic[0], ic[1]),
        list(enumerate(cells)),
        threads=threads,
    )
    return SweepReport(config=config, seed=stream.seed, stream_id=stream.stream_id,
                       cells=tuple(results))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _complex_to_pairs(arr: np.ndarray) -> list:
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(data, expected_ndim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: entries are not [re, im] pairs") from exc
    if arr.ndim != expected_ndim + 1 or arr.shape[-1] != 2:
        raise ParseError(f"{what}: expected [re, im] pairs, got shape {arr.shape}")
    return arr.view(complex)[..., 0]  # bit for bit, signed zeros included


def _number(payload: dict, key: str, path: str) -> float:
    """``float(payload[key])``; a null or non-numeric value is a ParseError naming the key."""
    value = payload[key]
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {key!r} is not a number: {value!r}") from exc


def _integer(payload: dict, key: str, path: str) -> int:
    """``payload[key]`` as a JSON integer; a fraction, string, bool or null is a ParseError."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {key!r} is not an integer: {value!r}")
    return value


def _write_json(path: str, payload: dict) -> None:
    """Compact, key-sorted JSON plus a newline.

    ``json.dumps`` encodes in one call through the C encoder; ``json.dump``
    to a file streams through the pure-Python one, with the same bytes.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")


def save_channel(path: str, ch: RandomUnitaryChannel) -> None:
    payload = {
        "schema": CHANNEL_SCHEMA,
        "dim": ch.dim,
        "count": ch.count,
        "seed": ch.provenance.get("seed"),
        "stream_id": ch.provenance.get("stream_id"),
        "kind": ch.provenance.get("kind", "unknown"),
        "gram": _complex_to_pairs(ch.gram),
    }
    _write_json(path, payload)


def load_channel(path: str) -> RandomUnitaryChannel:
    """Load a channel and re-validate its matrix C; a C that is no channel raises InvalidMatrix."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CHANNEL_SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema (want {CHANNEL_SCHEMA!r})")
    for key in ("dim", "count", "gram"):
        if key not in payload:
            raise ParseError(f"{path}: missing key {key!r}")
    gram = _pairs_to_complex(payload["gram"], 2, f"{path}: gram")
    d, n = _integer(payload, "dim", path), _integer(payload, "count", path)
    if d < 1 or gram.shape != (d * d, d * d):
        raise ParseError(f"{path}: gram shape {gram.shape} != ({d * d}, {d * d}) for dim {d}")
    prov = {"kind": payload.get("kind", "unknown"), "seed": payload.get("seed"),
            "stream_id": payload.get("stream_id"), "dim": d, "count": n}
    return RandomUnitaryChannel(gram, prov)


def save_net(path: str, net: PureStateNet) -> None:
    payload = {
        "dim": net.dim,
        "delta": net.delta,
        "states": _complex_to_pairs(net.states),
        **{key: net.provenance.get(key) for key in NET_PROVENANCE},
    }
    _write_json(path, payload)


def load_net(path: str) -> PureStateNet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("dim", "delta", "states"):
        if key not in payload:
            raise ParseError(f"{path}: missing key {key!r}")
    states = _pairs_to_complex(payload["states"], 2, f"{path}: states")
    prov = {key: payload.get(key) for key in NET_PROVENANCE}
    return PureStateNet(_integer(payload, "dim", path), _number(payload, "delta", path),
                        states, prov)


def certificate_to_dict(cert: DeviationCertificate) -> dict:
    return {
        "delta": cert.delta,
        "B": cert.B,
        "A_upper": cert.A_upper,
        "A_lower": cert.A_lower,
        "epsilon": cert.epsilon,
        "verdict": cert.verdict.value,
        "witnesses": {
            "phi": _complex_to_pairs(cert.witness_phi),
            "psi": _complex_to_pairs(cert.witness_psi),
        },
        "timings": dict(cert.timings),
    }


def save_certificate(path: str, cert: DeviationCertificate) -> None:
    _write_json(path, certificate_to_dict(cert))


def write_concentration_csv(path: str, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONCENTRATION_CSV_COLUMNS)
        for r in reports:
            writer.writerow([r.dim, r.count, repr(r.delta), r.trials,
                             repr(r.empirical_tail), repr(r.bound),
                             "true" if r.vacuous else "false", r.seed])


def write_sweep_csv(path: str, report: SweepReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for cell in report.cells:
            if cell.skipped:
                writer.writerow([cell.dim, repr(cell.epsilon), cell.count, 0,
                                 "", "", "", "", "", report.seed])
            else:
                writer.writerow([cell.dim, repr(cell.epsilon), cell.count, cell.channels,
                                 repr(cell.frac_certified), repr(cell.frac_not),
                                 repr(cell.frac_undetermined), repr(cell.mean_A_upper),
                                 repr(cell.mean_A_lower), report.seed])
