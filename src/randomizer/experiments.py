"""Monte Carlo harnesses plus persistence for channels, nets, certificates and CSV reports."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bounds import concentration_tail_bound
from .certify import DEFAULT_MAX_ITERS, DEFAULT_RESTARTS, DeviationCertificate, Verdict, verdict
from .channel import RandomUnitaryChannel, build_random_channel
from .errors import InvalidParameter, ParseError, require_positive_int
from .haar import RngStream, as_stream
from .haar import sample_haar_unitaries  # noqa: F401 (the benchmark wraps it here)
from .netcover import PureStateNet, build_delta_net  # noqa: F401 (the benchmark wraps it)
from .workers import parallel_map, resolve_threads  # noqa: F401 (the benchmark reads it here)

_DRAW_ENTRIES = 1 << 24  # uniforms drawn at once, 128 MB; one trial must fit
DEFAULT_CHANNELS_PER_CELL = 20  # channels drawn per sweep cell, for the library and the CLI alike

CHANNEL_SCHEMA = "ruc-2"
NET_PROVENANCE = ("seed", "stream_id", "max_states", "candidates", "rejections", "stopped_by")
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
    seed: int
    stream_id: int


def run_concentration_trial(d: int, n: int, delta: float, trials: int,
                            seed) -> ConcentrationReport:
    """Draw ``trials`` independent channels and count tail events at radius delta/d.

    A tail event is |(1/N) sum_i X_i - 1/d| >= delta/d, where X_i =
    |<e_1|U_i|e_1>|^2 is the pair statistic's term at (e_1, e_1). For Haar U_i
    the statistic has the same law at every unit pair, so (e_1, e_1) stands
    for all of them. Each X_i has the law Beta(1, d - 1), with P(X > x) =
    (1 - x)^(d - 1), and is drawn by inversion from one uniform V as
    X = -expm1(log1p(-V) / (d - 1)); at d = 1, X = 1. A chunk of trials draws
    at most 2^24 uniforms at once; a count N above that is refused
    (InvalidParameter).
    """
    d, n = require_positive_int(d, "dimension"), require_positive_int(n, "count")
    trials = require_positive_int(trials, "trials")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    if n > _DRAW_ENTRIES:
        raise InvalidParameter(f"count N = {n} exceeds the desk-scale ceiling {_DRAW_ENTRIES}")
    stream = as_stream(seed)
    gen = stream.generator()

    per_chunk = _DRAW_ENTRIES // n
    inv_d = 1.0 / d
    threshold = delta / d
    exceed = 0
    total = 0.0
    remaining = trials
    while remaining > 0:
        k = min(per_chunk, remaining)
        terms = gen.random(k * n)
        if d > 1:  # in place, so a chunk holds one array of uniforms
            np.log1p(np.negative(terms, out=terms), out=terms)
            terms /= d - 1
            np.negative(np.expm1(terms, out=terms), out=terms)
        else:
            terms.fill(1.0)
        stats = np.mean(terms.reshape(k, n), axis=1)
        exceed += int(np.sum(np.abs(stats - inv_d) >= threshold))
        total += float(np.sum(stats))
        remaining -= k

    bound = concentration_tail_bound(delta, n)
    return ConcentrationReport(
        dim=d, count=n, delta=float(delta), trials=trials,
        empirical_tail=exceed / trials, bound=bound, vacuous=bound >= 1.0,
        stat_mean=total / trials, seed=stream.seed, stream_id=stream.stream_id,
    )


# ---------------------------------------------------------------------------
# randomizing sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid of (d, epsilon, N) cells plus optimizer parameters; cells build no net."""

    dims: tuple[int, ...]
    epsilons: tuple[float, ...]
    counts: tuple[int, ...]
    channels_per_cell: int = DEFAULT_CHANNELS_PER_CELL
    restarts: int = DEFAULT_RESTARTS
    max_iters: int = DEFAULT_MAX_ITERS

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
    tallies = {v: 0 for v in Verdict}
    uppers = []
    lowers = []
    for t in range(config.channels_per_cell):
        ch = build_random_channel(d, n, cell_stream.child(1, t))
        cert = verdict(ch, epsilon, restarts=config.restarts, max_iters=config.max_iters,
                       rng=cell_stream.child(2, t))
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


def run_randomizing_sweep(config: SweepConfig, seed) -> SweepReport:
    """Run verdicts over the grid; deterministic per seed, cells independent.

    Cells are the parallel work items; each derives its own substreams for the
    channels (``child(1, t)``) and the optimizer (``child(2, t)``), so thread
    count never changes results.
    """
    require_positive_int(config.channels_per_cell, "channels_per_cell")
    stream = as_stream(seed)
    cells = config.cells()
    results = parallel_map(lambda ic: _run_sweep_cell(config, stream, ic[0], ic[1]),
                           enumerate(cells))
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
    """``payload[key]`` as a float from a JSON number; a string, bool or null is a ParseError."""
    value = payload[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ParseError(f"{path}: {key!r} is not a number: {value!r}")


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


def _read_json(path: str, required_keys, schema: str | None = None) -> dict:
    """The JSON object in the file at ``path``, holding every key of ``required_keys``.

    A file that is not UTF-8 JSON, not an object, of another ``schema`` (when
    one is given) or without a required key raises ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if schema is not None and payload.get("schema") != schema:
        raise ParseError(f"{path}: missing or unsupported schema (want {schema!r})")
    for key in required_keys:
        if key not in payload:
            raise ParseError(f"{path}: missing key {key!r}")
    return payload


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
    payload = _read_json(path, ("dim", "count", "gram"), CHANNEL_SCHEMA)
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
    payload = _read_json(path, ("dim", "delta", "states"))
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
            writer.writerow([cell.dim, repr(cell.epsilon), cell.count, cell.channels,
                             repr(cell.frac_certified), repr(cell.frac_not),
                             repr(cell.frac_undetermined), repr(cell.mean_A_upper),
                             repr(cell.mean_A_lower), report.seed])
