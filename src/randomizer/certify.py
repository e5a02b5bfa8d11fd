"""Two-sided certification of the randomizing property.

The certified side is the net-free ``spectral_upper_bound_A``. A net's
supremum B is reported but decides nothing: the paper's lift
(B + 2 delta/d)/(1 - 2 delta) never beats the spectral bound at d = 2, where
that is A, and at d >= 3 it exceeds 1/d at every radius the feasibility guard
admits without a size budget. The witnessed side runs an alternating
eigenvector ascent and returns an explicit state pair, so it is a true lower
bound unconditionally. All restarts advance together, one stacked iteration
for every restart still running, and each ends exactly where it would alone.
A verdict compares both sides against epsilon / d.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import (RandomUnitaryChannel, apply_adjoint, apply_channel, maximally_mixed,
                      pair_statistic, pure_projector, random_pure_states)
from .errors import DimensionMismatch, InvalidParameter, require_positive_int
from .haar import RngStream, as_stream
from .netcover import PureStateNet

_SCAN_BUDGET = 1_000_000  # entries of the (chunk, net size) statistic block per B-scan step
_TIE_TOL = 1e-12  # extreme eigenvalues this close in magnitude count as a tie
_PHASE_FLOOR = 1e-8  # witness entries below this magnitude never fix its global phase
_ASCENT_TOL = 1e-10  # a restart stops once a full step gains less than this
_EPS = float(np.finfo(float).eps)
DEFAULT_RESTARTS = 32  # ascent restarts, for the library and the CLI alike
DEFAULT_MAX_ITERS = 500  # iteration cap of each restart


class Verdict(str, Enum):
    CERTIFIED_RANDOMIZING = "CertifiedRandomizing"
    CERTIFIED_NOT_RANDOMIZING = "CertifiedNotRandomizing"
    UNDETERMINED = "Undetermined"


def default_net_delta(epsilon: float) -> float:
    """Net radius epsilon / (3 + 2 epsilon), the choice that makes the lift tight.

    With B = delta / d this delta turns the certified bound into exactly
    epsilon / d; it always satisfies delta >= epsilon / 5.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon / (3.0 + 2.0 * epsilon)


def certified_upper_bound_A(b_value: float, delta: float, d: int) -> float:
    """Lift a net supremum B to the full supremum: (B + 2 delta/d) / (1 - 2 delta).

    The formula has a pole at delta = 1/2 where the bound becomes vacuous,
    so delta must stay below it. delta = 0 returns B unchanged.
    """
    if d < 1:
        raise InvalidParameter(f"dimension must be positive, got {d}")
    if not 0.0 <= delta < 0.5:
        raise InvalidParameter(f"delta must lie in [0, 1/2), got {delta}")
    if b_value < 0.0:
        raise InvalidParameter(f"net supremum must be nonnegative, got {b_value}")
    return (b_value + 2.0 * delta / d) / (1.0 - 2.0 * delta)


def spectral_upper_bound_A(ch: RandomUnitaryChannel) -> float:
    """Net-free bound A <= (1 - 1/d) sigma_max(D), D = S - |I>><<I|/d, plus a rounding margin.

    D vec(P) = vec(R(P) - I/d) for unit-trace P; a unital, trace-preserving R
    leaves only the traceless parts Y of the pair, ||Y||_2 = sqrt(1 - 1/d).
    At d = 2 the bound equals A. The margin makes it bound the computed B and
    A_lower too: (2/d)(||D|I>>|| + ||<<I|D||) covers partial traces of C off
    the identity within TOL.unitarity, 8 eps d^2 sigma_max the SVD, and
    8 eps d^3 the roundoff of x†Cx, as |x|^T |C| |x| <= tr C = d.
    """
    d = ch.dim
    ident = np.eye(d).reshape(-1)
    dev = ch.superoperator - np.outer(ident, ident) / d
    sigma = float(np.linalg.svd(dev, compute_uv=False)[0])
    leak = np.linalg.norm(dev @ ident) + np.linalg.norm(ident @ dev)
    return (1.0 - 1.0 / d) * sigma + 8.0 * _EPS * d * d * (d + sigma) + 2.0 * float(leak) / d


class NetSupremum(NamedTuple):
    value: float
    phi: np.ndarray
    psi: np.ndarray
    phi_index: int
    psi_index: int


def net_supremum_B(ch: RandomUnitaryChannel, net: PureStateNet) -> NetSupremum:
    """Exact maximum of |pair statistic - 1/d| over all ordered net pairs.

    The statistic is not symmetric in (phi, psi), so all size^2 ordered pairs
    are scanned. With P the (size, d^2) matrix whose rows are vec|x><x|, the
    statistics of all pairs are P S^T P†, evaluated in chunks of phi rows, two
    GEMMs per chunk, so that one (chunk, size) block is the largest temporary.
    The value returned is ``pair_statistic`` (the form x†Cx) at the
    maximizing pair.
    """
    if net.dim != ch.dim:
        raise DimensionMismatch(f"net dimension {net.dim} != channel dimension {ch.dim}")
    states = net.states
    m, d = states.shape
    inv_d = 1.0 / d
    vecs = pure_projector(states).reshape(m, d * d)
    proj_h = np.conj(vecs.T)

    chunk = max(1, _SCAN_BUDGET // max(m, d * d))
    best = -1.0
    best_i = best_j = 0
    for start in range(0, m, chunk):
        images = vecs[start:start + chunk] @ ch.superoperator.T  # row k: vec R(|x_k><x_k|)
        stats = (images @ proj_h).real  # (k, m): row phi, column psi
        dev = np.abs(stats - inv_d)
        flat = int(np.argmax(dev))
        k_i, j = divmod(flat, m)
        if dev[k_i, j] > best:
            best = float(dev[k_i, j])
            best_i = start + k_i
            best_j = j

    phi = states[best_i]
    psi = states[best_j]
    # re-evaluate at the witness pair so the reported B is definitionally
    # |pair_statistic - 1/d| there, whatever the rounding of the sandwich
    value = abs(pair_statistic(ch, phi, psi) - inv_d)
    return NetSupremum(value, phi, psi, best_i, best_j)


class LowerBound(NamedTuple):
    value: float
    phi: np.ndarray
    psi: np.ndarray


def _extreme_eigvecs(h: np.ndarray):
    """Per matrix of the stack ``h``, its eigenpair of largest magnitude.

    Ties within _TIE_TOL go to the positive branch.
    """
    values, vectors = np.linalg.eigh(h)
    top, bottom = values[:, -1], values[:, 0]
    positive = top >= -bottom - _TIE_TOL
    return (np.where(positive, top, bottom),
            np.where(positive[:, None], vectors[:, :, -1], vectors[:, :, 0]))


def _ascend(ch: RandomUnitaryChannel, starts: np.ndarray, tol: float, max_iters: int):
    """Alternating eigenvector ascent from every row of ``starts`` at once.

    Fixing phi, the best psi is the extreme eigenvector of R(|phi><phi|) - I/d;
    fixing psi, the best phi is the extreme eigenvector of the adjoint image.
    Each half step solves its subproblem exactly, so every restart's objective
    sequence is non-decreasing up to roundoff. The restarts still running
    advance together: a half step is one stacked ``apply_channel`` (or
    ``apply_adjoint``) of their projectors and one stacked ``eigh``. Each
    restart keeps its own stop rule (a full step that gains less than
    ``tol``, or ``max_iters`` steps) and its own best (value, phi, psi)
    triple, replaced only on a strict gain, so it ends bit for bit where it
    would alone. Returns the best values ``(R,)``, their
    phis and psis ``(R, d)``, and the half-step objectives ``(2 steps, R)``,
    NaN once a restart has stopped.
    """
    shift = maximally_mixed(ch.dim)
    count = starts.shape[0]
    best = np.full(count, -1.0)
    best_phi, best_psi = starts.copy(), starts.copy()
    previous = np.full(count, -np.inf)
    live = np.arange(count)
    phi = starts
    history = []

    def keep(obj, phi, psi):
        gain = obj > best[live]
        rows = live[gain]
        best[rows], best_phi[rows], best_psi[rows] = obj[gain], phi[gain], psi[gain]

    for _ in range(max_iters):
        step = np.full((2, count), np.nan)
        lam, psi = _extreme_eigvecs(apply_channel(ch, pure_projector(phi)) - shift)
        step[0, live] = obj = np.abs(lam)
        keep(obj, phi, psi)
        lam, phi = _extreme_eigvecs(apply_adjoint(ch, pure_projector(psi)) - shift)
        step[1, live] = obj = np.abs(lam)
        keep(obj, phi, psi)
        history.append(step)
        going = obj - previous[live] >= tol
        previous[live] = obj
        live, phi = live[going], phi[going]
        if live.size == 0:
            break
    return best, best_phi, best_psi, np.concatenate(history)


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    """``x`` times the phase that makes its first entry above _PHASE_FLOOR real and positive."""
    k = int(np.argmax(np.abs(x) > _PHASE_FLOOR))
    mag = abs(x[k])
    out = x * (np.conj(x[k]) / mag)
    out[k] = mag
    return out


def alternating_max_lower_bound(ch: RandomUnitaryChannel, restarts: int = DEFAULT_RESTARTS,
                                max_iters: int = DEFAULT_MAX_ITERS, rng=None) -> LowerBound:
    """Best witnessed value of |pair statistic - 1/d| over random restarts.

    Returns a valid lower bound on the full supremum together with the state
    pair achieving it; the value is re-evaluated through pair_statistic so the
    witnesses reproduce it exactly. ``restarts`` and ``max_iters`` must be
    positive integers, else InvalidDimension. ``rng`` is an RngStream or an
    int seed; None means ``RngStream(0)``.

    Every restart's start is drawn in one ``random_pure_states(d, restarts,
    rng)`` call, the same starts as one call per restart on one generator,
    and all restarts run in one stacked ascent. The first restart with the best value
    wins, as in a loop over the restarts that keeps a strict gain.

    Each witness is rotated so that its first entry above ``_PHASE_FLOOR`` in
    magnitude is real and positive: the eigensolver's arbitrary global phase,
    which roundoff in S can flip, never reaches a certificate. Not made
    canonical: at d = 2 the optimum may be attained by two orthogonal pairs,
    and roundoff may swap one for the other.
    """
    restarts = require_positive_int(restarts, "restarts")
    max_iters = require_positive_int(max_iters, "max_iters")
    rng = as_stream(rng if rng is not None else RngStream(0))
    d = ch.dim
    values, phis, psis, _ = _ascend(ch, random_pure_states(d, restarts, rng), _ASCENT_TOL,
                                    max_iters)
    winner = int(np.argmax(values))  # the first maximum, as a strict-gain scan keeps it
    phi, psi = _canonical_phase(phis[winner]), _canonical_phase(psis[winner])
    value = abs(pair_statistic(ch, phi, psi) - 1.0 / d)
    return LowerBound(value, phi, psi)


@dataclass(frozen=True)
class DeviationCertificate:
    """Outcome of a two-sided certification run.

    A_upper holds unconditionally and A_lower comes with explicit witnesses;
    delta, B and net_size describe the scanned net, None without one. The
    margin of A_upper covers the roundoff of B and A_lower, so a certificate
    with either above A_upper is refused.
    """

    delta: float | None
    B: float | None
    A_upper: float
    A_lower: float
    epsilon: float
    verdict: Verdict
    witness_phi: np.ndarray
    witness_psi: np.ndarray
    net_size: int | None
    timings: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("B", self.B), ("A_lower", self.A_lower)):
            if value is not None and value > self.A_upper:
                raise InvalidParameter(
                    f"inconsistent certificate: {name}={value} exceeds A_upper={self.A_upper}"
                )


def verdict(ch: RandomUnitaryChannel, epsilon: float, net: PureStateNet | None = None,
            restarts: int = DEFAULT_RESTARTS, max_iters: int = DEFAULT_MAX_ITERS,
            rng=None) -> DeviationCertificate:
    """Certify or refute the epsilon-randomizing property of a channel.

    CertifiedNotRandomizing when the witnessed lower bound exceeds epsilon / d,
    CertifiedRandomizing when the spectral upper bound stays within it, else
    Undetermined. A given net is scanned for its supremum B, reported only.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in (0, 1), got {epsilon}")

    t0 = time.perf_counter()
    supremum = net_supremum_B(ch, net) if net is not None else None
    t1 = time.perf_counter()
    lower = alternating_max_lower_bound(ch, restarts=restarts, max_iters=max_iters, rng=rng)
    t2 = time.perf_counter()

    a_upper = spectral_upper_bound_A(ch)
    threshold = epsilon / ch.dim
    if lower.value > threshold:
        result = Verdict.CERTIFIED_NOT_RANDOMIZING
    elif a_upper <= threshold:
        result = Verdict.CERTIFIED_RANDOMIZING
    else:
        result = Verdict.UNDETERMINED

    return DeviationCertificate(
        delta=net.delta if net is not None else None,
        B=supremum.value if supremum is not None else None,
        A_upper=a_upper,
        A_lower=lower.value,
        epsilon=epsilon,
        verdict=result,
        witness_phi=lower.phi,
        witness_psi=lower.psi,
        net_size=net.size if net is not None else None,
        timings={
            "net_supremum_seconds": t1 - t0,
            "optimizer_seconds": t2 - t1,
        },
    )
