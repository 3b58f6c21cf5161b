"""Canceller-configuration solvers.

The configuration problem is a box-constrained nonlinear least squares:
minimize sum_k |H_SI(f_k) - H(f_k; x)|^2 over the 4M knobs x of an M-tap
canceller.  This module provides:

* multi-start projected Levenberg-Marquardt on the continuous box, with
  the analytic Jacobian of each tap model and all starts in lockstep,
* rounding onto quantization grids plus coordinate-wise local search,
* one routine that fits taps one at a time to the residual, for the
  per-tap iterative heuristic and for warm starts of larger solves,
* an exhaustive lattice oracle for testing.

Every solver takes a model name and evaluates taps through that model's one
vectorized kernel and Jacobian in `models.TAP_MODELS`; `ModelKernel`
resolves the registry entry once.  Knob vectors are ordered (amp_db,
phase_rad, center, q) per tap, taps concatenated, following the entry's
config fields: for the ideal model center/q are f_c (Hz) and Q; for the PCB
model they are C_F and C_Q in pF.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ComplexResponse, FrequencyGrid
from .errors import InvalidArgumentError, LatticeTooLargeError, SolverFailureError
from .metrics import SicSummary, rf_sic_db
from .models import (
    PcbBoardParams, _positive_points, tap_model, tap_model_of, weight_factors,
)

LATTICE_CAP = 10**7


# ---------------------------------------------------------------------------
# knob grids, bounds, presets


@dataclass(frozen=True)
class KnobSpec:
    """Discrete grid for one knob: a range plus a step or a bit depth."""

    min: float
    max: float
    step: float | None = None
    bits: int | None = None
    periodic: bool = False

    def __post_init__(self):
        if not (self.min < self.max):
            raise InvalidArgumentError("knob min must be < max")
        if (self.step is None) == (self.bits is None):
            raise InvalidArgumentError("specify exactly one of step or bits")
        if self.step is not None and not (self.step > 0):
            raise InvalidArgumentError("step must be positive")
        if self.bits is not None and self.bits < 1:
            raise InvalidArgumentError("bits must be >= 1")

    def values(self) -> np.ndarray:
        if self.bits is not None:
            return np.linspace(self.min, self.max, 2**self.bits)
        n = int(math.floor((self.max - self.min) / self.step + 1e-9)) + 1
        return self.min + np.arange(n) * self.step

    def codes(self, v) -> np.ndarray:
        """Indices into values() of the grid values nearest to each of v;
        periodic knobs wrap into range first.  Raises if a value is not
        finite or lies outside the range."""
        v = np.asarray(v, dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            raise InvalidArgumentError(f"knob value {float(v[bad][0])!r} is not finite")
        span = self.max - self.min
        if self.periodic:
            v = (v - self.min) % span + self.min
        out = (v < self.min - 1e-9 * span) | (v > self.max + 1e-9 * span)
        if out.any():
            raise InvalidArgumentError(
                f"value {float(v[out][0])!r} outside knob range [{self.min}, {self.max}]"
            )
        return nearest_codes(self.values(), v)

    def snap(self, v: float) -> float:
        """Nearest grid value; exact midpoints round toward the smaller value."""
        return float(self.values()[self.codes(v)])


def nearest_codes(vals: np.ndarray, v) -> np.ndarray:
    """Indices into the ascending grid `vals` of the values nearest to each
    of v, as is: no wrap, and values beyond the grid go to its ends.  Exact
    midpoints round toward the smaller value."""
    if vals.size == 1:
        return np.zeros(np.shape(v), dtype=int)
    hi = np.clip(np.searchsorted(vals, v), 1, vals.size - 1)
    return np.where(v - vals[hi - 1] <= vals[hi] - v, hi - 1, hi)


@dataclass(frozen=True)
class QuantizationSpec:
    """Per-knob discrete grids for one tap model."""

    amp_db: KnobSpec
    phase_rad: KnobSpec
    center: KnobSpec
    q: KnobSpec

    def knobs(self):
        return (self.amp_db, self.phase_rad, self.center, self.q)

    def bounds(self) -> "BoxBounds":
        return BoxBounds(
            amp_db=(self.amp_db.min, self.amp_db.max),
            phase_rad=(self.phase_rad.min, self.phase_rad.max),
            center=(self.center.min, self.center.max),
            q=(self.q.min, self.q.max),
        )


@dataclass(frozen=True)
class BoxBounds:
    """Continuous box constraints per knob; phase is treated as periodic."""

    amp_db: tuple
    phase_rad: tuple
    center: tuple
    q: tuple

    def lows(self) -> np.ndarray:
        return np.array(
            [self.amp_db[0], self.phase_rad[0], self.center[0], self.q[0]]
        )

    def highs(self) -> np.ndarray:
        return np.array(
            [self.amp_db[1], self.phase_rad[1], self.center[1], self.q[1]]
        )


def quantization_preset(name: str) -> QuantizationSpec:
    """Named hardware presets: `rfic` (ideal tap) and `pcb` (discrete tap)."""
    if name == "rfic":
        return QuantizationSpec(
            amp_db=KnobSpec(-40.0, -10.0, step=0.25),
            phase_rad=KnobSpec(-np.pi, np.pi, bits=8, periodic=True),
            center=KnobSpec(875e6, 925e6, bits=8),
            q=KnobSpec(1.0, 50.0, bits=8),
        )
    if name == "pcb":
        return QuantizationSpec(
            amp_db=KnobSpec(-15.5, 0.0, step=0.5),
            phase_rad=KnobSpec(-np.pi, np.pi, bits=8, periodic=True),
            center=KnobSpec(0.6, 2.4, step=0.12),
            q=KnobSpec(2.0, 14.0, step=0.39),
        )
    raise InvalidArgumentError(f"unknown preset {name!r} (expected 'rfic' or 'pcb')")


def default_bounds(model: str) -> BoxBounds:
    return quantization_preset(tap_model(model).preset).bounds()


# ---------------------------------------------------------------------------
# objective over one tap model's kernel (raw knob matrices)


class ModelKernel:
    """Evaluates objective(x) = sum_k |h_si_k - H(f_k; x)|^2 for one model on
    the paper's board (`PcbBoardParams()`); every frequency of `h_si` must be
    positive."""

    def __init__(self, model: str, h_si: ComplexResponse):
        self.tap_model = tap_model(model)
        self.h_si = h_si
        self.board = PcbBoardParams()
        self._f = _positive_points(h_si.grid, f"{model} tap model")
        self._target = h_si.values
        self._kernel = self.tap_model.kernel
        self._jacobian = self.tap_model.jacobian

    def response_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        return self._kernel(x, self._f, self.board).sum(axis=0)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        return float(_objectives(self._target, self._kernel(x, self._f, self.board)))

    def objective_batch(self, xs: np.ndarray) -> np.ndarray:
        """Objectives for a batch of configs; xs has shape (P, M, 4)."""
        p, m, _ = xs.shape
        mat = self._kernel(xs.reshape(p * m, 4), self._f, self.board)
        return _objectives(self._target, mat.reshape(p, m, self._f.size))

    def residual_jacobian(self, xs: np.ndarray):
        """Residuals r = h_si - H(x), shape (P, K), and Jacobians dH/dx =
        -dr/dx, shape (P, 4M, K) with rows in knob-vector order, for a batch
        of configs; xs has shape (P, M, 4)."""
        p, m, _ = xs.shape
        taps, jac = self._jacobian(xs.reshape(p * m, 4), self._f, self.board)
        k = self._f.size
        return self._target - taps.reshape(p, m, k).sum(axis=1), jac.reshape(p, 4 * m, k)

    def sic(self, x: np.ndarray) -> SicSummary:
        """RF SIC of the residual h_si - H(x)."""
        return rf_sic_db(ComplexResponse(self.h_si.grid, self._target - self.response_values(x)))

    def avg_sic_db(self, x: np.ndarray) -> float:
        return self.sic(x).avg_db

    def report(self, x: np.ndarray, objective: float, iterations: int, trace: list,
               restart_index: int = 0, **fields) -> SolveReport:
        """The report of a solve that ended at knob matrix x, with the configs
        and average SIC of x; `fields` are the other `SolveReport` fields."""
        return SolveReport(self.tap_model.configs(x), objective, self.avg_sic_db(x),
                           iterations, restart_index, trace, **fields)


def _objectives(target: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """sum_k |target_k - sum_m T_mk|^2 of per-tap responses T, shape (..., M,
    K): one objective per config, its taps summed in tap order."""
    return _residual_objectives(target, taps)[1]


def _residual_objectives(target: np.ndarray, taps: np.ndarray):
    """The residuals d = target - sum_m T_m, shape (..., K), and the
    objectives |d|^2 that `_objectives` returns."""
    d = target - np.add.reduce(taps, axis=-2)
    return d, np.add.reduce(d.real**2 + d.imag**2, axis=-1)


def config_vector(cfgs) -> np.ndarray:
    """Flatten tap configs of one model into the (M, 4) knob matrix."""
    cfgs = list(cfgs)
    return tap_model_of(cfgs[0]).vector(cfgs) if cfgs else np.zeros((0, 4))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 16
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidArgumentError("restarts and max_iters must be >= 1")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    config: list
    objective: float
    avg_sic_db: float
    iterations: int
    restart_index: int
    trace: list = field(repr=False)
    quantized: bool = False
    # why the winning restart of a continuous solve, or a local search,
    # stopped (STOP_REASONS); not part of to_dict(), so report JSON keeps
    # its keys
    stop_reason: str | None = None

    def to_dict(self) -> dict:
        cfgs = []
        for c in self.config:
            tm = tap_model_of(c)
            cfgs.append({"kind": tm.name, **{k: getattr(c, k) for k in tm.knobs}})
        return {
            "config": cfgs,
            "objective": self.objective,
            "avg_sic_db": self.avg_sic_db,
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "trace": list(self.trace),
            "quantized": self.quantized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def report_from_dict(d: dict) -> SolveReport:
    cfgs = []
    for c in d["config"]:
        tm = tap_model(c["kind"])
        cfgs.append(tm.config_class(*(c[k] for k in tm.knobs)))
    return SolveReport(
        cfgs,
        d["objective"],
        d["avg_sic_db"],
        d["iterations"],
        d["restart_index"],
        list(d["trace"]),
        bool(d.get("quantized", False)),
    )


# ---------------------------------------------------------------------------
# objective + continuous solver


def residual_objective(h_si: ComplexResponse, h_canc: ComplexResponse) -> float:
    """sum_k |H_SI(f_k) - H(f_k)|^2."""
    if h_canc.grid != h_si.grid:
        raise InvalidArgumentError("responses must share a grid")
    return float(_objectives(h_si.values, h_canc.values[None, :]))


STOP_REASONS = ("tol", "max_iters", "no_descent", "non_finite")

# A start stops with "tol" once an accepted step gains at most _TOL times the
# new objective.
_TOL = 1e-10
# Marquardt damping: start value, factor on a rejected / accepted step, and
# the value past which the solver stops with "no_descent".  Each pass tries
# the damping ladder lam * _RUNGS at once; the factors are powers of two, so
# every rung is the exact value that many rejected trials would reach.
_LAMBDA0 = 1e-3
_LAMBDA_UP = 4.0
_LAMBDA_DOWN = 3.0
_LAMBDA_MAX = 1e32
_RUNGS = _LAMBDA_UP ** np.arange(3)
# An accepted step that gains this many times its predicted decrease is
# followed along 2**k times its length, k = 1..7, in one batch.  Gauss-Newton
# curvature can be far too high (a one-tap fit with its amplitude on the
# box floor) and would otherwise crawl to the iteration cap.
_EXTRAPOLATE_RATIO = 1.5
_EXTRAPOLATE = 2.0 ** np.arange(1, 8)


def _solve_each(mats, rhs):
    """Solutions x of mats x = rhs over a stack of matrices, in one call; the
    stack dimensions of rhs broadcast against those of mats.  If a matrix is
    singular, the stack is solved one matrix at a time and only the singular
    ones get NaN."""
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        rhs = np.broadcast_to(rhs, mats.shape[:-1])
        out = np.full(rhs.shape, np.nan)
        for i in np.ndindex(rhs.shape[:-1]):
            try:
                out[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _descend(kernel, z0, lows, span, periodic, opts, stats=None):
    """Projected Levenberg-Marquardt in box-normalized coordinates z in [0,1],
    with all starts advancing in lockstep.

    z0 is an (R, n) matrix of starts.  Each trial of a start solves
    (A + lam diag(A)) d = g, with A = Re(J^H J) and g = Re(J^H r) from the
    analytic Jacobian J = dH/dz and the residual r.  Knobs on a box edge
    whose descent direction points out of the box are frozen: their rows and
    columns of the damped matrix become identity rows with a zero right-hand
    side, so their step is zero; periodic knobs wrap and are never frozen.
    A trial whose step then pushes a knob on its box edge out of the box
    holds that knob the same way and solves its system once more, so the
    other knobs take the step that is best with that knob held, not the one
    computed as if it had moved (the binding set of projected Newton
    methods); what is still out of the box after that is clipped.  A step is
    accepted only if it strictly lowers the objective, so the trace is
    strictly decreasing; lam is divided by 3 on acceptance and multiplied by
    4 on rejection.  `opts.max_iters` caps the accepted steps.

    Each pass gives every running start the trials of its next three damping
    values lam, 4 lam and 16 lam: one Jacobian call for the starts that
    moved, one stacked solve and one for the trials that hold a knob, one
    `objective_batch` call for all candidates and one for all
    extrapolations.  A start takes its first accepted trial, or stops at its
    first rejected one that ends the descent; while its point stays put, A
    and g do not change, so this is the accept/reject sequence of one trial
    per pass.  A start leaves the batch when it stops, and starts share no
    state, so each start's result is bitwise the one it gets alone.

    A trial whose damped matrix is singular gets a NaN step, which is not
    scored: its objective is NaN, so the trial is rejected.

    Returns one (z_best, objective, trace, stop_reason) per start, in start
    order, with stop_reason one of STOP_REASONS, or None for a start whose
    objective is not finite.  A `stats` dict, if given, receives the number
    of passes and of configs scored.
    """
    n = z0.shape[1]
    m = n // 4
    bounded = ~periodic
    eye = np.eye(n, dtype=bool)

    def denorm(z):
        return lows + z * span

    def project(z):
        return np.where(periodic, z % 1.0, z).clip(0.0, 1.0)

    def f_batch(zs):
        return kernel.objective_batch(denorm(zs).reshape(-1, m, 4))

    out = [None] * len(z0)
    z = project(z0)
    f0 = f_batch(z)
    passes, scored = 0, len(z0)
    # the running starts, one batch row each: start index, point, objective,
    # trace, damping, whether the point moved since the normal equations
    # were built, and those as a padded system: undamped matrix, the damping
    # of its diagonal and right-hand side
    ids = np.flatnonzero(np.isfinite(f0))
    z, fz = z[ids], f0[ids]
    traces = [[v] for v in fz.tolist()]
    lam = np.full(ids.size, _LAMBDA0)
    moved = np.ones(ids.size, dtype=bool)
    base = np.empty((ids.size, n, n))
    damp = np.empty((ids.size, n))
    rhs = np.empty((ids.size, n))

    def retire(stops):
        """Record each start of `stops` (batch row -> stop reason) as done
        and drop it from the batch."""
        nonlocal ids, z, fz, traces, lam, moved, base, damp, rhs
        for i, reason in stops.items():
            out[ids[i]] = (z[i].copy(), float(fz[i]), traces[i], reason)
        keep = np.ones(ids.size, dtype=bool)
        keep[list(stops)] = False
        ids, z, fz, lam, moved, base, damp, rhs = (
            v[keep] for v in (ids, z, fz, lam, moved, base, damp, rhs)
        )
        traces = [t for t, k in zip(traces, keep.tolist()) if k]

    while ids.size:
        passes += 1
        if moved.any():
            sel = slice(None) if moved.all() else np.flatnonzero(moved)
            zn = z[sel]
            r, jac = kernel.residual_jacobian(denorm(zn).reshape(-1, m, 4))
            jz = (jac * span[:, None]).view(np.float64)
            an = np.matmul(jz, jz.transpose(0, 2, 1))
            gn = np.matmul(jz, r.view(np.float64)[:, :, None])[:, :, 0]
            fr = periodic | ~(((zn <= 0.0) & (gn < 0.0)) | ((zn >= 1.0) & (gn > 0.0)))
            # the padded system: frozen rows and columns become identity with
            # a zero right-hand side, so frozen knobs get a zero step.  The
            # damping comes from the free diagonal; a knob with zero curvature
            # still gets some, so the damped matrix is positive definite.
            diag = an.diagonal(axis1=1, axis2=2)
            base[sel] = np.where(fr[:, :, None] & fr[:, None, :], an, eye)
            rhs[sel] = np.where(fr, gn, 0.0)
            top = np.where(fr, diag, 0.0).max(axis=1, keepdims=True)
            damp[sel] = np.where(fr, np.maximum(diag, 1e-15 * top), 0.0)
            moved[:] = False
            down = (fr & (gn != 0.0)).any(axis=1)
            if not (np.isfinite(an).all() and np.isfinite(gn).all() and down.all()):
                ok = np.isfinite(an).all(axis=(1, 2)) & np.isfinite(gn).all(axis=1)
                rows = np.arange(ids.size)[sel].tolist()
                retire({
                    i: "no_descent" if o else "non_finite"
                    for i, o, d in zip(rows, ok.tolist(), down.tolist()) if not (o and d)
                })
                if not ids.size:
                    break
        # the trials of every rung, (R, rungs, n)
        lams = lam[:, None] * _RUNGS
        damped = np.empty(lams.shape + (n, n))
        damped[...] = base[:, None]
        damped.reshape(lams.shape + (n * n,))[:, :, :: n + 1] += lams[:, :, None] * damp[:, None]
        step = _solve_each(damped, rhs[:, None])
        zr = z[:, None]
        # hold each bounded knob on its box edge that the step pushes out of
        # the box, and solve those trials again
        held = bounded & (((zr <= 0.0) & (step < 0.0)) | ((zr >= 1.0) & (step > 0.0)))
        hit = held.any(axis=2)
        if hit.any():
            free = ~held[hit]
            step[hit] = _solve_each(
                np.where(free[:, :, None] & free[:, None, :], damped[hit], eye),
                np.where(free, rhs[hit.nonzero()[0]], 0.0),
            )
        # clipped step on the box; periodic knobs move unwrapped
        step = np.where(bounded, (zr + step).clip(0.0, 1.0) - zr, step)
        cand = project(zr + step)
        # a singular matrix's NaN step is not scored: its trial is rejected
        finite = np.isfinite(step)
        if finite.all():
            fc = f_batch(cand.reshape(-1, n)).reshape(lams.shape)
            scored += fc.size
        else:
            finite = finite.all(axis=2)
            fc = np.full(lams.shape, np.nan)
            if finite.any():
                fc[finite] = f_batch(cand[finite])
            scored += int(finite.sum())
        acc = fc < fz[:, None]
        if acc[:, 0].all():
            # the common pass: every start accepts its first rung
            pick, stops = (slice(None), 0), {}
            lam = lams[:, 0] / _LAMBDA_DOWN
        else:
            # a rejected rung ends the descent once lam has run out or the step
            # no longer moves z; each start takes its first rung that accepts
            # or ends
            end = ~acc & ((lams * _LAMBDA_UP > _LAMBDA_MAX) | (cand == zr).all(axis=2))
            pick = np.arange(ids.size), (acc | end).argmax(axis=1)
            stops = {i: "no_descent" for i in np.flatnonzero(end[pick]).tolist()}
            # with no rung taken, the next pass goes on from the rung after the last
            lam = np.where(acc[pick], lams[pick] / _LAMBDA_DOWN, lams[:, -1] * _LAMBDA_UP)
        accepted = acc[pick]
        everyone = accepted.all()
        if everyone or accepted.any():
            step, cand, fc = step[pick], cand[pick], fc[pick]
            # the step is zero on frozen and held knobs, so the padded system
            # predicts the decrease that A and g do
            row = step[:, None, :]
            pred = (2.0 * (row @ rhs[:, :, None]) - row @ base @ step[:, :, None]).ravel()
            gain = fz - fc
            # the accepted steps that gained well beyond their prediction
            leap = gain > _EXTRAPOLATE_RATIO * pred
            ext = np.flatnonzero(leap if everyone else accepted & leap)
            if ext.size:
                far = project(z[ext][:, None, :] + _EXTRAPOLATE[:, None] * step[ext][:, None, :])
                ffar = f_batch(far.reshape(-1, n)).reshape(ext.size, -1)
                scored += ffar.size
                k = ffar.argmin(axis=1)
                fk = ffar[np.arange(ext.size), k]
                better = fk < fc[ext]
                cand[ext[better]] = far[better, k[better]]
                fc[ext[better]] = fk[better]
                gain = fz - fc
            if everyone:
                fz, z, rows = fc, cand, range(ids.size)
            else:
                fz = np.where(accepted, fc, fz)
                z = np.where(accepted[:, None], cand, z)
                rows = np.flatnonzero(accepted).tolist()
            ended = (gain <= _TOL * np.maximum(fz, 1e-300)).tolist()
            values = fz.tolist()
            for i in rows:
                traces[i].append(values[i])
                if ended[i]:
                    stops[i] = "tol"
                elif len(traces[i]) > opts.max_iters:
                    stops[i] = "max_iters"
            moved = accepted
        if stops:
            retire(stops)
    if stats is not None:
        stats.update(passes=passes, configs=scored)
    return out


class _RunRecord:
    """The DEBUG records of one solver call on the "fdecanc" logger, and the
    clock that times them.

    Falsy, and reads no clock, when that logger does not handle DEBUG.  A
    program that never imported `logging` has configured no handler, so
    nothing could receive the records; importing it here would only add its
    half megabyte to every process that uses this package.
    """

    def __init__(self):
        logging = sys.modules.get("logging")
        log = logging and logging.getLogger("fdecanc")
        self._log = log if log and log.isEnabledFor(logging.DEBUG) else None
        self._last = time.perf_counter() if self else 0.0

    def __bool__(self) -> bool:
        return self._log is not None

    def lap(self) -> float:
        """Seconds since the previous lap, or since the record was made; 0 if falsy."""
        last, self._last = self._last, time.perf_counter() if self else 0.0
        return self._last - last

    def emit(self, message: str, **fields) -> None:
        """Log `message % fields` at DEBUG, the fields also as record attributes."""
        if self:
            self._log.debug(message, fields, extra=fields)


def solve_continuous(
    model: str,
    h_si: ComplexResponse,
    bounds: BoxBounds | None = None,
    opts: SolveOptions | None = None,
    num_taps: int = 1,
    init_configs=None,
) -> SolveReport:
    """Multi-start projected Levenberg-Marquardt over the continuous knob box.

    Each start descends with an analytic Jacobian in box-normalized knob
    coordinates (phase wraps), and all starts advance in lockstep in one
    `_descend` call.  `init_configs` optionally adds deterministic warm starts
    (lists of `num_taps` tap configs) after the random ones; the best start
    by final objective wins, with the lowest start index breaking ties.  The
    report's `stop_reason` says why that start stopped.  Each start's outcome
    (start, iterations, stop_reason, objective), then the solve's lockstep
    passes, configs scored and wall time (starts, passes, configs, wall_s) are
    logged at DEBUG on the "fdecanc" logger, also as record attributes.
    """
    if num_taps < 1:
        raise InvalidArgumentError("num_taps must be >= 1")
    opts = opts or SolveOptions()
    bounds = bounds or default_bounds(model)
    kernel = ModelKernel(model, h_si)
    lows = np.tile(bounds.lows(), num_taps)
    highs = np.tile(bounds.highs(), num_taps)
    span = highs - lows
    periodic = np.tile(np.array([False, True, False, False]), num_taps)
    rng = np.random.default_rng(opts.seed)
    starts = [rng.uniform(size=(opts.restarts, 4 * num_taps))]
    for cfgs in init_configs or []:
        x = kernel.tap_model.vector(cfgs)
        if len(x) != num_taps:
            raise InvalidArgumentError(
                f"init_configs entry has {len(x)} taps, expected num_taps={num_taps}"
            )
        starts.append((x.reshape(1, -1) - lows) / span)

    run = _RunRecord()
    stats = {}
    outs = _descend(kernel, np.vstack(starts), lows, span, periodic, opts, stats)
    if run:
        wall_s = run.lap()
        for r, res in enumerate(outs):
            if res is None:
                run.emit("start %(start)d: objective not finite at the start point", start=r)
                continue
            run.emit("start %(start)d: %(iterations)d iterations, stop %(stop_reason)s, "
                     "objective %(objective).17g", start=r, iterations=len(res[2]) - 1,
                     stop_reason=res[3], objective=res[1])
        run.emit("solve: %(starts)d starts, %(passes)d passes, %(configs)d configs "
                 "scored, %(wall_s).6f s", starts=len(outs), **stats, wall_s=wall_s)
    best = None
    for r, res in enumerate(outs):
        if res is not None and (best is None or res[1] < best[1]):
            best = (*res, r)
    if best is None:
        raise SolverFailureError("all restarts produced non-finite objectives")
    z, fz, trace, reason, r = best
    return kernel.report(lows + z * span, fz, len(trace) - 1, trace, restart_index=r,
                         stop_reason=reason)


# ---------------------------------------------------------------------------
# quantization + local search


def quantize_config(config, spec: QuantizationSpec):
    """Snap every knob of every tap to its nearest quantization-grid value."""
    config = list(config)
    if not config:
        return []
    tm = tap_model_of(config[0])
    x = tm.vector(config)
    q = [k.values()[k.codes(x[:, j])] for j, k in enumerate(spec.knobs())]
    return [tm.config_class(*row) for row in np.stack(q, axis=1).tolist()]


class _MoveScreen:
    """Lower bounds on the objectives of local-search moves; `local_search`
    gives the algebra and its rounding bound.

    For the current point it holds the objective fx and residual e of its
    last exact score and, per tap, the weight w, the unit row phi =
    combine(1, filter term), |phi|^2 and, once a move of the tap needs it,
    <e, phi> = sum_k conj(e_k) phi_k.
    """

    def __init__(self, target, weights, units, fx, resid):
        self._coef = 16.0 * (target.size + len(units) + 8) * np.finfo(float).eps
        self._tau = float(np.linalg.norm(target))
        self._w, self._units = list(weights), list(units)
        self._phi2 = [float(np.vdot(u, u).real) for u in units]
        self._phi = [math.sqrt(p2) for p2 in self._phi2]
        self._norms = [abs(w) * p for w, p in zip(self._w, self._phi)]
        self.accept(fx, resid)

    def accept(self, fx, resid, i=None, w=None, unit=None):
        """Take the exact score (objective fx, residual `resid`) of the new
        point, at which tap i has weight w or unit row `unit`."""
        if w is not None:
            self._w[i] = w
        if unit is not None:
            self._units[i] = unit
            self._phi2[i] = float(np.vdot(unit, unit).real)
            self._phi[i] = math.sqrt(self._phi2[i])
        if i is not None:
            self._norms[i] = abs(self._w[i]) * self._phi[i]
        self.fx, self._e = fx, resid
        self._norm = self._tau + sum(self._norms)
        self._c = [None] * len(self._w)

    def weights(self, i, ws) -> list:
        """Lower bounds on the objectives with tap i's weight moved to each
        of ws: |e - D phi|^2 = fx - 2 Re(D <e, phi>) + |D|^2 |phi|^2, D = w' - w."""
        c = self._c[i]
        if c is None:
            c = self._c[i] = complex(np.vdot(self._e, self._units[i]))
        fx, w, p, p2 = self.fx, self._w[i], self._phi[i], self._phi2[i]
        out = []
        for wn in ws:
            d = wn - w
            n = self._norm + abs(wn) * p
            out.append(fx - 2.0 * (d * c).real + (d.real * d.real + d.imag * d.imag) * p2
                       - self._coef * n * n)
        return out

    def rows(self, row, new) -> list:
        """Lower bounds on the objectives with a tap's row `row` replaced by
        each row r' of `new`: |g - r'|^2, g = e + row."""
        out = []
        for v in (self._e + row) - new:
            s = float(np.vdot(v, v).real)
            # |r'| <= |g| + |g - r'| <= 2 (|t| + sum_m |r_m|) + |g - r'|
            n = 3.0 * self._norm + math.sqrt(s)
            out.append(s - self._coef * n * n)
        return out


def local_search(
    qconfig,
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    max_rounds: int = 10,
) -> SolveReport:
    """Coordinate-wise +/-1-step hill climbing on the quantization lattice.

    The start is each knob's nearest lattice code.  A round visits every
    knob of every tap in order and scores its -1 and +1 codes (periodic knobs
    wrap) from the current point; the first that strictly lowers the
    objective is taken.  Once the -1 move is taken, the +1 move from there is
    the old point, which cannot beat the new objective, so scoring both from
    the current point takes the same moves as trying them in turn.  The
    search ends after a round with no move (the report's `stop_reason` is
    "no_descent"), or after `max_rounds` ("max_iters").

    Tap rows come from cached factors: weights from per-code gain and turn
    tables, filter terms memoized by (center code, q code), so a move
    computes only the moved tap's candidate rows, and an amplitude or phase
    move no filter term.  They are combined as the model's kernel combines
    them, and candidates are scored as `ModelKernel.objective_batch` scores
    configs, so every objective is bitwise the kernel's.

    Screen.  A tap's row is r = w phi up to rounding, with w its weight and
    phi = combine(1, filter term) its unit row.  Let e be the residual of
    the current point's exact score.  A move of tap i to weight w' has
    objective |e - D phi_i|^2, D = w' - w, which `_MoveScreen` expands into
    scalars from <e, phi_i> and |phi_i|^2.  A move of its filter knobs has
    objective |g - r'|^2, g = e + r_i, from the candidate row r' that its
    exact score needs anyway: one subtraction and one K-term dot product per
    candidate.  A candidate is scored exactly only if its screened value
    minus a slack is below fx; the others cannot beat fx, so the search
    accepts the same moves, in the same order, with the same objectives as
    one that scores every candidate exactly.

    Rounding bound.  Let eps be the machine epsilon, K the grid points, M the
    taps and N = |t| + sum_m |r_m| + |r'|, 2-norms over the grid, with r' the
    candidate row: N bounds every vector the values are built from.  An
    exact score (a sum over taps, a subtraction, K squares and their sum) is
    within (K + 2M + 4) eps N^2 of its value in exact arithmetic on the same
    rows, and so is fx; e is within (M + 1) eps N of t - sum_m r_m.  A row
    combine(w, term) differs from w phi by at most 16 eps |r| (up to three
    complex products or a division on each side).  A screened value adds to
    these its K-term dot product, |phi|^2 and the few products and sums that
    assemble it, so it is within (7K + 6M + 100) eps N^2 of the candidate's
    exact score.  The slack 16 (K + M + 8) eps N^2 exceeds that, with N
    taken from |w| |phi|, within a few eps of |r|, or for a filter move from
    the triangle bound |r'| <= |g| + |g - r'|.

    Each call logs rounds, accepted moves, candidates scored (screened),
    candidates scored exactly, filter rows computed and reused, the stop
    reason and wall time (rounds, accepted, scored, exact, filters_computed,
    filters_reused, stop_reason, wall_s) at DEBUG on the "fdecanc" logger,
    also as record attributes.
    """
    run = _RunRecord()
    kernel = ModelKernel(model, h_si)
    tm, f, target, board = kernel.tap_model, kernel._f, kernel._target, kernel.board
    knob_vals = [k.values() for k in spec.knobs()]
    sizes = [v.size for v in knob_vals]
    periodic = [k.periodic for k in spec.knobs()]
    x = tm.vector(qconfig)
    idx = np.stack([nearest_codes(v, x[:, j]) for j, v in enumerate(knob_vals)], axis=1)
    x = np.stack([v[idx[:, j]] for j, v in enumerate(knob_vals)], axis=1)

    gain, turn = weight_factors(knob_vals[0], knob_vals[1])
    combine = tm.combiner(f, board)
    filters = {}
    computed = 0

    def lookup(keys):
        """The filter terms of (center code, q code) keys, computing the new ones."""
        nonlocal computed
        fresh = [key for key in keys if key not in filters]
        if fresh:
            c = knob_vals[2][[key[0] for key in fresh]]
            q = knob_vals[3][[key[1] for key in fresh]]
            filters.update(zip(fresh, tm.filter(c, q, f, board)[0]))
            computed += len(fresh)
        return np.array([filters[key] for key in keys])

    terms = lookup([(c, q) for c, q in idx[:, 2:].tolist()])
    weights = gain[idx[:, 0]] * turn[idx[:, 1]]
    rows = combine(weights[:, None], terms)
    fx = kernel.objective(x)
    screen = _MoveScreen(target, weights.tolist(), combine(1.0, terms), fx,
                         target - rows.sum(axis=0))
    idx = idx.tolist()
    trace = [fx]
    rounds = scored = exact = reused = 0
    reason = "max_iters"
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for i, code in enumerate(idx):
            for j in range(4):
                moves = []
                for delta in (-1, 1):
                    k = code[j] + delta
                    if periodic[j]:
                        k %= sizes[j]
                    elif k < 0 or k >= sizes[j]:
                        continue
                    moves.append(k)
                if not moves:
                    continue
                scored += len(moves)
                if j < 2:
                    a = moves if j == 0 else [code[0]] * len(moves)
                    p = moves if j == 1 else [code[1]] * len(moves)
                    ws = gain[a] * turn[p]
                    low = screen.weights(i, ws.tolist())
                else:
                    keys = [(k, code[3]) if j == 2 else (code[2], k) for k in moves]
                    before = computed
                    cand_terms = lookup(keys)
                    reused += len(keys) - (computed - before)
                    cand_rows = combine(weights[i], cand_terms)
                    low = screen.rows(rows[i], cand_rows)
                for m, v in enumerate(low):
                    if not v < fx:
                        continue
                    exact += 1
                    cand = rows.copy()
                    if j < 2:
                        cand[i] = combine(ws[m], filters[code[2], code[3]])
                    else:
                        cand[i] = cand_rows[m]
                    resid, fc = _residual_objectives(target, cand)
                    fc = float(fc)
                    if fc < fx:
                        code[j] = moves[m]
                        rows = cand
                        if j < 2:
                            weights[i] = ws[m]
                            screen.accept(fc, resid, i, w=complex(ws[m]))
                        else:
                            screen.accept(fc, resid, i, unit=combine(1.0, cand_terms[m]))
                        fx = fc
                        trace.append(fx)
                        improved = True
                        break
        if not improved:
            reason = "no_descent"
            break
    x = np.stack([v[[c[j] for c in idx]] for j, v in enumerate(knob_vals)], axis=1)
    run.emit("local search: %(rounds)d rounds, %(accepted)d moves accepted, "
             "%(scored)d candidates scored, %(exact)d exactly, filter rows "
             "%(filters_computed)d computed and %(filters_reused)d reused, stop "
             "%(stop_reason)s, %(wall_s).6f s",
             rounds=rounds, accepted=len(trace) - 1, scored=scored, exact=exact,
             filters_computed=computed, filters_reused=reused, stop_reason=reason,
             wall_s=run.lap())
    return kernel.report(x, fx, rounds, trace, quantized=True, stop_reason=reason)


# ---------------------------------------------------------------------------
# taps fit one at a time to the residual


def _fit_taps(kernel: ModelKernel, taps, windows, bounds: BoxBounds, seed: int) -> list:
    """`taps` extended by one tap per grid window (a slice of the grid).

    Each new tap is the best of 8 restarts of `solve_continuous` (150
    iterations, seed + its tap index) on the residual h_si - H(all taps so
    far), restricted to its window.
    """
    taps = list(taps)
    f = kernel.h_si.grid.points
    for w in windows:
        resid = kernel.h_si.values - kernel.response_values(kernel.tap_model.vector(taps))
        sub = ComplexResponse(FrequencyGrid(f[w]), resid[w])
        opts = SolveOptions(restarts=8, max_iters=150, seed=seed + len(taps))
        rep = solve_continuous(kernel.tap_model.name, sub, bounds, opts, 1)
        taps.append(rep.config[0])
    return taps


def iterative_heuristic(model: str, h_si: ComplexResponse, canc_freqs) -> SolveReport:
    """Fit taps one at a time to the running residual around given frequencies.

    Each tap is fit on a 3-point window of the grid centered on its
    cancellation frequency; every frequency is checked before any tap is fit.
    """
    f = h_si.grid.points
    windows = []
    for fc in canc_freqs:
        if not (f[0] <= fc <= f[-1]):
            raise InvalidArgumentError(
                f"cancellation frequency {fc:.6g} Hz outside grid span"
            )
        j = int(np.argmin(np.abs(f - fc)))
        j = min(max(j, 1), f.size - 2)
        windows.append(slice(j - 1, j + 2))
    kernel = ModelKernel(model, h_si)
    configs = _fit_taps(kernel, [], windows, default_bounds(model), 0)
    x = kernel.tap_model.vector(configs)
    obj = kernel.objective(x)
    return kernel.report(x, obj, len(configs), [obj])


def greedy_extend(
    model: str,
    h_si: ComplexResponse,
    config,
    num_taps: int,
    bounds: BoxBounds | None = None,
    seed: int = 0,
):
    """Extend a tap list to `num_taps` by repeatedly fitting one tap to the
    running residual on the whole grid; used to warm-start a larger joint
    solve from a smaller one's solution."""
    cfg = list(config)[:num_taps]
    kernel = ModelKernel(model, h_si)
    windows = [slice(None)] * (num_taps - len(cfg))
    return _fit_taps(kernel, cfg, windows, bounds or default_bounds(model), seed)


# ---------------------------------------------------------------------------
# continuous -> quantize -> local-search pipeline


def fit_pipeline(
    model: str,
    h_si: ComplexResponse,
    num_taps: int,
    opts: SolveOptions | None = None,
    spec: QuantizationSpec | None = None,
    init_configs=None,
):
    """Full configuration pipeline.

    Continuous multi-start solve; if a quantization spec is given, round and
    hill-climb on the lattice, then re-descend in continuous space from the
    lattice solution and keep whichever continuous result is better.  The
    polish step guarantees continuous objective <= quantized objective, so
    quantization can only degrade the reported figures.

    Each call logs the wall time of each phase (continuous_s, quantize_s,
    local_search_s, polish_s; 0 for a phase that did not run) at DEBUG on the
    "fdecanc" logger, also as record attributes.

    Returns (continuous_report, quantized_report_or_None).
    """
    phases = dict.fromkeys(("continuous_s", "quantize_s", "local_search_s", "polish_s"), 0.0)
    opts = opts or SolveOptions()
    bounds = spec.bounds() if spec is not None else default_bounds(model)
    run = _RunRecord()
    cont = solve_continuous(model, h_si, bounds, opts, num_taps, init_configs)
    phases["continuous_s"] = run.lap()
    qrep = None
    if spec is not None:
        qcfg = quantize_config(cont.config, spec)
        phases["quantize_s"] = run.lap()
        qrep = local_search(qcfg, model, h_si, spec)
        phases["local_search_s"] = run.lap()
        if qrep.objective < cont.objective:
            polished = solve_continuous(
                model, h_si, bounds, replace(opts, restarts=1), num_taps, [qrep.config]
            )
            phases["polish_s"] = run.lap()
            if polished.objective < cont.objective:
                cont = polished
    run.emit("fit pipeline: continuous %(continuous_s).6f s, quantize %(quantize_s).6f s, "
             "local search %(local_search_s).6f s, polish %(polish_s).6f s", **phases)
    return cont, qrep


# ---------------------------------------------------------------------------
# exhaustive lattice oracle


_SCREEN_ROWS = 64


def _pair_rows(target: np.ndarray, weights: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Ascending indices a of every row that can hold the best pair (a, b)
    of rows r_a = weights[a // n] * units[a % n], n = len(units): each of
    the P weights times each of the n unit rows, in weight-major order.

    The pair objective |t - r_a - r_b|^2 expands, with the real float views
    R_a = (Re r_a1, Im r_a1, ..., Re r_aK, Im r_aK) and T of t, to

        obj(a, b) = |T|^2 + u_a + u_b + 2 R_a.R_b,   u_a = |R_a|^2 - 2 T.R_a.

    With w_a and phi_a the weight and unit row of r_a, R_a.R_b = Re(conj(w_a)
    w_b C_ab) for the Gram matrix C_ab = <phi_a, phi_b> of the unit rows.
    A Cholesky factorization of conj(C) with diagonal pivoting, stopped once
    every pivot left is at most n eps times the largest diagonal entry,
    gives F with conj(C) = F F^H + S: filter rows of nearby knobs are nearly
    dependent, so F has d columns, far below n (5-7 for the pcb sublattice
    of 36 rows, 12-22 for rfic, on 101-point grids).  Then R_a.R_b =
    Re <s_a, s_b>, a real dot product of 2d floats, for s_a = w_a F_a, and
    u_a = |w_a|^2 C_aa - 2 Re(w_a <t, phi_a>).  One GEMM of the rows (2 s_a,
    u_a, 1) and (s_b, 1, u_b) gives obj(a, b) - |T|^2, so every row minimum
    m_a = min_b obj(a, b) comes from real GEMMs 2d + 2 wide, not 2K, with no
    Pn x Pn matrix kept.
    The pair value is symmetric, so only the blocks on or above the diagonal
    are computed: each block updates the minima of its rows and of its
    columns, so the screened value of (a, b) may come from the (b, a)
    product.

    Rounding bound.  Let eps be the machine epsilon, tau = |t|, omega =
    max |w_a|, psi = max |phi_a| and S = (tau + 2 omega psi)^2.  The caller's
    rows r_a = combine(w_a, term_a) differ from w_a phi_a by at most 16 eps
    |r_a| (up to three complex products or a division on each side), so
    its direct values and the exact ones on w_a phi_a differ by at most
    about 70 eps S, and |R_a|, |r_a| <= omega psi (1 + 16 eps).  The Gram
    entries are K-term dot products, off by at most 2K eps psi^2.  The
    factorization's rounding adds at most (d + 1) eps psi^2 to each entry
    of F F^H + S, and the dropped S, positive semidefinite up to that
    rounding, has entries at most its largest pivot, n eps psi^2: together
    below n^2 eps psi^2 with a modest constant.  Forming s and the
    (2d + 2)-term dot products adds (2n + 8) eps S, and u and |T|^2 add
    (2K + 40) eps S.
    In all, the screened value of (a, b) is within (3K + n^2 + n + 120) eps
    S of the caller's direct value sum_k |(t_k - r_ak) - r_bk|^2, which is
    below slack = 16 (K + n^2 + 8) eps S, and so are the screened row minimum
    m_a and the direct one.  A row whose direct minimum ties the smallest
    therefore has m_a <= min(m) + 2 slack, and every such row is returned;
    the caller's strict-< scan over these rows then picks the same (a, b)
    and objective as a scan over all rows.  Non-finite inputs keep every
    row.
    """
    n, k = units.shape
    p = weights.size * n
    if not (np.isfinite(units).all() and np.isfinite(weights).all()
            and np.isfinite(target).all()):
        return np.arange(p)
    gram = units @ np.conj(units).T
    diag = gram.diagonal().real
    # pivoted Cholesky: each step takes the largest pivot of the Schur
    # complement left and stops at pivots of the factorization's own rounding
    schur, cols = gram.copy(), []
    for _ in range(n):
        pivots = schur.diagonal().real
        j = int(np.argmax(pivots))
        if not pivots[j] > n * np.finfo(float).eps * diag.max():
            break
        col = schur[:, j] / np.sqrt(pivots[j])
        schur -= np.outer(col, np.conj(col))
        cols.append(col)
    factor = np.array(cols).T.reshape(n, len(cols))
    u = (np.abs(weights)[:, None] ** 2 * diag
         - 2.0 * (weights[:, None] * (units @ np.conj(target))).real).ravel()
    # rows (2 s_a, u_a, 1) and (s_b, 1, u_b): their dot product is the pair
    # value 2 s_a.s_b + u_a + u_b, the factor 2 exact
    s = (weights[:, None, None] * factor).reshape(p, -1)
    u, one = u[:, None], np.ones((p, 1))
    lhs = np.hstack((2.0 * s.real, 2.0 * s.imag, u, one))
    rhs = np.hstack((s.real, s.imag, one, u))
    row_min = np.full(p, np.inf)
    for b0 in range(0, p, _SCREEN_ROWS):
        b1 = min(b0 + _SCREEN_ROWS, p)
        g = lhs[b0:b1] @ rhs[b0:].T
        np.minimum(row_min[b0:b1], g.min(axis=1), out=row_min[b0:b1])
        np.minimum(row_min[b0:], g.min(axis=0), out=row_min[b0:])
    t2 = float(np.vdot(target, target).real)
    row_min += t2
    rho = np.abs(weights).max() * np.sqrt(diag.max())
    slack = 16.0 * (k + n * n + 8) * np.finfo(float).eps * (np.sqrt(t2) + 2.0 * rho) ** 2
    return np.flatnonzero(~(row_min > np.min(row_min) + 2.0 * slack))


def grid_search_oracle(
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    points_per_knob: int,
    num_taps: int = 1,
) -> SolveReport:
    """Exhaustively evaluate a coarse sublattice of the quantization grid:
    `points_per_knob` evenly spaced codes of each knob, or all of them if
    the knob has fewer."""
    if num_taps not in (1, 2):
        raise InvalidArgumentError("oracle supports 1 or 2 taps")
    if points_per_knob < 2:
        raise InvalidArgumentError("points_per_knob must be >= 2")
    sub_vals = []
    for knob in spec.knobs():
        vals = knob.values()
        # more points than codes would only select codes twice
        count = min(points_per_knob, vals.size)
        ix = np.unique(np.round(np.linspace(0, vals.size - 1, count)).astype(int))
        sub_vals.append(vals[ix])
    per_tap = int(np.prod([v.size for v in sub_vals]))
    total = per_tap**num_taps
    if total > LATTICE_CAP:
        raise LatticeTooLargeError(total, LATTICE_CAP)

    run = _RunRecord()
    kernel = ModelKernel(model, h_si)
    tm, f = kernel.tap_model, h_si.grid.points
    grids = np.meshgrid(*sub_vals, indexing="ij")
    tap_configs = np.stack([g.ravel() for g in grids], axis=1)  # (per_tap, 4)

    # single-tap response of every lattice point, (per_tap, K), as the
    # kernel's: its first rows hold every (center, q) pair once, and their
    # filter terms repeat for each (amp, phase)
    n_cq = sub_vals[2].size * sub_vals[3].size
    terms = tm.filter(tap_configs[:n_cq, 2], tap_configs[:n_cq, 3], f, kernel.board)[0]
    gain, turn = weight_factors(tap_configs[:, 0], tap_configs[:, 1])
    combine = tm.combiner(f, kernel.board)
    weights = gain * turn
    resp = combine(weights[:, None], np.tile(terms, (per_tap // n_cq, 1)))
    target = h_si.values

    if num_taps == 1:
        obj = _objectives(target, resp[:, None, :])
        best = int(np.argmin(obj))
        x = tap_configs[best : best + 1]
        fbest = float(obj[best])
        kept, scanned = 0, per_tap
    else:
        fbest = np.inf
        best_pair = (0, 0)
        rows = _pair_rows(target, weights[::n_cq], combine(1.0, terms))
        for i in rows:
            d = target[None, :] - resp[i][None, :] - resp
            obj = np.sum(d.real**2 + d.imag**2, axis=1)
            j = int(np.argmin(obj))
            if obj[j] < fbest:
                fbest = float(obj[j])
                best_pair = (i, j)
        x = tap_configs[list(best_pair)]
        kept, scanned = rows.size, rows.size * per_tap
    run.emit("oracle: %(configs)d configs, %(rows_kept)d rows kept by the pair screen, "
             "%(scanned)d scored directly, %(wall_s).6f s",
             configs=total, rows_kept=kept, scanned=scanned, wall_s=run.lap())

    return kernel.report(x, fbest, total, [fbest], quantized=True)
