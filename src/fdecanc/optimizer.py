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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .core import ComplexResponse, FrequencyGrid
from .errors import InvalidArgumentError, LatticeTooLargeError, SolverFailureError
from .metrics import SicSummary, rf_sic_db
from .models import (
    PcbBoardParams, _positive_points, tap_model, tap_model_of, weight_factors,
)

LATTICE_CAP = 10**7
# Which knob of a tap wraps, in knob-vector order: the phase alone.  Every
# QuantizationSpec must say the same, and the continuous solver wraps these.
_PERIODIC = (False, True, False, False)


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

    @cached_property
    def _values(self) -> np.ndarray:
        if self.bits is not None:
            vals = np.linspace(self.min, self.max, 2**self.bits)
        else:
            n = int(math.floor((self.max - self.min) / self.step + 1e-9)) + 1
            vals = self.min + np.arange(n) * self.step
        vals.setflags(write=False)
        return vals

    def values(self) -> np.ndarray:
        """The ascending grid values: one read-only array, built on first use."""
        return self._values

    @cached_property
    def moves(self) -> tuple:
        """Per code, the tuple of its -1 and +1 codes on the grid, in that
        order, built once: periodic knobs wrap, bounded ones drop an end."""
        n = self.values().size
        if self.periodic:
            return tuple(((c - 1) % n, (c + 1) % n) for c in range(n))
        return tuple(tuple(k for k in (c - 1, c + 1) if 0 <= k < n) for c in range(n))

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
    """Per-knob discrete grids for one tap model, in knob-vector order."""

    amp_db: KnobSpec
    phase_rad: KnobSpec
    center: KnobSpec
    q: KnobSpec

    def __post_init__(self):
        for knob, wraps in zip(fields(self), _PERIODIC):
            if getattr(self, knob.name).periodic != wraps:
                raise InvalidArgumentError(
                    f"{knob.name} must {'' if wraps else 'not '}be periodic: "
                    "the phase is the one knob that wraps"
                )

    def knobs(self) -> tuple:
        return tuple(getattr(self, k.name) for k in fields(self))

    def bounds(self) -> "BoxBounds":
        return BoxBounds(*((k.min, k.max) for k in self.knobs()))


@dataclass(frozen=True)
class BoxBounds:
    """Continuous box constraints per knob, each a (low, high) pair of
    finite floats with low < high; the knobs of `_PERIODIC` (the phase)
    are treated as periodic."""

    amp_db: tuple
    phase_rad: tuple
    center: tuple
    q: tuple

    def __post_init__(self):
        for knob in fields(self):
            pair = getattr(self, knob.name)
            try:
                low, high = (float(v) for v in pair)
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"{knob.name} bounds must be a (low, high) pair, got {pair!r}"
                ) from None
            if not (math.isfinite(low) and math.isfinite(high) and low < high):
                raise InvalidArgumentError(
                    f"{knob.name} bounds must be finite with low < high, got {pair!r}"
                )

    def lows(self) -> np.ndarray:
        return np.array([getattr(self, k.name)[0] for k in fields(self)])

    def highs(self) -> np.ndarray:
        return np.array([getattr(self, k.name)[1] for k in fields(self)])


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
    positive.  The model's combiner is built once, here, for every kernel and
    Jacobian call."""

    def __init__(self, model: str, h_si: ComplexResponse):
        self.tap_model = tap_model(model)
        self.h_si = h_si
        self.board = PcbBoardParams()
        self._f = _positive_points(h_si.grid, f"{model} tap model")
        self._target = h_si.values
        self._combine = self.tap_model.combiner(self._f, self.board)
        self._kernel = self.tap_model.kernel
        self._jacobian = self.tap_model.jacobian

    def response_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        return self._kernel(x, self._f, self.board, self._combine).sum(axis=0)

    def objective(self, x: np.ndarray) -> float:
        return float(self.objective_batch(np.asarray(x, dtype=float).reshape(1, -1, 4))[0])

    def objective_batch(self, xs: np.ndarray) -> np.ndarray:
        """Objectives for a batch of configs; xs has shape (P, M, 4)."""
        p, m, _ = xs.shape
        mat = self._kernel(xs.reshape(p * m, 4), self._f, self.board, self._combine)
        return _residual_objectives(self._target, mat.reshape(p, m, self._f.size))[1]

    def residual_jacobian(self, xs: np.ndarray):
        """Residuals r = h_si - H(x), shape (P, K), and Jacobians dH/dx =
        -dr/dx, shape (P, 4M, K) with rows in knob-vector order, for a batch
        of configs; xs has shape (P, M, 4)."""
        p, m, _ = xs.shape
        taps, jac = self._jacobian(xs.reshape(p * m, 4), self._f, self.board, self._combine)
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


def _residual_objectives(target: np.ndarray, taps: np.ndarray):
    """The residuals d = target - sum_m T_m of per-tap responses T, shape
    (..., M, K), and the objectives sum_k |d_k|^2: one residual and one
    objective per config, its taps summed in tap order."""
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
    return float(_residual_objectives(h_si.values, h_canc.values[None, :])[1])


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
    values lam, 4 lam and 16 lam: one Jacobian call, from which it builds
    A, g and the padded system afresh, one stacked solve and one for the
    trials that hold a knob, one `objective_batch` call for all candidates
    and one for all extrapolations.  A start takes its first accepted trial,
    or stops at its first rejected one that ends the descent; A and g at a
    point that stays put are bitwise the same, so this is the accept/reject
    sequence of one trial per pass.  A start leaves the batch when it stops;
    the kernels are elementwise and the stacked products and solves treat
    each start's matrix on its own, so each start's result is bitwise the
    one it gets alone.

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
    # the running starts, one batch row each, and all a pass hands the next:
    # start index, point, objective, trace and damping
    ids = np.flatnonzero(np.isfinite(f0))
    z, fz = z[ids], f0[ids]
    traces = [[v] for v in fz.tolist()]
    lam = np.full(ids.size, _LAMBDA0)

    def retire(stops):
        """Record each start of `stops` (batch row -> stop reason) as done,
        drop it from the batch and return the mask of the rows kept."""
        nonlocal ids, z, fz, traces, lam
        for i, reason in stops.items():
            out[ids[i]] = (z[i].copy(), float(fz[i]), traces[i], reason)
        keep = np.ones(ids.size, dtype=bool)
        keep[list(stops)] = False
        ids, z, fz, lam = ids[keep], z[keep], fz[keep], lam[keep]
        traces = [t for t, k in zip(traces, keep.tolist()) if k]
        return keep

    while ids.size:
        passes += 1
        r, jac = kernel.residual_jacobian(denorm(z).reshape(-1, m, 4))
        jz = (jac * span[:, None]).view(np.float64)
        a = np.matmul(jz, jz.transpose(0, 2, 1))
        g = np.matmul(jz, r.view(np.float64)[:, :, None])[:, :, 0]
        fr = periodic | ~(((z <= 0.0) & (g < 0.0)) | ((z >= 1.0) & (g > 0.0)))
        down = (fr & (g != 0.0)).any(axis=1)
        if not (np.isfinite(a).all() and np.isfinite(g).all() and down.all()):
            ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
            keep = retire({
                i: "no_descent" if o else "non_finite"
                for i, (o, d) in enumerate(zip(ok.tolist(), down.tolist())) if not (o and d)
            })
            if not ids.size:
                break
            a, g, fr = a[keep], g[keep], fr[keep]
        # the padded system: frozen rows and columns become identity with a
        # zero right-hand side, so frozen knobs get a zero step.  The damping
        # comes from the free diagonal; a knob with zero curvature still gets
        # some, so the damped matrix is positive definite.
        diag = a.diagonal(axis1=1, axis2=2)
        base = np.where(fr[:, :, None] & fr[:, None, :], a, eye)
        rhs = np.where(fr, g, 0.0)
        top = np.where(fr, diag, 0.0).max(axis=1, keepdims=True)
        damp = np.where(fr, np.maximum(diag, 1e-15 * top), 0.0)
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
    periodic = np.tile(_PERIODIC, num_taps)
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


class _Lattice:
    """The quantization lattice of `spec` on one model's kernel: the knob
    value tables `values`, the per-code gains `gain` and turns `turn` of
    `weight_factors` (a tap's weight is gain[a] * turn[p]), the model's
    combiner `combine`, built once, and the memo `entries` fills: for each
    (center code, q code) key, its filter term, unit row phi = combine(1,
    term) and |phi|^2, each stored once.  A tap row combine(gain[a] *
    turn[p], term) is bitwise the kernel's row of its knob values.
    """

    def __init__(self, kernel: ModelKernel, spec: QuantizationSpec):
        self.values = [k.values() for k in spec.knobs()]
        self.gain, self.turn = weight_factors(self.values[0], self.values[1])
        self._filter, self._f, self._board = kernel.tap_model.filter, kernel._f, kernel.board
        self.combine = kernel._combine
        self.memo = {}

    def entries(self, keys) -> list:
        """The memo entries (term, phi, |phi|^2) of (center code, q code)
        keys, the fresh ones computed in one filter call."""
        memo = self.memo
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            c = self.values[2][[key[0] for key in fresh]]
            q = self.values[3][[key[1] for key in fresh]]
            terms = self._filter(c, q, self._f, self._board)[0]
            units = self.combine(1.0, terms)
            phi2 = np.add.reduce(units.real**2 + units.imag**2, axis=1).tolist()
            memo.update(zip(fresh, zip(terms, units, phi2)))
        return [memo[key] for key in keys]

    def point(self, codes) -> np.ndarray:
        """The (M, 4) knob matrix of an (M, 4) code array."""
        return np.stack([v[codes[:, j]] for j, v in enumerate(self.values)], axis=1)


def _visit_screen(resid, row, keys, memo, norm, coef):
    """The screen of one `local_search` visit to a tap with row `row`: `resid`
    is the residual of the last exact score, `keys` the visit's block of
    keys in the lattice memo `memo`, and `norm` |t| + sum_m |w_m| |phi_m|
    at the visit's start.  Returns bound(w, key): a lower bound on the
    objective with the tap's row moved to combine(w, term of key).
    `local_search` gives the algebra and the slack coef N^2."""
    g = resid + row
    g2 = float(np.vdot(g, g).real)
    cg = dict(zip(keys, (np.array([memo[key][1] for key in keys]) @ np.conj(g)).tolist()))

    def bound(w, key):
        p2 = memo[key][2]
        s = norm + abs(w) * math.sqrt(p2)
        return (g2 - 2.0 * (w * cg[key]).real + (w.real * w.real + w.imag * w.imag) * p2
                - coef * s * s)

    return bound


def local_search(
    qconfig,
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    max_rounds: int = 10,
) -> SolveReport:
    """Coordinate-wise +/-1-step hill climbing on the quantization lattice.

    The start is each knob's nearest lattice code.  A round visits every
    knob of every tap in order and scores its -1 and +1 codes (`KnobSpec.moves`)
    from the current point; the first that strictly lowers the objective is
    taken.  Once the -1 move is taken, the +1 move from there is the old
    point, which cannot beat the new objective, so scoring both from the
    current point takes the same moves as trying them in turn.  The search
    ends after a round with no move (the report's `stop_reason` is
    "no_descent"), or after `max_rounds` ("max_iters"; 0 rounds return the
    start).

    Tap rows come from `_Lattice`: weights from its gain and turn tables,
    filter terms and unit rows from its memo of (center code, q code) keys.
    Candidates are scored as `ModelKernel.objective_batch` scores configs,
    so every objective is bitwise the kernel's.  A tap's key moves only in
    its own visit, so each round looks up every tap's block (below) at once,
    and the memo computes the round's fresh keys in one filter call.

    Screen.  A tap's row is r = w phi up to rounding, with w its weight and
    phi = combine(1, filter term) its unit row.  A visit to tap i starts
    from e, the residual of the last exact score, and g = e + r_i: the
    target less the other taps' rows, which stay put while tap i moves, so
    g serves the whole visit.  A candidate moves r_i to w' phi', with a new
    weight w' for an amplitude or phase move and a new unit row phi' for a
    center or q move, and its objective is

        |g - w' phi'|^2 = |g|^2 - 2 Re(w' <g, phi'>) + |w'|^2 |phi'|^2,

    with <g, phi> = sum_k conj(g_k) phi_k.  A knob moves at most once per
    visit, so every key a candidate can reach lies in the 3x3 block of
    (center +/-1, q +/-1) keys around the tap's key at the visit's start.
    The visit computes g, |g|^2 and, in one product, <g, phi> over that
    block; each candidate is then a few scalar operations.  It is scored
    exactly only if its screened value minus a slack is below fx; the
    others cannot beat fx, so the search accepts the same moves, in the
    same order, with the same objectives as one that scores every candidate
    exactly.

    Rounding bound.  Let eps be the machine epsilon, K the grid points, M
    the taps, t the target and N = |t| + sum_m |r_m| + |r'|, 2-norms over
    the grid, with r_m the rows at the visit's start and r' the candidate's
    row: N bounds every vector the values are built from.  Let g* = t -
    sum_{m != i} r_m.  The candidate's exact score (a sum over taps, a
    subtraction, K squares and their sum) is within (K + 2M + 4) eps N^2 of
    |g* - r'|^2 in exact arithmetic on the same rows.  e is within (M + 1)
    eps N of its value in exact arithmetic, so g is within (M + 2) eps N of
    g*, which moves |g - r'|^2 by at most (2M + 5) eps N^2; accepted moves
    of tap i since the visit's start leave g* as it was.  A row combine(w',
    term') differs from w' phi' by at most 16 eps |r'| (up to three complex
    products or a division on each side), which moves the objective by at
    most 33 eps N^2.  The screened value's |g|^2, K-term dot product,
    |phi'|^2 and the few products and sums that assemble them add at most
    (3K + 20) eps N^2.
    In all, the screened value is within (4K + 4M + 62) eps N^2 of the
    candidate's exact score, below the slack 16 (K + M + 8) eps N^2, with N
    taken from |t|, the |w_m| |phi_m| of the visit's start and |w'| |phi'|,
    each within a few eps of its row's norm.

    Each call logs rounds, accepted moves, candidates scored (screened),
    candidates scored exactly, the memo's keys computed and its lookups of
    keys already there, the stop reason and wall time (rounds, accepted,
    scored, exact, filters_computed, filters_reused, stop_reason, wall_s)
    at DEBUG on the "fdecanc" logger, also as record attributes.
    """
    qconfig = list(qconfig)
    if not qconfig:
        raise InvalidArgumentError("need at least one tap")
    if max_rounds < 0:
        raise InvalidArgumentError("max_rounds must be >= 0")
    run = _RunRecord()
    kernel = ModelKernel(model, h_si)
    target, lat = kernel._target, _Lattice(kernel, spec)
    gain, turn, combine, memo = lat.gain.tolist(), lat.turn.tolist(), lat.combine, lat.memo
    knob_moves = [k.moves for k in spec.knobs()]
    center_moves, q_moves = knob_moves[2:]
    x = kernel.tap_model.vector(qconfig)
    idx = np.stack([nearest_codes(v, x[:, j]) for j, v in enumerate(lat.values)], axis=1)
    fx = kernel.objective(lat.point(idx))
    idx = idx.tolist()
    weights = [gain[a] * turn[p] for a, p, _, _ in idx]
    start = lat.entries([(c, q) for _, _, c, q in idx])
    rows = combine(np.array(weights)[:, None], np.array([e[0] for e in start]))
    resid = target - rows.sum(axis=0)
    norms = [abs(w) * math.sqrt(e[2]) for w, e in zip(weights, start)]
    tau = float(np.linalg.norm(target))
    coef = 16.0 * (target.size + len(idx) + 8) * np.finfo(float).eps
    trace = [fx]
    rounds = scored = exact = 0
    looked = len(idx)
    reason = "max_iters"
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        # a tap's block moves only in its own visit, so the memo computes
        # the fresh keys of every tap's block in one filter call a round
        blocks = [[(u, v) for u in (c, *center_moves[c]) for v in (q, *q_moves[q])]
                  for _, _, c, q in idx]
        looked += len(lat.entries([key for keys in blocks for key in keys]))
        for i, code in enumerate(idx):
            bound = _visit_screen(resid, rows[i], blocks[i], memo, tau + sum(norms), coef)
            for j in range(4):
                moves = knob_moves[j][code[j]]
                scored += len(moves)
                for k in moves:
                    a, p, c, q = code[:j] + [k] + code[j + 1:]
                    w = gain[a] * turn[p]
                    if not bound(w, (c, q)) < fx:
                        continue
                    exact += 1
                    cand = rows.copy()
                    cand[i] = combine(w, memo[c, q][0])
                    e, fc = _residual_objectives(target, cand)
                    fc = float(fc)
                    if fc < fx:
                        code[j] = k
                        rows, resid, fx = cand, e, fc
                        trace.append(fx)
                        improved = True
                        break
            a, p, c, q = code
            norms[i] = abs(gain[a] * turn[p]) * math.sqrt(memo[c, q][2])
        if not improved:
            reason = "no_descent"
            break
    x = lat.point(np.array(idx))
    computed = len(memo)
    run.emit("local search: %(rounds)d rounds, %(accepted)d moves accepted, "
             "%(scored)d candidates scored, %(exact)d exactly, filter rows "
             "%(filters_computed)d computed and %(filters_reused)d reused, stop "
             "%(stop_reason)s, %(wall_s).6f s",
             rounds=rounds, accepted=len(trace) - 1, scored=scored, exact=exact,
             filters_computed=computed, filters_reused=looked - computed,
             stop_reason=reason, wall_s=run.lap())
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
    cancellation frequency; every frequency is checked, and at least one is
    needed, before any tap is fit.
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
    if not windows:
        raise InvalidArgumentError("need at least one tap")
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
    """Extend a tap list to `num_taps` (at least 1) by repeatedly fitting one
    tap to the running residual on the whole grid; used to warm-start a
    larger joint solve from a smaller one's solution."""
    if num_taps < 1:
        raise InvalidArgumentError("num_taps must be >= 1")
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

    One continuous multi-start solve; if a quantization spec is given, its
    answer is snapped to the lattice and `local_search` hill-climbs from
    there.  A lattice point is a point of the box, so when it beats the
    continuous answer (a poor solve, as with tiny options), the continuous
    report is the quantized one with `quantized` False: the continuous
    objective is never above the quantized one.

    Each call logs the wall time of each phase (continuous_s, quantize_s,
    local_search_s; 0 for a phase that did not run) at DEBUG on the
    "fdecanc" logger, also as record attributes.

    Returns (continuous_report, quantized_report_or_None).
    """
    phases = dict.fromkeys(("continuous_s", "quantize_s", "local_search_s"), 0.0)
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
            cont = replace(qrep, quantized=False)
    run.emit("fit pipeline: continuous %(continuous_s).6f s, quantize %(quantize_s).6f s, "
             "local search %(local_search_s).6f s", **phases)
    return cont, qrep


# ---------------------------------------------------------------------------
# exhaustive lattice oracle


_SCREEN_ROWS = 64
_SEED_ROWS = 32


def _row_bounds(features, gram, tu, g2, slack):
    """The lower bound LB_a of `_pair_rows` on each row's pair values, rows
    in weight-major order, with the rounding allowance of each projection.

    `features` holds (Re w_i, Im w_i, |w_i|^2, 1) for each of the P weights,
    `gram` the Gram matrix gram[alpha, beta] = <phi_beta, phi_alpha> of the
    n unit rows, `tu` the values conj <phi_beta, t>, `g2` the P n values
    |g_a|^2 = |t|^2 + u_a, and `slack` is the screen's.  With V[beta] =
    <phi_beta, t> / sqrt(C_beta,beta) and G[alpha, beta] = gram[alpha, beta]
    / sqrt(C_beta,beta), the projection of g_a = t - w_i phi_alpha on
    phi_beta has

        Q[a, beta] = |<phi_beta, g_a>|^2 / C_beta,beta
                   = |V[beta] - w_i G[alpha, beta]|^2
                   = |V|^2 - 2 Re(w_i conj(V) G) + |w_i|^2 |G|^2,

    so all P n^2 values come from one real product of `features` with 4
    coefficient rows over the n^2 (alpha, beta).  Each Q[a, beta] is raised
    by its allowance slack sqrt(max C / C_beta,beta) before the max over
    beta.  A unit row whose C_beta,beta is 0 gives no usable projection: its
    allowance is infinite, so every LB_a is -inf and no row is dropped.
    Each returned LB_a is at most row a's smallest direct value plus slack
    (`_pair_rows` gives the rounding bound).
    """
    n = gram.shape[0]
    diag = gram.diagonal().real
    scale = np.zeros(n)
    np.divide(1.0, np.sqrt(diag), out=scale, where=diag > 0)
    allowance = np.where(diag > 0, slack * (np.sqrt(diag.max()) * scale), np.inf)
    v = np.conj(tu) * scale
    g = gram.T * scale[:, None]
    vg = np.conj(v)[:, None] * g
    terms = np.stack((-2.0 * vg.real, 2.0 * vg.imag, g.real**2 + g.imag**2,
                      np.broadcast_to((v.real**2 + v.imag**2 + allowance)[:, None], (n, n))),
                     axis=2)
    # Q in (beta, alpha, weight) order: the max over beta runs over whole rows
    q = (terms.reshape(-1, 4) @ features.T).reshape(n, n, -1)
    return g2 - q.max(axis=0).T.ravel()


def _pair_rows(target: np.ndarray, weights: np.ndarray, units: np.ndarray):
    """The pairs (a, b) of rows r_a = weights[a // n] * units[a % n], n =
    len(units), that can be the best pair: each of the P weights times each
    of the n unit rows, in weight-major order.  Returns (rows, columns,
    bounded): the ascending indices a of every row that can hold the best
    pair, for each of them the ascending columns b that can be its best
    pair, and the number of rows the row bound below left for the GEMM
    screen.

    The pair objective |t - r_a - r_b|^2 expands, with the real float views
    R_a = (Re r_a1, Im r_a1, ..., Re r_aK, Im r_aK) and T of t, to

        obj(a, b) = |T|^2 + u_a + u_b + 2 R_a.R_b,   u_a = |R_a|^2 - 2 T.R_a.

    With w_a and phi_a the weight and unit row of r_a, R_a.R_b = Re(conj(w_a)
    w_b C_ab) for the Gram matrix C_ab = <phi_a, phi_b> of the unit rows, and
    u_a = |w_a|^2 C_aa - 2 Re(w_a <t, phi_a>).

    Row bound.  For row a = (i, alpha) and g_a = t - w_i phi_alpha, every
    pair value of row a is |g_a - w_j phi_beta|^2 for a partner b = (j,
    beta), at least the best value over any complex partner weight:

        LB_a = |g_a|^2 - max_beta |<phi_beta, g_a>|^2 / C_beta,beta

    (a projection on each unit row), with |g_a|^2 = |T|^2 + u_a and
    <phi_beta, g_a> = <phi_beta, t> - w_i C_beta,alpha, so the P n^2 terms
    come from the Gram matrix in one product (`_row_bounds`).  The
    incumbent is the smallest pair value over the full rows of the
    _SEED_ROWS rows of smallest u_a, the best single taps, each value |T|^2
    + u_a + u_b + 2 Re(conj(w_a) w_b C_ab) from one product of the same
    weight features.  Rows whose bound exceeds the incumbent by more than
    10 slack cannot hold the best pair, nor complete a pair the screen below
    keeps, and are dropped; the factor rows below are built only for the
    rows left.

    GEMM screen.  A Cholesky factorization of conj(C) with diagonal
    pivoting, stopped once every pivot left is at most n eps times the
    largest diagonal entry, gives F with conj(C) = F F^H + S: filter rows of
    nearby knobs are nearly dependent, so F has d columns, far below n (5-7
    for the pcb sublattice of 36 rows, 12-22 for rfic, on 101-point grids).
    Then R_a.R_b = Re <s_a, s_b>, a real dot product of 2d floats, for s_a =
    w_a F_a.  For the rows left by the bound, one GEMM of the rows (2 s_a,
    u_a, 1) and (s_b, 1, u_b) gives obj(a, b) - |T|^2, so every row minimum
    m_a = min_b obj(a, b) over those rows comes from real GEMMs 2d + 2 wide,
    not 2K, with no Pn x Pn matrix kept.
    The pair value is symmetric, so only the blocks on or above the diagonal
    are computed: each block updates the minima of its rows and of its
    columns, so the screened value of (a, b) may come from the (b, a)
    product.  The columns of a kept row a come from one more product of its
    row (2 s_a, u_a, 1) with every (s_b, 1, u_b) of the rows left: those
    whose screened value is within 2 slack of that row's own screened
    minimum.

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
    In all, the screened value of (a, b), from either product, is within
    (3K + n^2 + n + 120) eps S of the caller's direct values of (a, b) and
    (b, a), which is below slack = 16 (K + n^2 + 8) eps S.  The incumbent's
    values skip the factor: the Gram entries, u and their products put each
    within (4K + 130) eps S of its pair's direct value, also below slack.
    In the bound, <phi_beta, t> and the Gram entries are off by at most 2K
    eps psi tau and 2K eps psi^2.  Divided by sqrt(C_beta,beta), a sum of
    squares good to K eps, these absolute errors grow by psi /
    sqrt(C_beta,beta) = sqrt(max C / C_beta,beta): V and G are off by at
    most (3K + 2) eps tau and (3K + 2) eps psi times that factor.  With
    |V - w_i G| <= tau + omega psi and the product's few roundings, Q[a,
    beta] is off by at most (6K + 16) eps S sqrt(max C / C_beta,beta), below
    the allowance `_row_bounds` adds.  So the computed LB_a is at most the
    exact bound plus the (2K + 40) eps S of |g_a|^2, which is at most row
    a's smallest value in exact arithmetic, and so at most its smallest
    direct value plus slack.
    Why the rows left give the full screen's output: let D* be the
    smallest direct value.  The full screen keeps a row a with m_a <= min(m)
    + 2 slack, and min(m) <= D* + slack, so row a's direct minimum is at most
    D* + 4 slack; a column b it keeps for row a has a screened value within
    2 slack of that row's minimum, so the direct value of (b, a) is at most
    D* + 8 slack, and so is that of the partner that gives a kept row its
    minimum.  Each such row has LB at most D* + 9 slack, and the incumbent
    is at least D* - slack, so its LB is at most the incumbent plus 10 slack
    and it is not dropped: the rows left hold the smallest row minimum,
    every kept row's minimum and every kept column, and the screen over
    them keeps the full screen's rows and columns.
    A row whose direct minimum ties the smallest has m_a <= min(m) + 2
    slack, and every such row is returned; by the same argument on one row,
    a column whose direct value ties the row's direct minimum has a screened
    value within 2 slack of the row's screened minimum, and every such
    column is returned.  The caller's strict-< scan over these rows, each
    over its columns in ascending order, then picks the same (a, b) and
    objective as a scan over all pairs.
    Non-finite inputs keep every row and every column.
    """
    n, k = units.shape
    p = weights.size * n
    if not (np.isfinite(units).all() and np.isfinite(weights).all()
            and np.isfinite(target).all()):
        every = np.arange(p)
        return every, [every] * p, p
    gram = units @ np.conj(units).T
    diag = gram.diagonal().real
    tu = units @ np.conj(target)
    u = (np.abs(weights)[:, None] ** 2 * diag - 2.0 * (weights[:, None] * tu).real).ravel()
    t2 = float(np.vdot(target, target).real)
    rho = np.abs(weights).max() * np.sqrt(diag.max())
    slack = 16.0 * (k + n * n + 8) * np.finfo(float).eps * (np.sqrt(t2) + 2.0 * rho) ** 2
    features = np.stack((weights.real, weights.imag, weights.real**2 + weights.imag**2,
                         np.ones(weights.size)), axis=1)
    bound = _row_bounds(features, gram, tu, t2 + u, slack)
    # the incumbent: the full rows of the best single taps, in Gram form
    seeds = np.argpartition(u, min(p, _SEED_ROWS) - 1)[:_SEED_ROWS]
    x = 2.0 * (weights[seeds // n, None] * gram[seeds % n] - np.conj(tu))
    terms = np.stack((x.real, x.imag, np.broadcast_to(diag, x.shape),
                      np.broadcast_to(u[seeds, None], x.shape)))
    incumbent = t2 + (features @ terms.reshape(4, -1)).min()
    alive = np.flatnonzero(~(bound > incumbent + 10.0 * slack))
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
    # rows (2 s_a, u_a, 1) and (s_b, 1, u_b) of the rows left: their dot
    # product is the pair value 2 s_a.s_b + u_a + u_b, the factor 2 exact
    s = weights[alive // n, None] * factor[alive % n]
    u, one = u[alive, None], np.ones((alive.size, 1))
    lhs = np.hstack((2.0 * s.real, 2.0 * s.imag, u, one))
    rhs = np.hstack((s.real, s.imag, one, u))
    row_min = np.full(alive.size, np.inf)
    for b0 in range(0, alive.size, _SCREEN_ROWS):
        b1 = min(b0 + _SCREEN_ROWS, alive.size)
        g = lhs[b0:b1] @ rhs[b0:].T
        np.minimum(row_min[b0:b1], g.min(axis=1), out=row_min[b0:b1])
        np.minimum(row_min[b0:], g.min(axis=0), out=row_min[b0:])
    row_min += t2
    rows = np.flatnonzero(~(row_min > np.min(row_min) + 2.0 * slack))
    columns = []
    for b0 in range(0, rows.size, _SCREEN_ROWS):
        g = lhs[rows[b0:b0 + _SCREEN_ROWS]] @ rhs.T
        g += t2
        columns.extend(alive[np.flatnonzero(~(v > np.min(v) + 2.0 * slack))] for v in g)
    return alive[rows], columns, alive.size


def grid_search_oracle(
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    points_per_knob: int,
    num_taps: int = 1,
) -> SolveReport:
    """Exhaustively evaluate a coarse sublattice of the quantization grid:
    `points_per_knob` evenly spaced codes of each knob, or all of them if
    the knob has fewer.

    One tap scores every lattice point.  Two taps score directly only the
    pairs that `_pair_rows` keeps: the rows that can hold the best pair
    and, for each, the columns that can complete it.  Tap rows are built
    only for those pairs, each as the kernel builds it, and the scan over
    kept rows and their columns in ascending order with a strict < picks
    the same pair and objective as a scan over all pairs.

    Each call logs the configs, the rows the pair screen's row bound left
    for its GEMM screen (0 for one tap), the rows the screen kept, the pairs
    scored directly and the wall time (configs, rows_bounded, rows_kept,
    scanned, wall_s) at DEBUG on the "fdecanc" logger, also as record
    attributes.
    """
    if num_taps not in (1, 2):
        raise InvalidArgumentError("oracle supports 1 or 2 taps")
    if points_per_knob < 2:
        raise InvalidArgumentError("points_per_knob must be >= 2")
    # the codes of each knob; more points than codes would only select codes twice
    sub = [np.unique(np.round(np.linspace(0, n - 1, min(points_per_knob, n))).astype(int))
           for n in (knob.values().size for knob in spec.knobs())]
    per_tap = int(np.prod([ix.size for ix in sub]))
    total = per_tap**num_taps
    if total > LATTICE_CAP:
        raise LatticeTooLargeError(total, LATTICE_CAP)

    run = _RunRecord()
    kernel = ModelKernel(model, h_si)
    lat = _Lattice(kernel, spec)
    codes = np.stack([g.ravel() for g in np.meshgrid(*sub, indexing="ij")], axis=1)

    # lattice point i has weight weights[i // n_cq] and the filter terms
    # terms[i % n_cq]: the first n_cq points hold every (center, q) code
    # pair once, and their filter terms repeat for each (amp, phase) weight
    n_cq = sub[2].size * sub[3].size
    cq = lat.entries(list(map(tuple, codes[:n_cq, 2:].tolist())))
    terms = np.array([e[0] for e in cq])
    weights = (lat.gain[sub[0], None] * lat.turn[sub[1]]).ravel()
    target = h_si.values

    def tap_rows(points):
        """The single-tap responses (len(points), K) of lattice points, as the kernel's."""
        return lat.combine(weights[points // n_cq, None], terms[points % n_cq])

    if num_taps == 1:
        obj = _residual_objectives(target, tap_rows(np.arange(per_tap))[:, None, :])[1]
        best = [int(np.argmin(obj))]
        fbest = float(obj[best[0]])
        bounded, kept, scanned = 0, 0, per_tap
    else:
        fbest, best = np.inf, [0, 0]
        rows, columns, bounded = _pair_rows(target, weights, np.array([e[1] for e in cq]))
        points = np.unique(np.concatenate([rows, *columns]))
        resp = tap_rows(points)
        for i, cols in zip(rows.tolist(), columns):
            d = target - resp[np.searchsorted(points, i)] - resp[np.searchsorted(points, cols)]
            obj = np.sum(d.real**2 + d.imag**2, axis=1)
            j = int(np.argmin(obj))
            if obj[j] < fbest:
                fbest = float(obj[j])
                best = [i, int(cols[j])]
        kept, scanned = rows.size, sum(cols.size for cols in columns)
    x = lat.point(codes[best])
    run.emit("oracle: %(configs)d configs, %(rows_kept)d rows kept by the pair screen "
             "(%(rows_bounded)d left by its row bound), %(scanned)d scored directly, "
             "%(wall_s).6f s",
             configs=total, rows_bounded=bounded, rows_kept=kept, scanned=scanned,
             wall_s=run.lap())
    return kernel.report(x, fbest, total, [fbest], quantized=True)
