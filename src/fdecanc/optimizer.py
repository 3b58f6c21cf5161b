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
from .models import PcbBoardParams, tap_model, tap_model_of, weight_factors

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
        periodic knobs wrap into range first.  Raises if a value lies outside
        the range."""
        v = np.asarray(v, dtype=float)
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
    """Evaluates objective(x) = sum_k |h_si_k - H(f_k; x)|^2 for one model."""

    def __init__(self, model: str, h_si: ComplexResponse, board=None):
        self.tap_model = tap_model(model)
        self.h_si = h_si
        self.board = board if board is not None else PcbBoardParams()
        self._f = h_si.grid.points
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


def _objectives(target: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """sum_k |target_k - sum_m T_mk|^2 of per-tap responses T, shape (..., M,
    K): one objective per config, its taps summed in tap order."""
    d = target - taps.sum(axis=-2)
    return np.sum(d.real**2 + d.imag**2, axis=-1)


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


@dataclass(frozen=True)
class SolveReport:
    config: list
    objective: float
    avg_sic_db: float
    iterations: int
    restart_index: int
    trace: list = field(repr=False)
    quantized: bool = False
    # why the winning restart of a continuous solve stopped (STOP_REASONS);
    # not part of to_dict(), so report JSON keeps its keys
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

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


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
    side, so their step is zero; periodic knobs wrap and are never frozen.  A
    step is accepted only if it strictly lowers the objective, so the trace
    is strictly decreasing; lam is divided by 3 on acceptance and multiplied
    by 4 on rejection.  `opts.max_iters` caps the accepted steps.

    Each pass gives every running start the trials of its next three damping
    values lam, 4 lam and 16 lam: one Jacobian call for the starts that
    moved, one stacked solve, one `objective_batch` call for all candidates
    and one for all extrapolations.  A start takes its first accepted trial,
    or stops at its first rejected one that ends the descent; while its point
    stays put, A and g do not change, so this is the accept/reject sequence
    of one trial per pass.  A start leaves the batch when it stops, and starts
    share no state, so each start's result is bitwise the one it gets alone.

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
        return np.clip(np.where(periodic, z % 1.0, z), 0.0, 1.0)

    def f_batch(zs):
        return kernel.objective_batch(denorm(zs).reshape(-1, m, 4))

    out = [None] * len(z0)
    z = project(z0)
    f0 = f_batch(z)
    passes, scored = 0, len(z0)
    # the running starts, one batch row each: start index, point, objective,
    # trace, damping, whether the point moved since the normal equations
    # were built, and those as a padded system: undamped matrix, diag(damp)
    # and right-hand side
    ids = np.flatnonzero(np.isfinite(f0)).tolist()
    z = z[ids]
    fz = f0[ids].tolist()
    traces = [[v] for v in fz]
    lam = np.full(len(ids), _LAMBDA0)
    moved = [True] * len(ids)
    base = np.empty((len(ids), n, n))
    dmat = np.empty((len(ids), n, n))
    rhs = np.empty((len(ids), n))

    def retire(stops):
        """Record each start of `stops` (batch row -> stop reason) as done
        and drop it from the batch."""
        nonlocal ids, z, fz, traces, lam, moved, base, dmat, rhs
        for i, reason in stops.items():
            out[ids[i]] = (z[i].copy(), fz[i], traces[i], reason)
        keep = [i for i in range(len(ids)) if i not in stops]
        z, lam, base, dmat, rhs = (v[keep] for v in (z, lam, base, dmat, rhs))
        ids, fz, traces, moved = ([v[i] for i in keep] for v in (ids, fz, traces, moved))

    while ids:
        passes += 1
        if any(moved):
            rows = [i for i, mv in enumerate(moved) if mv]
            sel = slice(None) if len(rows) == len(ids) else rows
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
            if fr.all():
                base[sel], rhs[sel] = an, gn
                damp = np.maximum(diag, 1e-15 * diag.max(axis=1, keepdims=True))
            else:
                base[sel] = np.where(fr[:, :, None] & fr[:, None, :], an, eye)
                rhs[sel] = np.where(fr, gn, 0.0)
                top = np.where(fr, diag, 0.0).max(axis=1, keepdims=True)
                damp = np.where(fr, np.maximum(diag, 1e-15 * top), 0.0)
            dmat[sel] = np.where(eye, damp[:, :, None], 0.0)
            moved = [False] * len(ids)
            down = (fr & (gn != 0.0)).any(axis=1)
            if not (np.isfinite(an).all() and np.isfinite(gn).all() and down.all()):
                ok = np.isfinite(an).all(axis=(1, 2)) & np.isfinite(gn).all(axis=1)
                retire({
                    i: "no_descent" if o else "non_finite"
                    for i, o, d in zip(rows, ok.tolist(), down.tolist()) if not (o and d)
                })
                if not ids:
                    break
        # the trials of every rung, (R, rungs, n)
        lams = lam[:, None] * _RUNGS
        damped = base[:, None] + lams[:, :, None, None] * dmat[:, None]
        step = _solve_each(damped, rhs[:, None])
        zr = z[:, None]
        # clipped step on the box; periodic knobs move unwrapped
        step = np.where(bounded, np.clip(zr + step, 0.0, 1.0) - zr, step)
        cand = project(zr + step)
        # a singular matrix's NaN step is not scored: its trial is rejected
        finite = np.isfinite(step).all(axis=2)
        if finite.all():
            fc = f_batch(cand.reshape(-1, n)).reshape(lams.shape)
        else:
            fc = np.full(lams.shape, np.nan)
            if finite.any():
                fc[finite] = f_batch(cand[finite])
        scored += int(finite.sum())
        acc = fc < np.array(fz)[:, None]
        if acc[:, 0].all():
            # the common pass: every start accepts its first rung
            pick, stops = (slice(None), 0), {}
            lam = lams[:, 0] / _LAMBDA_DOWN
        else:
            # a rejected rung ends the descent once lam has run out or the step
            # no longer moves z; each start takes its first rung that accepts
            # or ends
            end = ~acc & ((lams * _LAMBDA_UP > _LAMBDA_MAX) | (cand == zr).all(axis=2))
            pick = np.arange(len(ids)), (acc | end).argmax(axis=1)
            stops = {i: "no_descent" for i in np.flatnonzero(end[pick]).tolist()}
            # with no rung taken, the next pass goes on from the rung after the last
            lam = np.where(acc[pick], lams[pick] / _LAMBDA_DOWN, lams[:, -1] * _LAMBDA_UP)
        accepted = acc[pick].tolist()
        if any(accepted):
            step, cand, fc = step[pick], cand[pick], fc[pick].tolist()
            # the step is zero on frozen knobs, so the padded system predicts
            # the decrease that A and g do
            row = step[:, None, :]
            pred = (
                2.0 * np.matmul(row, rhs[:, :, None])
                - np.matmul(np.matmul(row, base), step[:, :, None])
            ).ravel().tolist()
            ext = [
                i for i, acc in enumerate(accepted)
                if acc and fz[i] - fc[i] > _EXTRAPOLATE_RATIO * pred[i]
            ]
            if ext:
                far = z[ext][:, None, :] + _EXTRAPOLATE[:, None] * step[ext][:, None, :]
                far = project(far)
                ffar = f_batch(far.reshape(-1, n)).reshape(len(ext), -1)
                scored += ffar.size
                for e, (i, k) in enumerate(zip(ext, ffar.argmin(axis=1).tolist())):
                    fk = float(ffar[e, k])
                    if fk < fc[i]:
                        cand[i], fc[i] = far[e, k], fk
            for i, acc in enumerate(accepted):
                if acc:
                    gain = fz[i] - fc[i]
                    fz[i] = fc[i]
                    traces[i].append(fc[i])
                    if gain <= _TOL * max(fz[i], 1e-300):
                        stops[i] = "tol"
                    elif len(traces[i]) > opts.max_iters:
                        stops[i] = "max_iters"
            z = cand if all(accepted) else np.where(np.array(accepted)[:, None], cand, z)
            moved = accepted
        if stops:
            retire(stops)
    if stats is not None:
        stats.update(passes=passes, configs=scored)
    return out


def _debug_log():
    """The "fdecanc" logger if it handles DEBUG records, else None.

    A program that never imported `logging` has configured no handler, so
    nothing could receive the records; importing it here would only add its
    half megabyte to every process that uses this package.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("fdecanc")
    return log if log.isEnabledFor(logging.DEBUG) else None


def solve_continuous(
    model: str,
    h_si: ComplexResponse,
    bounds: BoxBounds | None = None,
    opts: SolveOptions | None = None,
    num_taps: int = 1,
    board: PcbBoardParams | None = None,
    init_configs=None,
) -> SolveReport:
    """Multi-start projected Levenberg-Marquardt over the continuous knob box.

    Each start descends with an analytic Jacobian in box-normalized knob
    coordinates (phase wraps), and all starts advance in lockstep in one
    `_descend` call.  `init_configs` optionally adds deterministic warm starts
    (lists of tap configs) after the random ones; the best start by final
    objective wins, with the lowest start index breaking ties.  The report's
    `stop_reason` says why that start stopped.  Each start's outcome (start,
    iterations, stop_reason, objective), then the solve's lockstep passes,
    configs scored and wall time (starts, passes, configs, wall_s) are logged
    at DEBUG on the "fdecanc" logger, also as record attributes.
    """
    if num_taps < 1:
        raise InvalidArgumentError("num_taps must be >= 1")
    opts = opts or SolveOptions()
    bounds = bounds or default_bounds(model)
    kernel = ModelKernel(model, h_si, board)
    lows = np.tile(bounds.lows(), num_taps)
    highs = np.tile(bounds.highs(), num_taps)
    span = highs - lows
    periodic = np.tile(np.array([False, True, False, False]), num_taps)
    rng = np.random.default_rng(opts.seed)
    starts = [rng.uniform(size=(opts.restarts, 4 * num_taps))]
    for cfgs in init_configs or []:
        x = kernel.tap_model.vector(cfgs).reshape(1, -1)
        starts.append((x - lows) / span)

    log = _debug_log()
    stats = {}
    began = time.perf_counter() if log is not None else 0.0
    outs = _descend(kernel, np.vstack(starts), lows, span, periodic, opts, stats)
    if log is not None:
        wall_s = time.perf_counter() - began
        for r, res in enumerate(outs):
            if res is None:
                log.debug("start %d: objective not finite at the start point", r)
                continue
            info = {"start": r, "iterations": len(res[2]) - 1,
                    "stop_reason": res[3], "objective": res[1]}
            log.debug("start %(start)d: %(iterations)d iterations, stop "
                      "%(stop_reason)s, objective %(objective).17g", info, extra=info)
        info = {"starts": len(outs), **stats, "wall_s": wall_s}
        log.debug("solve: %(starts)d starts, %(passes)d passes, %(configs)d "
                  "configs scored, %(wall_s).6f s", info, extra=info)
    best = None
    for r, res in enumerate(outs):
        if res is not None and (best is None or res[1] < best[1]):
            best = (*res, r)
    if best is None:
        raise SolverFailureError("all restarts produced non-finite objectives")
    z, fz, trace, reason, r = best
    x = lows + z * span
    return SolveReport(
        config=kernel.tap_model.configs(x),
        objective=fz,
        avg_sic_db=kernel.avg_sic_db(x),
        iterations=len(trace) - 1,
        restart_index=r,
        trace=trace,
        stop_reason=reason,
    )


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


def local_search(
    qconfig,
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    max_rounds: int = 10,
    board: PcbBoardParams | None = None,
) -> SolveReport:
    """Coordinate-wise +/-1-step hill climbing on the quantization lattice.

    The start is each knob's nearest lattice code.  A round visits every
    knob of every tap in order and scores its -1 and +1 codes (periodic knobs
    wrap) from the current point; the first that strictly lowers the
    objective is taken.  Once the -1 move is taken, the +1 move from there is
    the old point, which cannot beat the new objective, so scoring both from
    the current point takes the same moves as trying them in turn.  The
    search ends after a round with no move, or after `max_rounds`.

    Tap rows come from cached factors: weights from per-code gain and turn
    tables, filter terms memoized by (center code, q code), so a move
    computes only the moved tap's candidate rows, and an amplitude or phase
    move no filter term.  They are combined as the model's kernel combines
    them, and candidates are scored as `ModelKernel.objective_batch` scores
    configs, so every objective is bitwise the kernel's.  Each call logs
    rounds, accepted moves, candidates scored, filter rows computed and
    reused and wall time (rounds, accepted, scored, filters_computed,
    filters_reused, wall_s) at DEBUG on the "fdecanc" logger, also as record
    attributes.
    """
    log = _debug_log()
    began = time.perf_counter() if log is not None else 0.0
    kernel = ModelKernel(model, h_si, board)
    tm, f, target, board = kernel.tap_model, kernel._f, kernel._target, kernel.board
    knob_vals = [k.values() for k in spec.knobs()]
    sizes = [v.size for v in knob_vals]
    periodic = [k.periodic for k in spec.knobs()]
    x = tm.vector(qconfig)
    idx = np.stack([nearest_codes(v, x[:, j]) for j, v in enumerate(knob_vals)], axis=1)
    x = np.stack([v[idx[:, j]] for j, v in enumerate(knob_vals)], axis=1)

    gain, turn = weight_factors(knob_vals[0], knob_vals[1])
    combine = tm.combiner(f, board)
    weights = (gain[idx[:, 0]] * turn[idx[:, 1]])[:, None]
    terms = tm.filter(x[:, 2], x[:, 3], f, board)[0]
    rows = combine(weights, terms)
    fx = kernel.objective(x)
    idx = idx.tolist()
    filters = {(c[2], c[3]): row for c, row in zip(idx, terms)}
    trace = [fx]
    rounds = scored = 0
    computed, reused = len(idx), 0
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
                if j < 2:
                    a = moves if j == 0 else [code[0]] * len(moves)
                    p = moves if j == 1 else [code[1]] * len(moves)
                    w = (gain[a] * turn[p])[:, None]
                    new = combine(w, filters[code[2], code[3]][None, :])
                else:
                    keys = [(k, code[3]) if j == 2 else (code[2], k) for k in moves]
                    fresh = [key for key in keys if key not in filters]
                    if fresh:
                        c, q = np.array(fresh).T
                        filters.update(zip(
                            fresh, tm.filter(knob_vals[2][c], knob_vals[3][q], f, board)[0]
                        ))
                    computed += len(fresh)
                    reused += len(keys) - len(fresh)
                    w = weights[i : i + 1]
                    new = combine(w, np.stack([filters[key] for key in keys]))
                cands = np.repeat(rows[None], len(moves), axis=0)
                cands[:, i] = new
                scored += len(moves)
                for m, (k, fc) in enumerate(zip(moves, _objectives(target, cands).tolist())):
                    if fc < fx:
                        code[j] = k
                        rows[i] = new[m]
                        if j < 2:
                            weights[i] = w[m]
                        fx = fc
                        trace.append(fx)
                        improved = True
                        break
        if not improved:
            break
    x = np.stack([v[[c[j] for c in idx]] for j, v in enumerate(knob_vals)], axis=1)
    if log is not None:
        info = {"rounds": rounds, "accepted": len(trace) - 1, "scored": scored,
                "filters_computed": computed, "filters_reused": reused,
                "wall_s": time.perf_counter() - began}
        log.debug("local search: %(rounds)d rounds, %(accepted)d moves accepted, "
                  "%(scored)d candidates scored, filter rows %(filters_computed)d "
                  "computed and %(filters_reused)d reused, %(wall_s).6f s",
                  info, extra=info)
    return SolveReport(
        config=kernel.tap_model.configs(x),
        objective=fx,
        avg_sic_db=kernel.avg_sic_db(x),
        iterations=rounds,
        restart_index=0,
        trace=trace,
        quantized=True,
    )


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
        rep = solve_continuous(kernel.tap_model.name, sub, bounds, opts, 1, kernel.board)
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
    return SolveReport(
        config=configs,
        objective=obj,
        avg_sic_db=kernel.avg_sic_db(x),
        iterations=len(configs),
        restart_index=0,
        trace=[obj],
    )


def greedy_extend(
    model: str,
    h_si: ComplexResponse,
    config,
    num_taps: int,
    bounds: BoxBounds | None = None,
    board: PcbBoardParams | None = None,
    seed: int = 0,
):
    """Extend a tap list to `num_taps` by repeatedly fitting one tap to the
    running residual on the whole grid; used to warm-start a larger joint
    solve from a smaller one's solution."""
    cfg = list(config)[:num_taps]
    kernel = ModelKernel(model, h_si, board)
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
    board: PcbBoardParams | None = None,
    init_configs=None,
):
    """Full configuration pipeline.

    Continuous multi-start solve; if a quantization spec is given, round and
    hill-climb on the lattice, then re-descend in continuous space from the
    lattice solution and keep whichever continuous result is better.  The
    polish step guarantees continuous objective <= quantized objective, so
    quantization can only degrade the reported figures.

    Returns (continuous_report, quantized_report_or_None).
    """
    opts = opts or SolveOptions()
    bounds = spec.bounds() if spec is not None else default_bounds(model)
    cont = solve_continuous(
        model, h_si, bounds, opts, num_taps, board, init_configs=init_configs
    )
    if spec is None:
        return cont, None
    qcfg = quantize_config(cont.config, spec)
    qrep = local_search(qcfg, model, h_si, spec, board=board)
    if qrep.objective < cont.objective:
        polished = solve_continuous(
            model, h_si, bounds, replace(opts, restarts=1), num_taps, board,
            init_configs=[qrep.config],
        )
        if polished.objective < cont.objective:
            cont = polished
    return cont, qrep


# ---------------------------------------------------------------------------
# exhaustive lattice oracle


_SCREEN_ROWS = 64


def _pair_rows(target: np.ndarray, resp: np.ndarray) -> np.ndarray:
    """Ascending indices i of every row that can hold the best pair (i, j).

    The pair objective |t - r_i - r_j|^2 expands, with the real float views
    R_i = (Re r_i1, Im r_i1, ..., Re r_iK, Im r_iK) and T of t, of length
    n = 2K, to

        obj(i, j) = |T|^2 + u_i + u_j + 2 R_i.R_j,   u_i = |R_i|^2 - 2 T.R_i,

    so every row minimum m_i = min_j obj(i, j) comes from real GEMMs, with
    no P x P matrix kept.  R_i.R_j is symmetric, so only the blocks on or
    above the diagonal are computed, R[block] @ R[block start:].T: each
    block updates the minima of its rows (adding u of its columns) and of
    its columns (adding u of its rows).  The screened value of (i, j) may
    thus come from the (j, i) product.

    Rounding bound.  Let eps be the unit roundoff, tau = |t|, rho = max_i |r_i|
    and S = (tau + 2 rho)^2.  The absolute values of the terms above sum to
    at most S (|T|^2 + |u_i| + |u_j| + 2|R_i.R_j| <= tau^2 + 4 rho tau
    + 4 rho^2).  A length-n dot product in any summation order, whichever
    operand comes first, is off by at most gamma_n = n eps / (1 - n eps)
    times the sum of its absolute products, and four additions assemble obj,
    so the screened value is within about (2K + 4) eps S of the exact obj.  The caller's direct
    evaluation sum_k |(t_k - r_ik) - r_jk|^2 (two subtractions, the squares
    and a K-term sum) is within about (K + 6) eps S of it, since by Minkowski
    sum_c (|T_c| + |R_ic| + |R_jc|)^2 <= S.  So screened and direct values
    differ by at most (3K + 10) eps S <= slack = 16 K eps S, and so do the
    screened row minimum m_i and the direct one.  A row whose direct minimum
    ties the smallest therefore has m_i <= min(m) + 2 slack, and every such
    row is returned; the caller's strict-< scan over these rows then picks
    the same (i, j) and objective as a scan over all rows.  Non-finite
    bounds or minima keep every row.
    """
    p, k = resp.shape
    r = resp.view(np.float64)
    t = target.view(np.float64)
    norm2 = np.einsum("ij,ij->i", r, r)
    u = norm2 - 2.0 * (r @ t)
    row_min = np.full(p, np.inf)
    for b0 in range(0, p, _SCREEN_ROWS):
        b1 = min(b0 + _SCREEN_ROWS, p)
        g = r[b0:b1] @ r[b0:].T
        g *= 2.0
        np.minimum(row_min[b0:b1], (g + u[b0:]).min(axis=1), out=row_min[b0:b1])
        g += u[b0:b1, None]
        np.minimum(row_min[b0:], g.min(axis=0), out=row_min[b0:])
    row_min += u + t @ t
    s = (np.sqrt(t @ t) + 2.0 * np.sqrt(np.max(norm2))) ** 2
    slack = 16.0 * k * np.finfo(float).eps * s
    return np.flatnonzero(~(row_min > np.min(row_min) + 2.0 * slack))


def grid_search_oracle(
    model: str,
    h_si: ComplexResponse,
    spec: QuantizationSpec,
    points_per_knob: int,
    num_taps: int = 1,
    board: PcbBoardParams | None = None,
) -> SolveReport:
    """Exhaustively evaluate a coarse sublattice of the quantization grid."""
    if num_taps not in (1, 2):
        raise InvalidArgumentError("oracle supports 1 or 2 taps")
    if points_per_knob < 2:
        raise InvalidArgumentError("points_per_knob must be >= 2")
    sub_vals = []
    for knob in spec.knobs():
        vals = knob.values()
        ix = np.unique(
            np.round(np.linspace(0, vals.size - 1, points_per_knob)).astype(int)
        )
        sub_vals.append(vals[ix])
    per_tap = int(np.prod([v.size for v in sub_vals]))
    total = per_tap**num_taps
    if total > LATTICE_CAP:
        raise LatticeTooLargeError(total, LATTICE_CAP)

    kernel = ModelKernel(model, h_si, board)
    tm, f = kernel.tap_model, h_si.grid.points
    grids = np.meshgrid(*sub_vals, indexing="ij")
    tap_configs = np.stack([g.ravel() for g in grids], axis=1)  # (per_tap, 4)

    # single-tap response of every lattice point, (per_tap, K), as the
    # kernel's: its first rows hold every (center, q) pair once, and their
    # filter terms repeat for each (amp, phase)
    n_cq = sub_vals[2].size * sub_vals[3].size
    terms = tm.filter(tap_configs[:n_cq, 2], tap_configs[:n_cq, 3], f, kernel.board)[0]
    gain, turn = weight_factors(tap_configs[:, 0], tap_configs[:, 1])
    resp = tm.combiner(f, kernel.board)(
        (gain * turn)[:, None], np.tile(terms, (per_tap // n_cq, 1))
    )
    target = h_si.values

    if num_taps == 1:
        obj = _objectives(target, resp[:, None, :])
        best = int(np.argmin(obj))
        x = tap_configs[best : best + 1]
        fbest = float(obj[best])
    else:
        fbest = np.inf
        best_pair = (0, 0)
        for i in _pair_rows(target, resp):
            d = target[None, :] - resp[i][None, :] - resp
            obj = np.sum(d.real**2 + d.imag**2, axis=1)
            j = int(np.argmin(obj))
            if obj[j] < fbest:
                fbest = float(obj[j])
                best_pair = (i, j)
        x = tap_configs[list(best_pair)]

    return SolveReport(
        config=kernel.tap_model.configs(x),
        objective=fbest,
        avg_sic_db=kernel.avg_sic_db(x),
        iterations=total,
        restart_index=0,
        trace=[fbest],
        quantized=True,
    )
