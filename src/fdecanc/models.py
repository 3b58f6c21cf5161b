"""Transfer-function models for ideal (RFIC-style) and PCB FDE canceller taps.

Every tap is a bandpass filter behind an attenuator and a phase shifter,
A_i e^{-j phi_i} H_BPF(f).  The ideal tap's filter is a second-order bandpass:

    H_i(f) = A_i e^{-j phi_i} / (1 - j Q_i (f_c/f - f/f_c))

The PCB tap's filter is two shunt RLC tanks (C_F in the middle one, C_Q in
the outer impedance-tuning ones) separated by transmission-line sections,
under a global attenuation/delay.  Its closed form expands the C-entry of the
five-matrix ABCD cascade; the cascade (`pcb_bpf_response_abcd`) is kept as
the oracle that the closed form must match pointwise.

`TAP_MODELS` has one entry per model, holding only what the model knows:
config class, quantization preset, filter, combiner and the derivatives of a
tap by its two filter knobs.  The knob names are the config class's fields.
`TapModel` builds the rest once: `taps` combines a tap's weight A e^{-j phi}
with the filter term of its two filter knobs for M taps from an (M, 4) knob
matrix, and `kernel` and `jacobian` both start from it, the Jacobian filling
the weight rows itself.  Searches that cache weights and filter terms per
lattice code combine them with the same combiner.  The per-config functions
here, the solvers, the lattice oracle and the CLI all evaluate taps from
these pieces.  Both config classes share one check, `_check_tap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import ComplexResponse, FrequencyGrid
from .errors import InvalidArgumentError, SingularNetworkError


def _check_tap(cfg) -> None:
    """The checks of a tap config, whose fields are amp_db, phase_rad and the
    two filter knobs: each filter knob must be positive and finite, the phase
    must lie in [-pi, pi], and amp_db must be finite with a finite linear gain
    10^(amp_db/20), which holds up to about 6165 dB."""
    for name in tuple(cfg.__dataclass_fields__)[2:]:
        if not (0 < getattr(cfg, name) < np.inf):
            raise InvalidArgumentError(f"{name} must be positive and finite")
    if not (-np.pi <= cfg.phase_rad <= np.pi):
        raise InvalidArgumentError("phase_rad must lie in [-pi, pi]")
    try:
        ok = math.isfinite(cfg.amp_db) and math.isfinite(math.pow(10.0, cfg.amp_db / 20.0))
    except OverflowError:
        ok = False
    if not ok:
        raise InvalidArgumentError(
            "amp_db must be finite with a finite linear gain 10^(amp_db/20)"
        )


@dataclass(frozen=True)
class IdealTapConfig:
    """One ideal FDE tap: amplitude (dB), phase (rad), center (Hz), Q."""

    amp_db: float
    phase_rad: float
    center_hz: float
    q: float

    __post_init__ = _check_tap


@dataclass(frozen=True)
class PcbTapConfig:
    """One PCB FDE tap: amplitude (dB), phase (rad), tank capacitances (pF)."""

    amp_db: float
    phase_rad: float
    cf_pf: float
    cq_pf: float

    __post_init__ = _check_tap


@dataclass(frozen=True)
class PcbBoardParams:
    """Fixed circuit constants of the PCB BPF board.

    r_f_ohm (center-tank loss) is a configurable guess; the board's matched
    termination fixes r_q_ohm = 50 ohm but the center tank's loss is not
    pinned down by any published measurement.
    """

    l_f_nh: float = 1.65
    l_q_nh: float = 2.85
    r_f_ohm: float = 50.0
    r_q_ohm: float = 50.0
    r_s_ohm: float = 50.0
    beta_l_rad: float = 1.37
    z0_ohm: float = 50.0
    a0_db: float = -4.1
    tau0_s: float = 4.2e-9

    def __post_init__(self):
        for name in ("l_f_nh", "l_q_nh", "r_f_ohm", "r_q_ohm", "r_s_ohm", "z0_ohm"):
            if not (getattr(self, name) > 0):
                raise InvalidArgumentError(f"{name} must be positive")


@dataclass(frozen=True)
class TwoPortMatrix:
    """2x2 ABCD transmission matrix; cascades compose by matrix product.

    Entries may be scalars or equal-shape numpy arrays (one matrix per
    frequency), so a whole grid cascades in one product.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not np.all(np.isfinite(v)):
                raise InvalidArgumentError("matrix entries must be finite")

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        return TwoPortMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c


# ---------------------------------------------------------------------------
# tap kernels: M taps at once from an (M, 4) knob matrix x on frequencies f


def _rlc_admittance(r_ohm, l_h, c_f, w):
    """Admittance 1/R + jwC + 1/(jwL) of a parallel RLC tank; broadcasts."""
    return 1.0 / r_ohm + 1j * w * c_f + 1.0 / (1j * w * l_h)


def weight_factors(amp_db, phase_rad):
    """Attenuator gains 10^(amp_db/20) and phase-shifter turns e^{-j phi} of
    arrays of knob values; a tap's weight A e^{-j phi} is their product."""
    return 10.0 ** (amp_db / 20.0), np.exp(-1j * phase_rad)


# A model is its filter of the (center, q) knobs, its combiner of weights with
# filter terms and the derivatives of T by the two filter knobs; `TapModel`
# builds the tap rows, the kernel and the Jacobian from these, and the lattice
# searches combine cached weights and filter terms with the same combiner, so
# every tap row is bitwise the kernel's.


def _ideal_filter(center, q, f, board=None):
    """Filter terms D = 1 - jQ*ratio (M, K) of M ideal taps, with the
    detuning ratio f_c/f - f/f_c that the derivatives reuse; T = w/D."""
    ratio = center[:, None] / f[None, :] - f[None, :] / center[:, None]
    return 1.0 - 1j * q[:, None] * ratio, ratio


def _ideal_combiner(f, board=None):
    """combine(w, D) = w / D."""
    return np.divide


def _ideal_derivatives(x: np.ndarray, f: np.ndarray, t, filtered, board=None):
    """dT/d(f_c) and dT/dQ (M, K) of M ideal taps with responses T:

        jQ (1/f + f/f_c^2) T/D,   j ratio T/D.
    """
    d, ratio = filtered
    fc = x[:, 2, None]
    t_d = t / d
    d_fc = 1j * x[:, 3, None] * (1.0 / f[None, :] + f[None, :] / (fc * fc)) * t_d
    return d_fc, 1j * ratio * t_d


def _pcb_filter(center, q, f, board: PcbBoardParams):
    """Filter terms 1/(R_S M_C) (M, K) of M PCB taps from their C_F and C_Q
    in pF, with the tank admittances Y_F, Y_Q and the cascade's C-entry M_C
    that the derivatives reuse.  With a = cos(beta*l), s2 = sin(2*beta*l):

        M_C = j s2 Z0 Y_F Y_Q + a^2 Y_F + 2 cos(2 beta l) Y_Q
              + j s2 / Z0 + j s2 Z0 Y_Q^2 - sin^2(beta l) Z0^2 Y_F Y_Q^2
    """
    w = 2.0 * np.pi * f
    y_f = _rlc_admittance(board.r_f_ohm, board.l_f_nh * 1e-9, center[:, None] * 1e-12, w)
    y_q = _rlc_admittance(board.r_q_ohm, board.l_q_nh * 1e-9, q[:, None] * 1e-12, w)
    bl = board.beta_l_rad
    z0 = board.z0_ohm
    s2 = np.sin(2.0 * bl)
    m_c = (
        1j * s2 * z0 * y_f * y_q
        + np.cos(bl) ** 2 * y_f
        + 2.0 * np.cos(2.0 * bl) * y_q
        + 1j * s2 / z0
        + 1j * s2 * z0 * y_q * y_q
        - np.sin(bl) ** 2 * z0 * z0 * y_f * y_q * y_q
    )
    return 1.0 / (board.r_s_ohm * m_c), y_f, y_q, m_c


def _pcb_combiner(f, board: PcbBoardParams):
    """combine(w, B) = E (w B), with the board's global attenuation/delay
    E = lin(A_0) e^{-j 2 pi f tau_0} computed once; E is linear, so a PCB
    canceller's response is the sum of its tap rows."""
    e = 10.0 ** (board.a0_db / 20.0) * np.exp(-2j * np.pi * f * board.tau0_s)
    return lambda w, b: e * (w * b)


def _pcb_derivatives(x: np.ndarray, f: np.ndarray, t, filtered, board: PcbBoardParams):
    """dT/d(C_F) and dT/d(C_Q) (M, K) of M PCB taps with responses T; by the
    chain rule through Y = ... + jwC*1e-12, dT/dC = -T/M_C * dM_C/dY * jw*1e-12."""
    _, y_f, y_q, m_c = filtered
    bl = board.beta_l_rad
    z0 = board.z0_ohm
    s2 = np.sin(2.0 * bl)
    sin2_z0z0 = np.sin(bl) ** 2 * z0 * z0
    dm_dyf = 1j * s2 * z0 * y_q + np.cos(bl) ** 2 - sin2_z0z0 * y_q * y_q
    dm_dyq = (
        1j * s2 * z0 * y_f
        + 2.0 * np.cos(2.0 * bl)
        + 2j * s2 * z0 * y_q
        - 2.0 * sin2_z0z0 * y_f * y_q
    )
    dy_dc = -t / m_c * (1j * 2.0 * np.pi * f * 1e-12)[None, :]
    return dm_dyf * dy_dc, dm_dyq * dy_dc


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class TapModel:
    """One tap model of `TAP_MODELS`.

    `filter(center, q, f, board)` returns the filter terms (M, K) of the
    two filter knobs first, then the terms the derivatives reuse;
    `combiner(f, board)` returns the function that combines weights with
    filter terms into per-tap responses T; `derivatives(x, f, t, filtered,
    board)` returns dT by the two filter knobs from T and the filter's whole
    output.  Knob rows follow `knobs`, the config fields.
    """

    name: str
    config_class: type
    preset: str
    filter: Callable
    combiner: Callable
    derivatives: Callable

    @property
    def knobs(self) -> tuple:
        """The config fields, in knob-vector order."""
        return tuple(k.name for k in fields(self.config_class))

    def taps(self, x: np.ndarray, f: np.ndarray, board=None, combine=None):
        """Per-tap responses T (M, K) of the (M, 4) knob matrix x and the
        filter's whole output: the weights w = gain * turn of
        `weight_factors`, shape (M, 1), combined with the filter terms by
        `combine`, the built `combiner(f, board)` (built here if None)."""
        filtered = self.filter(x[:, 2], x[:, 3], f, board)
        gain, turn = weight_factors(x[:, 0], x[:, 1])
        if combine is None:
            combine = self.combiner(f, board)
        return combine((gain * turn)[:, None], filtered[0]), filtered

    def kernel(self, x: np.ndarray, f: np.ndarray, board=None, combine=None) -> np.ndarray:
        """Per-tap responses T (M, K) of the (M, 4) knob matrix x."""
        return self.taps(x, f, board, combine)[0]

    def jacobian(self, x: np.ndarray, f: np.ndarray, board=None, combine=None):
        """T (M, K) and dT/dx (M, 4, K); every tap is A e^{-j phi} times a
        filter, so dT/d(amp_db) = T ln10/20 and dT/d(phase) = -jT."""
        t, filtered = self.taps(x, f, board, combine)
        jac = np.empty((t.shape[0], 4, t.shape[1]), dtype=complex)
        np.multiply(t, np.log(10.0) / 20.0, out=jac[:, 0])
        np.multiply(t, -1j, out=jac[:, 1])
        jac[:, 2], jac[:, 3] = self.derivatives(x, f, t, filtered, board)
        return t, jac

    def vector(self, cfgs) -> np.ndarray:
        """The (M, 4) knob matrix of a list of this model's tap configs."""
        knobs = self.knobs
        rows = []
        for c in cfgs:
            if not isinstance(c, self.config_class):
                raise InvalidArgumentError(
                    f"{type(c).__name__} is not a {self.name!r} tap config"
                )
            rows.append([getattr(c, k) for k in knobs])
        return np.array(rows, dtype=float)

    def configs(self, x) -> list:
        """Tap configs from a knob vector or an (M, 4) knob matrix."""
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        return [self.config_class(*row) for row in x]


TAP_MODELS = {
    "ideal": TapModel(
        "ideal", IdealTapConfig, "rfic", _ideal_filter, _ideal_combiner, _ideal_derivatives,
    ),
    "pcb": TapModel(
        "pcb", PcbTapConfig, "pcb", _pcb_filter, _pcb_combiner, _pcb_derivatives,
    ),
}


def tap_model(name: str) -> TapModel:
    """The registry entry of a model name."""
    if name not in TAP_MODELS:
        raise InvalidArgumentError(f"unknown tap model {name!r}")
    return TAP_MODELS[name]


def tap_model_of(cfg) -> TapModel:
    """The registry entry of a tap config's class."""
    for tm in TAP_MODELS.values():
        if isinstance(cfg, tm.config_class):
            return tm
    raise InvalidArgumentError(f"unsupported config type {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# per-config evaluation


def _positive_points(grid: FrequencyGrid, what: str) -> np.ndarray:
    if np.any(grid.points <= 0):
        raise InvalidArgumentError(f"{what} requires strictly positive frequencies")
    return grid.points


def _check_nonsingular(m_c, f: np.ndarray) -> None:
    """Raise at the first frequency (row-major over taps) where M_C = 0."""
    bad = m_c == 0
    if np.any(bad):
        raise SingularNetworkError(f[np.argmax(bad) % f.size])


def ideal_tap_response(cfg: IdealTapConfig, grid: FrequencyGrid) -> ComplexResponse:
    """Evaluate one ideal tap on the grid.

    At f = center_hz the denominator is exactly 1, so the value is
    linear(amp_db) * e^{-j phase_rad}.
    """
    return multi_tap_response([cfg], grid)


def multi_tap_response(cfgs, grid: FrequencyGrid) -> ComplexResponse:
    """Sum of parallel ideal taps."""
    if not cfgs:
        raise InvalidArgumentError("need at least one tap")
    f = _positive_points(grid, "ideal tap")
    tm = TAP_MODELS["ideal"]
    return ComplexResponse(grid, tm.kernel(tm.vector(cfgs), f).sum(axis=0))


def tline_matrix(beta_l_rad: float, z0_ohm: float) -> TwoPortMatrix:
    """ABCD matrix of a lossless transmission-line section."""
    if not (z0_ohm > 0):
        raise InvalidArgumentError("z0_ohm must be positive")
    a = np.cos(beta_l_rad)
    b = np.sin(beta_l_rad)
    return TwoPortMatrix(a, 1j * z0_ohm * b, 1j * b / z0_ohm, a)


def shunt_matrix(y: complex) -> TwoPortMatrix:
    """ABCD matrix of a shunt admittance element (y scalar or array)."""
    return TwoPortMatrix(1.0, 0.0, y, 1.0)


def shunt_admittance(r_ohm: float, l_h: float, c_f: float, f_hz: float) -> complex:
    """Admittance of a parallel RLC tank: 1/R + j 2 pi C f + 1/(j 2 pi L f)."""
    if not (f_hz > 0):
        raise InvalidArgumentError("f_hz must be positive")
    if not (r_ohm > 0 and l_h > 0 and c_f > 0):
        raise InvalidArgumentError("R, L, C must be positive")
    return _rlc_admittance(r_ohm, l_h, c_f, 2.0 * np.pi * f_hz)


def pcb_bpf_response_abcd(
    cfg: PcbTapConfig, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """PCB BPF response via the five-matrix ABCD cascade.

    Cascade: [shunt Y_Q] [t-line] [shunt Y_F] [t-line] [shunt Y_Q];
    H(f) = 1 / (R_s * C-entry).  This is the ground-truth evaluation; the
    closed form of the PCB kernel must match it.  The cascade is evaluated
    on the whole grid at once, with array-valued matrix entries.
    """
    f = _positive_points(grid, "PCB BPF")
    w = 2.0 * np.pi * f
    y_f = _rlc_admittance(params.r_f_ohm, params.l_f_nh * 1e-9, float(cfg.cf_pf) * 1e-12, w)
    y_q = _rlc_admittance(params.r_q_ohm, params.l_q_nh * 1e-9, float(cfg.cq_pf) * 1e-12, w)
    tl = tline_matrix(params.beta_l_rad, params.z0_ohm)
    m = shunt_matrix(y_q) @ tl @ shunt_matrix(y_f) @ tl @ shunt_matrix(y_q)
    _check_nonsingular(m.c, f)
    return ComplexResponse(grid, 1.0 / (params.r_s_ohm * m.c))


def pcb_bpf_response_closed_form(
    cfg: PcbTapConfig, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """Bare PCB BPF response 1 / (R_s * M_C), with M_C the expanded C-entry
    of the cascade in the PCB kernel; no attenuator, phase shifter or global
    attenuation/delay.  Algebraically identical to `pcb_bpf_response_abcd`.
    """
    f = _positive_points(grid, "PCB BPF")
    x = TAP_MODELS["pcb"].vector([cfg])
    bare, _, _, m_c = _pcb_filter(x[:, 2], x[:, 3], f, params)
    _check_nonsingular(m_c, f)
    return ComplexResponse(grid, bare[0])


def pcb_canceller_response(
    cfgs, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """Full PCB canceller: weighted tap sum under a global attenuation/delay.

    H(f) = lin(A_0) e^{-j 2 pi f tau_0} * sum_i lin(A_i) e^{-j phi_i} H_i(f)
    """
    if not cfgs:
        raise InvalidArgumentError("need at least one tap")
    f = _positive_points(grid, "PCB BPF")
    tm = TAP_MODELS["pcb"]
    taps, (_, _, _, m_c) = tm.taps(tm.vector(cfgs), f, params)
    _check_nonsingular(m_c, f)
    return ComplexResponse(grid, taps.sum(axis=0))
