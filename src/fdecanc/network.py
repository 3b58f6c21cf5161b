"""Analytical full-duplex throughput gains and TDMA schedule evaluation.

All rates are Shannon capacities; gamma values are linear (not dB) ratios.
gamma_self is the residual self-interference-to-noise ratio (XINR) an FD link
sees after cancellation, and defaults to 1 everywhere (a 3 dB effective-SNR
loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, UndefinedGainError


def shannon_rate(gamma: float, b_hz: float) -> float:
    """r = B * log2(1 + gamma), bits per second."""
    if not (gamma >= 0):
        raise InvalidArgumentError("gamma must be nonnegative")
    _check_bandwidth(b_hz)
    return b_hz * math.log2(1.0 + gamma)


def _check_nonnegative(name: str, values) -> None:
    """Reject a negative or NaN gamma."""
    for x in values:
        if not (x >= 0):
            raise InvalidArgumentError(f"{name} must be nonnegative")


def _check_bandwidth(b_hz: float) -> None:
    if not (0 < b_hz < math.inf):
        raise InvalidArgumentError("bandwidth_hz must be positive and finite")


@dataclass(frozen=True)
class UlDlScenario:
    """One UL user and one DL user served by a (possibly FD) base station."""

    gamma_ul: float
    gamma_dl: float
    gamma_iui: float = 0.0
    gamma_self: float = 1.0
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        for name in ("gamma_ul", "gamma_dl", "gamma_iui", "gamma_self"):
            _check_nonnegative(name, (getattr(self, name),))
        _check_bandwidth(self.bandwidth_hz)


# cells of the surface one block of (ul, dl) pairs holds, at least one pair's
_BLOCK_CELLS = 1 << 12


def uldl_blocks(gammas_ul, gammas_dl, gammas_iui, gamma_self=1.0, bandwidth_hz=1.0):
    """HD TDMA rate, FD simultaneous rate and their ratio over a UL x DL x IUI
    grid of linear gammas, a block of (ul, dl) pairs at a time.

    hd = (B/2) log2(1+g_ul) + (B/2) log2(1+g_dl)
    fd = B log2(1 + g_ul/(1+g_self)) + B log2(1 + g_dl/(1+g_iui))

    Checks the grid and computes each rate term, which depends on one axis or
    on (dl, iui), once, by :func:`shannon_rate`; a zero hd anywhere raises
    UndefinedGainError here.  Returns an iterator over blocks, in row-major
    (ul, dl) order, of about 4096 cells and at least one pair: (i, j, hd, fd,
    gain) with i and j the ul and dl indices of the block's pairs, hd[p] the
    rate of pair p, and fd[p][k], gain[p][k] those of that pair and
    gammas_iui[k].  A cell adds the same terms in the same order as a
    one-cell grid, so it is bitwise that grid's.
    """
    for name, values in (("gamma_ul", gammas_ul), ("gamma_dl", gammas_dl),
                         ("gamma_iui", gammas_iui), ("gamma_self", (gamma_self,))):
        _check_nonnegative(name, values)
    _check_bandwidth(bandwidth_hz)
    b = bandwidth_hz
    half_ul = 0.5 * np.array([shannon_rate(g, b) for g in gammas_ul])
    half_dl = 0.5 * np.array([shannon_rate(g, b) for g in gammas_dl])
    # a sum of two nonnegative halves is zero only where both are
    if (half_ul == 0).any() and (half_dl == 0).any():
        raise UndefinedGainError("half-duplex baseline rate is zero")
    r_ul_fd = np.array([shannon_rate(g / (1.0 + gamma_self), b) for g in gammas_ul])
    n_dl, n_iui = len(gammas_dl), len(gammas_iui)
    r_dl_fd = np.fromiter(
        (shannon_rate(g / (1.0 + q), b) for g in gammas_dl for q in gammas_iui),
        float, count=n_dl * n_iui,
    ).reshape(n_dl, n_iui)
    pairs, step = half_ul.size * n_dl, max(1, _BLOCK_CELLS // max(n_iui, 1))

    def block(start):
        i, j = np.divmod(np.arange(start, min(start + step, pairs)), n_dl)
        # a rate of inf (an infinite gamma) gives an inf or NaN cell, as floats do
        with np.errstate(all="ignore"):
            hd = half_ul[i] + half_dl[j]
            fd = r_ul_fd[i][:, None] + r_dl_fd[j]
            return i, j, hd, fd, fd / hd[:, None]

    return map(block, range(0, pairs, step))


def uldl_surface(gammas_ul, gammas_dl, gammas_iui, gamma_self=1.0, bandwidth_hz=1.0):
    """:func:`uldl_blocks` as nested lists: (hd, fd, gain) with hd[i][j] of
    (gammas_ul[i], gammas_dl[j]) and fd[i][j][k], gain[i][j][k] of that pair
    and gammas_iui[k]."""
    blocks = uldl_blocks(gammas_ul, gammas_dl, gammas_iui, gamma_self, bandwidth_hz)
    shape = (len(gammas_ul), len(gammas_dl))
    hd = np.empty(shape)
    fd, gain = np.empty(shape + (len(gammas_iui),)), np.empty(shape + (len(gammas_iui),))
    for i, j, hd_b, fd_b, gain_b in blocks:
        hd[i, j], fd[i, j], gain[i, j] = hd_b, fd_b, gain_b
    return hd.tolist(), fd.tolist(), gain.tolist()


def uldl_throughputs(s: UlDlScenario):
    """HD TDMA rate, FD simultaneous rate, and their ratio: the one-cell
    :func:`uldl_surface`."""
    hd, fd, gain = uldl_surface(
        (s.gamma_ul,), (s.gamma_dl,), (s.gamma_iui,), s.gamma_self, s.bandwidth_hz
    )
    return hd[0][0], fd[0][0][0], gain[0][0][0]


@dataclass(frozen=True)
class MultiUserScenario:
    """2-3 users with symmetric UL/DL SNRs and per-user FD capability."""

    gammas: tuple
    fd_capable: tuple
    gamma_self: float = 1.0
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        g = tuple(float(x) for x in self.gammas)
        c = tuple(bool(x) for x in self.fd_capable)
        if len(g) not in (2, 3):
            raise InvalidArgumentError("scenario supports 2 or 3 users")
        if len(c) != len(g):
            raise InvalidArgumentError("fd_capable length must match gammas")
        _check_nonnegative("gammas", g)
        _check_nonnegative("gamma_self", (self.gamma_self,))
        _check_bandwidth(self.bandwidth_hz)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "fd_capable", c)

    @property
    def n_users(self) -> int:
        return len(self.gammas)


def _fd_snr(gamma, gamma_self):
    return gamma / (1.0 + gamma_self)


def jain_fairness(throughputs) -> float:
    """(sum x)^2 / (n * sum x^2); 1 at perfect equity, 1/n at worst."""
    x = np.asarray(list(throughputs), dtype=float)
    if x.size == 0 or np.any(x < 0):
        raise InvalidArgumentError("throughputs must be a nonempty nonnegative list")
    ssq = float(np.sum(x * x))
    if ssq == 0:
        raise UndefinedGainError("all-zero throughputs have no fairness index")
    return float(np.sum(x)) ** 2 / (x.size * ssq)


@dataclass(frozen=True)
class ScheduleSpec:
    """Slot-level TDMA schedule: round-robin opportunistic or IUI-free."""

    kind: str
    slots: int
    iui_matrix: tuple = ()

    def __post_init__(self):
        if self.kind not in ("rro", "iuif"):
            raise InvalidArgumentError("kind must be 'rro' or 'iuif'")
        if self.slots < 1:
            raise InvalidArgumentError("slots must be >= 1")
        m = tuple(tuple(float(v) for v in row) for row in self.iui_matrix)
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v < 0:
                    raise InvalidArgumentError("iui_matrix must be nonnegative")
                if i == j and v != 0:
                    raise InvalidArgumentError("iui_matrix diagonal must be zero")
        object.__setattr__(self, "iui_matrix", m)

    def iui(self, tx: int, rx: int) -> float:
        if not self.iui_matrix:
            return 0.0
        return self.iui_matrix[tx][rx]


# terms np.add.accumulate sums at a time: the memory of a sum is bounded
_SUM_CHUNK = 1 << 15


def _sum_in_order(cycle, count) -> float:
    """0.0 + x_1 + ... + x_count, added left to right, of the sequence that
    repeats `cycle`: bitwise the loop that adds one term at a time.  Each
    chunk of whole cycles is accumulated behind the running sum so far."""
    reps = min(max(1, _SUM_CHUNK // len(cycle)), -(-count // len(cycle)))
    terms = np.empty(1 + reps * len(cycle))
    terms[1:] = np.tile(cycle, reps)
    sums = np.empty_like(terms)
    total = 0.0
    for start in range(0, count, terms.size - 1):
        stop = min(terms.size, count - start + 1)
        terms[0] = total
        total = np.add.accumulate(terms[:stop], out=sums[:stop])[-1]
    return float(total)


def tdma_schedule_eval(s: MultiUserScenario, sched: ScheduleSpec) -> dict:
    """Slot-level evaluation of RRO and IUI-F schedules.

    Slot t makes user u = t mod n the primary transmitter.  Each user's
    rates are summed in slot order, bitwise the loop that adds one slot at a
    time, by a chunked accumulate.

    RRO: an FD-capable primary runs a duplex slot (UL and its own DL, both at
    gamma_u/(1+gamma_self)).  An HD primary sends UL while the base station
    concurrently serves DL to the next user v = (u+1) mod n, whose receiver
    sees IUI from u: DL SINR = gamma_v / (1 + iui[u][v]).  The HD primary's
    UL still faces the base station's own transmission, so its SINR is
    gamma_u/(1+gamma_self).

    IUI-F: concurrency only when it is IUI-free, i.e. the duplex slot of an
    FD primary.  An HD primary gets a solo slot at full SNR (UL and DL
    alternate across its slots; rates are identical under symmetric SNR).

    Returns per-user rates, their total, the gain of that total over the
    half-duplex baseline sum_u shannon_rate(gamma_u, B)/n (NaN when the
    baseline is zero) and Jain's index of the per-user rates (NaN when the
    total is zero).  This is the one evaluator of per-user rates:
    :func:`multi_user_throughputs` and :func:`three_node_throughputs` build
    on it.
    """
    if sched.slots < s.n_users:
        raise InvalidArgumentError("need at least one slot per user")
    if sched.iui_matrix and len(sched.iui_matrix) != s.n_users:
        raise InvalidArgumentError("iui_matrix size must match user count")
    n = s.n_users
    b = s.bandwidth_hz
    alone = [shannon_rate(g, b) for g in s.gammas]  # each user alone at full SNR
    # what a slot with primary u adds, as (user, rate) in the order added
    adds = []
    for u, g in enumerate(s.gammas):
        if s.fd_capable[u]:
            adds.append(((u, 2.0 * shannon_rate(_fd_snr(g, s.gamma_self), b)),))
        elif sched.kind == "rro":
            v = (u + 1) % n
            adds.append((
                (u, shannon_rate(_fd_snr(g, s.gamma_self), b)),
                (v, shannon_rate(s.gammas[v] / (1.0 + sched.iui(u, v)), b)),
            ))
        else:
            adds.append(((u, alone[u]),))
    # repeated addition is not k * rate: sum each user's rates in slot order
    cycles, rest = divmod(sched.slots, n)
    per_user = []
    for w in range(n):
        # w's rates in the order one cycle of n slots adds them, and how many
        # the last `rest` slots add
        cycle = [rate for u in range(n) for v, rate in adds[u] if v == w]
        tail = sum(v == w for u in range(rest) for v, _ in adds[u])
        per_user.append(_sum_in_order(cycle, cycles * len(cycle) + tail) / sched.slots)
    total = sum(per_user)
    baseline = sum(r / n for r in alone)
    return {
        "per_user": per_user,
        "total": total,
        "gain": total / baseline if baseline > 0 else math.nan,
        "jfi": jain_fairness(per_user) if total > 0 else math.nan,
    }


def multi_user_throughputs(s: MultiUserScenario) -> dict:
    """n-user generalization: the IUI-F schedule with one slot per user.

    Each user gets a 1/n time share; an FD user transmits and receives
    throughout its share at gamma/(1+gamma_self), doubling its per-share
    rate.  A zero half-duplex baseline raises UndefinedGainError.
    """
    res = tdma_schedule_eval(s, ScheduleSpec("iuif", s.n_users))
    if math.isnan(res["gain"]):
        raise UndefinedGainError("half-duplex baseline rate is zero")
    return res


_THREE_NODE_CASES = {
    "hd": (False, False), "fd1": (True, False), "fd2": (False, True), "fd": (True, True),
}


def three_node_throughputs(s: MultiUserScenario) -> dict:
    """Rates and gains for a 2-user cell by FD-capability case.

    Cases: "hd" (no FD), "fd1"/"fd2" (only that user FD), "fd" (both FD).
    Each case's rate is the :func:`multi_user_throughputs` total of `s` with
    that capability, and its gain is relative to "hd".
    """
    if s.n_users != 2:
        raise InvalidArgumentError("three_node_throughputs requires 2 users")
    res = {case: multi_user_throughputs(replace(s, fd_capable=caps))
           for case, caps in _THREE_NODE_CASES.items()}
    return {"rates": {case: r["total"] for case, r in res.items()},
            "gains": {case: r["gain"] for case, r in res.items()}}
