"""Command-line frontend emitting CSV/JSON plot data.

Commands: model, fit, sweep, network (uldl | tdma), genchannel.
Exit codes: 0 success, 1 usage error, 2 computation failure. Usage errors
include malformed flag values; values out of range (`fit --taps`, `sweep
--taps`, `--restarts` and `--max-iters` below 1, `--bandwidths-mhz` values
that are not positive, a `model --amp-db` whose linear gain underflows to 0,
below about -6466 dB); every value that the object a flag builds rejects: the
tap config of `model` (a NaN or infinite value, `--q` or `--fc` not positive,
`--phase` outside [-pi, pi], an `--amp-db` whose linear gain 10^(dB/20)
overflows, above about 6165 dB), the channel spec of `genchannel`
(`--isolation-db` or an echo amplitude not negative and finite, a negative or
infinite delay), the solver options of `fit` and `sweep` (a negative `--seed`)
and the scenario and schedule of `network` (a negative or NaN `--gamma-self`,
a `--bandwidth-hz` that is not positive and finite, `tdma --users` other than
2 or 3, fewer `--slots` than `--users`); a `--quantize` preset of the other
tap model; `tdma --fd` and `--gammas-db` lists whose length is not `--users`
(`--gammas-db` may also be one value); a dB value of `uldl` or `tdma` that is
NaN or whose linear value overflows (`-inf` dB is a gamma of 0); a `--band` or
`sweep --points` that gives no valid frequency grid (fewer than 2 points, not
increasing, more than 10^7 points); a `start:stop:count` whose start or stop
is not finite or whose count exceeds 10^7; a frequency that is not finite and
positive in any `--band`, in a `sweep` band from `--center-mhz` and
`--bandwidths-mhz` or in a `fit --channel` file; a --channel file that cannot
be read; and an output path (--out, --out-report, --out-csv) whose directory
does not exist or that names a directory. All are checked before any
computation starts. Frequency and `uldl` dB flags accept `start:stop:count`
syntax, count >= 1. Outputs are deterministic given --seed and written
atomically (temp file + rename), with the mode the umask gives a new file. A
`start:stop:count` value that begins with '-' must be attached to its flag
with '=' (`--gamma-iui-db=-5:5:3`), or argparse reads it as an option.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (
    MAX_POINTS, ComplexResponse, FrequencyGrid, amplitude_db, group_delay, unwrapped_phase,
)
from .errors import FdecancError, InvalidArgumentError
from .models import (
    TAP_MODELS,
    IdealTapConfig,
    PcbBoardParams,
    PcbTapConfig,
    ideal_tap_response,
    pcb_bpf_response_closed_form,
    weight_factors,
)
from .network import (
    MultiUserScenario,
    ScheduleSpec,
    UlDlScenario,
    tdma_schedule_eval,
    uldl_surface,
)
from .optimizer import (
    ModelKernel,
    SolveOptions,
    config_vector,
    fit_pipeline,
    greedy_extend,
    quantization_preset,
)
from .sichannel import (
    SynthChannelSpec, atomic_write, load_si_channel, save_si_channel, synth_si_channel,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_positive(grid: FrequencyGrid, what: str) -> None:
    if grid.points[0] <= 0:
        raise UsageError(f"{what}: tap models need positive frequencies")


def _grid(start: float, stop: float, count: int, what: str) -> FrequencyGrid:
    """`FrequencyGrid.linspace`, with a grid it rejects or a frequency that is
    not positive as a usage error."""
    try:
        grid = FrequencyGrid.linspace(start, stop, count)
    except (InvalidArgumentError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from None
    _check_positive(grid, what)
    return grid


def _parse_span(text: str, what: str) -> tuple:
    """A `start:stop:count` value as (start, stop, count), count >= 1 and
    start, stop finite."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{what} must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"malformed {what} spec {text!r}") from None
    if count < 1:
        raise UsageError(f"{what} {text!r}: count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"{what} {text!r}: start and stop must be finite")
    return start, stop, count


def _parse_band(text: str) -> FrequencyGrid:
    return _grid(*_parse_span(text, "band"), f"--band {text!r}")


def _parse_db_range(text: str) -> list:
    """A single dB value or a start:stop:count sweep, as Python floats."""
    if ":" in text:
        start, stop, count = _parse_span(text, "range")
        if count > MAX_POINTS:
            raise UsageError(f"range {text!r}: count exceeds {MAX_POINTS}")
        return np.linspace(start, stop, count).tolist()
    try:
        return [float(text)]
    except ValueError:
        raise UsageError(f"malformed value {text!r}") from None


def _parse_list(text: str, conv, flag: str) -> list:
    """Comma-separated values, each converted by `conv`."""
    try:
        return [conv(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed {flag} value {text!r}") from None


def _fd_flag(tok: str) -> bool:
    """One `--fd` token: 1 full duplex, 0 half duplex."""
    if tok not in ("0", "1"):
        raise ValueError(tok)
    return tok == "1"


def _reflection(tok: str) -> tuple:
    """One `ampdb:delayns` echo as (amp_db, delay_s)."""
    a, d = tok.split(":")
    return float(a), float(d) * 1e-9


def _from_flags(cls, *args, **kwargs):
    """`cls(*args, **kwargs)` of a value object built from flag values; a
    value that the object rejects is a usage error."""
    try:
        return cls(*args, **kwargs)
    except InvalidArgumentError as exc:
        raise UsageError(str(exc)) from None


def _check_at_least_one(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")


def _solver_setup(args) -> tuple:
    """(SolveOptions, `--quantize` spec or None); the preset must be `--model`'s."""
    opts = _from_flags(SolveOptions, args.restarts, args.max_iters, args.seed)
    if args.quantize is None:
        return opts, None
    own = TAP_MODELS[args.model].preset
    if args.quantize != own:
        raise UsageError(
            f"--quantize {args.quantize} is not a preset of --model {args.model} "
            f"(use --quantize {own})"
        )
    return opts, quantization_preset(args.quantize)


def _check_out_paths(args) -> None:
    for flag in ("out", "out_report", "out_csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        if os.path.isdir(path):
            raise UsageError(f"output path {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"directory of output path {path!r} does not exist")


def _db_linear(db: float, flag: str) -> float:
    """10^(db/10) of a Python float; -inf dB gives 0.  A NaN value, or one
    whose linear value is not finite, is a usage error."""
    try:
        lin = 10.0 ** (db / 10.0)
    except OverflowError:
        lin = math.inf
    if not math.isfinite(lin):
        raise UsageError(f"{flag} value {db!r} dB has no finite linear value")
    return lin


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(args) -> int:
    grid = _parse_band(args.band)
    if args.kind == "ideal":
        if args.fc is None:
            raise UsageError("--fc is required for --kind ideal")
        cfg = _from_flags(IdealTapConfig, args.amp_db, args.phase, args.fc, args.q)
    else:
        cfg = _from_flags(PcbTapConfig, args.amp_db, args.phase, args.cf_pf, args.cq_pf)
    # a zero response has no phase to unwrap
    gain, turn = weight_factors(args.amp_db, args.phase)
    if gain == 0.0:
        raise UsageError(f"--amp-db {args.amp_db!r} has a linear gain that underflows to 0")
    if args.kind == "ideal":
        r = ideal_tap_response(cfg, grid)
    else:
        bare = pcb_bpf_response_closed_form(cfg, PcbBoardParams(), grid)
        r = ComplexResponse(grid, gain * turn * bare.values)
    amp = amplitude_db(r)
    ph = unwrapped_phase(r)
    gd = group_delay(r)
    lines = ["freq_hz,amp_db,phase_rad,gd_s"]
    for row in zip(grid.points.tolist(), amp.tolist(), ph.tolist(), gd.tolist()):
        lines.append("%.17g,%.17g,%.17g,%.17g" % row)
    atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def _load_or_synth(args):
    if args.channel is not None:
        try:
            h_si = load_si_channel(args.channel)
        except OSError as exc:
            raise UsageError(
                f"cannot read --channel {args.channel!r}: {exc.strerror or exc}"
            ) from None
        _check_positive(h_si.grid, f"--channel {args.channel!r}")
        return h_si
    if not args.synth:
        raise UsageError("provide --channel FILE or --synth")
    if args.band is None:
        raise UsageError("--band is required with --synth")
    grid = _parse_band(args.band)
    return synth_si_channel(SynthChannelSpec(), grid)


def cmd_fit(args) -> int:
    _check_at_least_one(args, "taps")
    opts, spec = _solver_setup(args)
    h_si = _load_or_synth(args)
    cont, quant = fit_pipeline(args.model, h_si, args.taps, opts, spec)
    rep = quant if quant is not None else cont
    report = rep.to_dict()
    report["model"] = args.model
    report["seed"] = args.seed
    if quant is not None:
        report["continuous_objective"] = cont.objective
        report["continuous_avg_sic_db"] = cont.avg_sic_db
    atomic_write(args.out_report, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.out_csv:
        sic = ModelKernel(args.model, h_si).sic(config_vector(rep.config)).per_point_db
        lines = ["freq_hz,sic_db"]
        for row in zip(h_si.grid.points.tolist(), sic.tolist()):
            lines.append("%.17g,%.17g" % row)
        atomic_write(args.out_csv, "\n".join(lines) + "\n")
    if rep.avg_sic_db < args.min_sic_db:
        print(
            f"average SIC {rep.avg_sic_db:.3f} dB below threshold {args.min_sic_db} dB",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_sweep(args) -> int:
    taps_list = _parse_list(args.taps, int, "--taps")
    bw_list = _parse_list(args.bandwidths_mhz, float, "--bandwidths-mhz")
    if min(taps_list) < 1 or not all(bw > 0 for bw in bw_list):
        raise UsageError("--taps values must be >= 1 and --bandwidths-mhz values > 0")
    opts, spec = _solver_setup(args)
    center = args.center_mhz * 1e6
    bws = [bw_mhz * 1e6 for bw_mhz in bw_list]
    grids = [
        _grid(center - bw / 2, center + bw / 2, args.points,
              f"--center-mhz {args.center_mhz:g} with bandwidth {bw / 1e6:g} MHz "
              f"and --points {args.points}")
        for bw in bws
    ]
    lines = ["taps,bandwidth_hz,mode,avg_sic_db,avg_sic_pow_db"]

    def pow_db(rep, k):
        return -10.0 * np.log10(rep.objective / k) if rep.objective > 0 else float("inf")

    for bw, grid in zip(bws, grids):
        h_si = synth_si_channel(SynthChannelSpec(), grid)
        prev = None  # (num_taps, config) for warm-starting larger solves
        for m in taps_list:
            inits = None
            if prev is not None and m > prev[0]:
                inits = [greedy_extend(args.model, h_si, prev[1], m, seed=args.seed)]
            cont, quant = fit_pipeline(
                args.model, h_si, m, opts, spec, init_configs=inits
            )
            prev = (m, cont.config)
            lines.append(
                "%d,%.17g,continuous,%.17g,%.17g"
                % (m, bw, cont.avg_sic_db, pow_db(cont, args.points))
            )
            if quant is not None:
                lines.append(
                    "%d,%.17g,quantized,%.17g,%.17g"
                    % (m, bw, quant.avg_sic_db, pow_db(quant, args.points))
                )
    atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_network_uldl(args) -> int:
    axes = []  # (dB values, linear gammas) of ul, dl, iui
    for flag in ("gamma_ul_db", "gamma_dl_db", "gamma_iui_db"):
        db = _parse_db_range(getattr(args, flag))
        axes.append((db, [_db_linear(x, "--" + flag.replace("_", "-")) for x in db]))
    # the dB ranges give nonnegative linear gammas; check the scalar flags
    _from_flags(UlDlScenario, 0.0, 0.0, 0.0, args.gamma_self, args.bandwidth_hz)
    hd, fd, gain = uldl_surface(*(lin for _, lin in axes), args.gamma_self, args.bandwidth_hz)
    ul, dl, iui = (["%.17g" % x for x in db] for db, _ in axes)
    lines = ["gamma_ul_db,gamma_dl_db,gamma_iui_db,hd_bps,fd_bps,gain"]
    for u, hd_u, fd_u, gain_u in zip(ul, hd, fd, gain):
        for d, h, fd_ud, gain_ud in zip(dl, hd_u, fd_u, gain_u):
            pair, hd_text = "%s,%s," % (u, d), ",%.17g," % h
            for q, f, g in zip(iui, fd_ud, gain_ud):
                lines.append("%s%s%s%.17g,%.17g" % (pair, q, hd_text, f, g))
    atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_network_tdma(args) -> int:
    _check_at_least_one(args, "users")
    n = args.users
    gammas = [_db_linear(g, "--gammas-db")
              for g in _parse_list(args.gammas_db, float, "--gammas-db")]
    if len(gammas) == 1:
        gammas = gammas * n
    if args.fd is None:
        fd = [True] + [False] * (n - 1)
    else:
        fd = _parse_list(args.fd, _fd_flag, "--fd")
    for flag, values in (("--gammas-db", gammas), ("--fd", fd)):
        if len(values) != n:
            raise UsageError(f"{flag} has {len(values)} values for --users {n}")
    iui_lin = _db_linear(args.iui_db, "--iui-db")
    iui = tuple(
        tuple(0.0 if i == j else iui_lin for j in range(n)) for i in range(n)
    )
    slots = args.slots if args.slots is not None else n
    s = _from_flags(MultiUserScenario, tuple(gammas), tuple(fd), args.gamma_self,
                    args.bandwidth_hz)
    sched = _from_flags(ScheduleSpec, args.schedule, slots, iui)
    if sched.slots < n:
        raise UsageError(f"--slots {sched.slots} gives fewer than one slot per user")
    res = tdma_schedule_eval(s, sched)
    lines = ["scenario_id,case,total_bps,jfi,gain"]
    lines.append("0,%s,%.17g,%.17g,%.17g"
                 % (args.schedule, res["total"], res["jfi"], res["gain"]))
    for i, r in enumerate(res["per_user"]):
        lines.append("0,user%d,%.17g,," % (i, r))
    atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_genchannel(args) -> int:
    grid = _parse_band(args.band)
    if args.no_reflections:
        refl = ()
    elif args.reflections is not None:
        refl = tuple(_parse_list(args.reflections, _reflection, "--reflections"))
    else:
        refl = SynthChannelSpec().reflections
    spec = _from_flags(SynthChannelSpec, args.isolation_db, args.base_delay_ns * 1e-9, refl)
    save_si_channel(args.out, synth_si_channel(spec, grid))
    return 0


# ---------------------------------------------------------------------------
# parser


_RANGE_HELP = (
    "dB value or start:stop:count sweep; attach a sweep that begins with '-' "
    "with '=', as in --gamma-ul-db=-5:5:3"
)


def build_parser() -> _Parser:
    p = _Parser(prog="fdecanc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    solver_flags = argparse.ArgumentParser(add_help=False)  # of `fit` and `sweep`
    solver_flags.add_argument("--model", choices=list(TAP_MODELS), default="ideal")
    solver_flags.add_argument("--seed", type=int, default=0)
    solver_flags.add_argument("--restarts", type=int, default=16)
    solver_flags.add_argument("--max-iters", type=int, default=500)
    presets = {tm.preset: tm.name for tm in TAP_MODELS.values()}
    owners = " or ".join(f"{preset} ({model})" for preset, model in presets.items())
    solver_flags.add_argument("--quantize", choices=list(presets),
                              help=f"lattice preset of --model: {owners}")

    pm = sub.add_parser("model", help="evaluate one tap's transfer function")
    pm.add_argument("--kind", choices=list(TAP_MODELS), required=True)
    pm.add_argument("--amp-db", type=float, default=0.0)
    pm.add_argument("--phase", type=float, default=0.0)
    pm.add_argument("--fc", type=float, default=None)
    pm.add_argument("--q", type=float, default=10.0)
    pm.add_argument("--cf-pf", type=float, default=1.5)
    pm.add_argument("--cq-pf", type=float, default=8.0)
    pm.add_argument("--band", required=True)
    pm.add_argument("--out", default="model.csv")
    pm.set_defaults(func=cmd_model)

    pf = sub.add_parser(
        "fit", parents=[solver_flags], help="optimize a canceller against an SI channel"
    )
    pf.add_argument("--channel", default=None)
    pf.add_argument("--synth", action="store_true")
    pf.add_argument("--band", default=None)
    pf.add_argument("--taps", type=int, default=2)
    pf.add_argument("--min-sic-db", type=float, default=0.0)
    pf.add_argument("--out-report", default="report.json")
    pf.add_argument("--out-csv", default=None)
    pf.set_defaults(func=cmd_fit)

    ps = sub.add_parser(
        "sweep", parents=[solver_flags], help="avg SIC over (taps, bandwidth) grid"
    )
    ps.add_argument("--taps", default="1,2,3,4")
    ps.add_argument("--bandwidths-mhz", default="20,40,80")
    ps.add_argument("--center-mhz", type=float, default=900.0)
    ps.add_argument("--points", type=int, default=101)
    ps.add_argument("--out", default="sweep.csv")
    ps.set_defaults(func=cmd_sweep)

    pn = sub.add_parser("network", help="throughput-gain analysis")
    nsub = pn.add_subparsers(dest="netcmd", required=True)

    pu = nsub.add_parser("uldl", help="UL-DL gain surface")
    pu.add_argument("--gamma-ul-db", required=True, help=_RANGE_HELP)
    pu.add_argument("--gamma-dl-db", required=True, help=_RANGE_HELP)
    pu.add_argument("--gamma-iui-db", default="0", help=_RANGE_HELP)
    pu.add_argument("--gamma-self", type=float, default=1.0)
    pu.add_argument("--bandwidth-hz", type=float, default=1.0)
    pu.add_argument("--out", default="uldl.csv")
    pu.set_defaults(func=cmd_network_uldl)

    pt = nsub.add_parser("tdma", help="slot-level schedule evaluation")
    pt.add_argument("--users", type=int, default=3)
    pt.add_argument("--schedule", choices=["rro", "iuif"], required=True)
    pt.add_argument("--gammas-db", default="10")
    pt.add_argument("--fd", default=None, help="comma list of 0/1 flags")
    pt.add_argument("--gamma-self", type=float, default=1.0)
    pt.add_argument("--iui-db", type=float, default=0.0)
    pt.add_argument("--slots", type=int, default=None)
    pt.add_argument("--bandwidth-hz", type=float, default=1.0)
    pt.add_argument("--out", default="tdma.csv")
    pt.set_defaults(func=cmd_network_tdma)

    pg = sub.add_parser("genchannel", help="write a synthetic SI-channel CSV")
    pg.add_argument("--band", required=True)
    pg.add_argument("--isolation-db", type=float, default=-20.0)
    pg.add_argument("--base-delay-ns", type=float, default=10.0)
    pg.add_argument(
        "--reflections", default=None,
        help="ampdb:delayns,... (a list that begins with '-' needs '=': "
        "--reflections=-10:20,-16:45)",
    )
    pg.add_argument("--no-reflections", action="store_true")
    pg.add_argument("--out", default="channel.csv")
    pg.set_defaults(func=cmd_genchannel)

    return p


_parser = None  # built on the first `main` call; parsing does not change it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        _check_out_paths(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FdecancError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
