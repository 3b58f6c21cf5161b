"""The benchmark's workloads: seeded inputs, the timed op and its output check.

Each workload is a single client in a single process that waits for each call
before making the next (a closed loop).  Every input comes from the benchmark
seed through numpy's SeedSequence; the library receives only the generated
values.  ``SynthChannelSpec.seed`` has no effect on synthesis, so channels
differ by their isolation, bulk delay and echoes, never by that field.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from fdecanc import cli, metrics, models, optimizer, sichannel
from fdecanc.core import ComplexResponse, FrequencyGrid

CENTER_HZ = 900e6
BANDWIDTHS_HZ = (20e6, 40e6, 80e6)
POOL = 32  # distinct inputs per workload; ops past the pool reuse them


@dataclass(frozen=True)
class Size:
    points: int  # fit and lattice grid points
    restarts: int
    max_iters: int
    oracle_points: int
    ls_rounds: int
    cli_points: int
    cli_variants: int
    uldl: tuple  # (ul, dl, iui) counts of the surface
    tdma_slots: int


FULL = Size(101, 4, 500, 6, 50, 1001, 8, (31, 31, 5), 3000)
TINY = Size(11, 1, 5, 2, 2, 21, 1, (3, 3, 2), 30)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def channel_spec(rng):
    """The package's default synthetic channel (isolation -20 dB, bulk delay
    10 ns, echoes of -10 dB at 20 ns and -16 dB at 45 ns) with each value
    jittered by a few percent.  Wider ranges move the reached SIC by tens of
    dB between channels, so a run's mean would depend on which channels the
    seed drew more than on the code."""
    return sichannel.SynthChannelSpec(
        isolation_db=float(rng.uniform(-21.0, -19.0)),
        base_delay_s=float(rng.uniform(9e-9, 11e-9)),
        reflections=(
            (float(rng.uniform(-11.0, -9.0)), float(rng.uniform(19e-9, 21e-9))),
            (float(rng.uniform(-17.0, -15.0)), float(rng.uniform(43e-9, 47e-9))),
        ),
    )


def band(bandwidth_hz, points):
    return FrequencyGrid.linspace(
        CENTER_HZ - bandwidth_hz / 2, CENTER_HZ + bandwidth_hz / 2, points
    )


def channel(rng, bandwidth_hz, points):
    return sichannel.synth_si_channel(channel_spec(rng), band(bandwidth_hz, points))


def residual_db(objective, points):
    """A final objective as mean residual power per point, in dB below unit
    gain; positive for every canceller this benchmark fits."""
    return -10.0 * math.log10(objective / points)


def cli_output_paths(argv):
    """The files a ``fdecanc.cli.main`` argv writes."""
    return [value for flag, value in zip(argv, argv[1:])
            if flag in ("--out", "--out-report", "--out-csv")]


def _canceller(model, cfgs, grid):
    if model == "ideal":
        return models.multi_tap_response(cfgs, grid)
    return models.pcb_canceller_response(cfgs, models.PcbBoardParams(), grid)


def _check_report(problems, what, model, h_si, rep, rel=1e-9):
    if not (math.isfinite(rep.objective) and math.isfinite(rep.avg_sic_db)):
        problems.append(f"{what}: non-finite objective or SIC")
        return
    ref = optimizer.residual_objective(h_si, _canceller(model, rep.config, h_si.grid))
    if not math.isclose(ref, rep.objective, rel_tol=rel):
        problems.append(f"{what}: objective {rep.objective!r} != recomputed {ref!r}")


def _check_on_lattice(problems, what, cfgs, spec):
    x = optimizer.config_vector(cfgs)
    for j, knob in enumerate(spec.knobs()):
        if not np.all(np.isin(x[:, j], knob.values())):
            problems.append(f"{what}: knob {j} off the lattice")


def _random_configs(rng, model, spec, taps):
    lo, hi = spec.bounds().lows(), spec.bounds().highs()
    cls = models.IdealTapConfig if model == "ideal" else models.PcbTapConfig
    return [cls(*map(float, row)) for row in rng.uniform(lo, hi, size=(taps, 4))]


class Workload:
    """A seeded op sequence.  Subclasses define ``setup()`` (input
    generation), ``op(i)`` (the timed call), ``kind(i)`` and ``check(i, out)``
    (a list of problems, read outside the timed region)."""

    cycle = 1  # ops per cycle; runs end on a cycle boundary
    quality_ops = 12  # the first ops of a run; their quality is reported

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def run_quality(self, per_op):
        """The (sic_db, residual_db) pairs a run reports, from ``quality(i,
        out)`` of its first ``quality_ops`` ops.  They depend only on the seed."""
        return per_op

    def final_checks(self):
        return []

    def params(self):
        return {}


class FitWorkload(Workload):
    """fit_pipeline on fresh channels: 101 points, 4 restarts, max_iters 500.
    A cycle is ideal+rfic with 2 taps, the same channel with 4 taps warm-started
    by greedy_extend from that 2-tap fit (as ``fdecanc sweep`` does),
    ideal continuous-only with 2 taps, and pcb+pcb with 2 taps."""

    KINDS = ("ideal_rfic_2", "ideal_rfic_4", "ideal_cont_2", "pcb_pcb_2")
    cycle = 4

    def setup(self):
        rng = _rng(self.seed, 1)
        self.rfic = optimizer.quantization_preset("rfic")
        self.pcb = optimizer.quantization_preset("pcb")
        self.inputs = []
        for j in range(POOL):
            bw = BANDWIDTHS_HZ[j % len(BANDWIDTHS_HZ)]
            chans = [channel(rng, bw, self.size.points) for _ in range(3)]
            # Solver seeds follow the op, not the benchmark seed: the same
            # restart points for every channel keep the SIC of a run steady.
            self.inputs.append((chans, (j, POOL + j)))
        self.two_tap = {}

    def kind(self, i):
        return self.KINDS[i % 4]

    def op(self, i):
        j, k = divmod(i, 4)
        (a, b, c), (solve_seed, extend_seed) = self.inputs[j % POOL]
        opts = optimizer.SolveOptions(
            restarts=self.size.restarts, max_iters=self.size.max_iters, seed=solve_seed
        )
        if k == 0:
            cont, quant = optimizer.fit_pipeline("ideal", a, 2, opts, self.rfic)
            self.two_tap[j] = cont.config
            return "ideal", a, cont, quant
        if k == 1:
            init = optimizer.greedy_extend(
                "ideal", a, self.two_tap[j], 4, self.rfic.bounds(), seed=extend_seed
            )
            cont, quant = optimizer.fit_pipeline(
                "ideal", a, 4, opts, self.rfic, init_configs=[init]
            )
            return "ideal", a, cont, quant
        if k == 2:
            cont, quant = optimizer.fit_pipeline("ideal", b, 2, opts, None)
            return "ideal", b, cont, quant
        cont, quant = optimizer.fit_pipeline("pcb", c, 2, opts, self.pcb)
        return "pcb", c, cont, quant

    def check(self, i, out):
        model, h_si, cont, quant = out
        problems = []
        _check_report(problems, "continuous", model, h_si, cont)
        if quant is not None:
            _check_report(problems, "quantized", model, h_si, quant)
            _check_on_lattice(problems, "quantized", quant.config,
                              self.rfic if model == "ideal" else self.pcb)
            if quant.objective < cont.objective:
                problems.append("quantized objective below the continuous one")
        return problems

    def quality(self, i, out):
        _, h_si, cont, quant = out
        rep = quant if quant is not None else cont
        return rep.avg_sic_db, residual_db(rep.objective, h_si.grid.count)

    def params(self):
        return {"restarts": self.size.restarts, "max_iters": self.size.max_iters,
                "points": self.size.points}


class LatticeWorkload(Workload):
    """grid_search_oracle with 2 taps on a 6-point sublattice, local_search of
    its answer on the full lattice, then quantize_config and local_search
    (max_rounds=50) from a seeded random 4-tap start; ideal/rfic and pcb/pcb
    alternate."""

    cycle = 2

    def setup(self):
        rng = _rng(self.seed, 2)
        self.inputs = []
        for i in range(POOL):
            model, preset = (("ideal", "rfic"), ("pcb", "pcb"))[i % 2]
            spec = optimizer.quantization_preset(preset)
            h_si = channel(rng, BANDWIDTHS_HZ[i % len(BANDWIDTHS_HZ)], self.size.points)
            self.inputs.append((model, spec, h_si, _random_configs(rng, model, spec, 4)))

    def kind(self, i):
        return self.inputs[i % POOL][0]

    def op(self, i):
        model, spec, h_si, start = self.inputs[i % POOL]
        oracle = optimizer.grid_search_oracle(model, h_si, spec, self.size.oracle_points, 2)
        refined = optimizer.local_search(oracle.config, model, h_si, spec)
        snapped = optimizer.quantize_config(start, spec)
        final = optimizer.local_search(
            snapped, model, h_si, spec, max_rounds=self.size.ls_rounds
        )
        return model, spec, h_si, oracle, refined, final

    def check(self, i, out):
        model, spec, h_si, oracle, refined, final = out
        problems = []
        for what, rep in (("oracle", oracle), ("refined", refined), ("final", final)):
            _check_report(problems, what, model, h_si, rep)
            _check_on_lattice(problems, what, rep.config, spec)
        # The oracle sums the two tap responses in another order than the
        # kernel, so an unchanged answer can differ in the last bits.
        if refined.objective > oracle.objective * (1 + 1e-9):
            problems.append("local search worsened the oracle's answer")
        if final.objective > final.trace[0]:
            problems.append("local search worsened its start")
        return problems

    def quality(self, i, out):
        final = out[-1]
        return final.avg_sic_db, residual_db(final.objective, out[2].grid.count)

    def params(self):
        return {"oracle_points_per_knob": self.size.oracle_points, "oracle_taps": 2,
                "max_rounds": self.size.ls_rounds, "points": self.size.points}


class CliWorkload(Workload):
    """In-process ``fdecanc.cli.main`` calls and the per-config models API.
    A cycle runs the eight op kinds for each of the seeded variants; every
    written file must be byte-identical to the same op's set-up output."""

    KINDS = ("model_ideal", "model_pcb", "genchannel", "fit",
             "uldl", "tdma_rro", "tdma_iuif", "library")
    quality_ops = 0  # the run's quality comes from the fit reports it wrote

    def setup(self):
        size = self.size
        self.cycle = len(self.KINDS) * size.cli_variants
        rng = _rng(self.seed, 3)
        span = f"850e6:950e6:{size.cli_points}"
        self.grid = FrequencyGrid.linspace(850e6, 950e6, size.cli_points)
        ul, dl, iui = size.uldl
        self.variants = []
        for v in range(size.cli_variants):
            def path(name, v=v):
                return os.path.join(self.workdir, f"{name}-{v}.{'json' if name == 'report' else 'csv'}")

            def g(lo, hi):
                return repr(float(rng.uniform(lo, hi)))

            drawn = channel_spec(rng)
            refl = ",".join(f"{a!r}:{d * 1e9!r}" for a, d in drawn.reflections)
            gammas = ",".join(g(0.0, 25.0) for _ in range(3))
            fd_flags = ",".join(str(int(b)) for b in rng.integers(0, 2, size=3))
            slots = str(int(rng.integers(size.tdma_slots * 9 // 10, size.tdma_slots * 11 // 10 + 1)))
            cfg_rng = _rng(self.seed, 100 + v)
            argvs = {
                "model_ideal": ["model", "--kind", "ideal", "--amp-db", g(-30, -5),
                                "--phase", g(-3.1, 3.1), "--fc", g(880e6, 920e6),
                                "--q", g(2, 30), "--band", span, "--out", path("ideal")],
                "model_pcb": ["model", "--kind", "pcb", "--amp-db", g(-15, 0),
                              "--phase", g(-3.1, 3.1), "--cf-pf", g(0.8, 2.2),
                              "--cq-pf", g(3, 12), "--band", span, "--out", path("pcb")],
                "genchannel": ["genchannel", "--band", span,
                               "--isolation-db", repr(drawn.isolation_db),
                               "--base-delay-ns", repr(drawn.base_delay_s * 1e9),
                               f"--reflections={refl}", "--out", path("channel")],
                "fit": ["fit", "--channel", path("channel"), "--taps", "1",
                        "--restarts", "1", "--max-iters", "2",
                        "--seed", str(v),
                        "--out-report", path("report"), "--out-csv", path("sic")],
                "uldl": ["network", "uldl", "--gamma-ul-db", f"0:30:{ul}",
                         f"--gamma-dl-db={g(0, 10)}:{g(20, 30)}:{dl}",
                         f"--gamma-iui-db={g(-10, 0)}:{g(5, 20)}:{iui}",
                         "--gamma-self", g(0.1, 3), "--out", path("uldl")],
                "tdma_rro": ["network", "tdma", "--schedule", "rro", "--users", "3",
                             "--gammas-db", gammas, "--fd", fd_flags, "--iui-db", g(-10, 10),
                             "--slots", slots, "--out", path("rro")],
                "tdma_iuif": ["network", "tdma", "--schedule", "iuif", "--users", "3",
                              "--gammas-db", gammas, "--fd", fd_flags, "--slots", slots,
                              "--out", path("iuif")],
            }
            # The channel genchannel writes, built from its flags as the CLI does.
            spec = sichannel.SynthChannelSpec(
                isolation_db=drawn.isolation_db,
                base_delay_s=float(repr(drawn.base_delay_s * 1e9)) * 1e-9,
                reflections=tuple((a, float(repr(d * 1e9)) * 1e-9) for a, d in drawn.reflections),
            )
            library = (
                path("channel"),
                _random_configs(cfg_rng, "ideal", optimizer.quantization_preset("rfic"), 4),
                _random_configs(cfg_rng, "pcb", optimizer.quantization_preset("pcb"), 4),
            )
            self.variants.append((spec, argvs, library))
        # The set-up output every timed op is compared against.
        self.reference = {}
        for i in range(self.cycle):
            self.reference[i] = self._snapshot(i, self.op(i))

    def kind(self, i):
        return self.KINDS[i % len(self.KINDS)]

    def _args(self, i):
        v, k = divmod(i % self.cycle, len(self.KINDS))
        return self.variants[v], self.KINDS[k]

    def op(self, i):
        (_, argvs, (chan_path, ideal_cfgs, pcb_cfgs)), kind = self._args(i)
        if kind != "library":
            return cli.main(argvs[kind])
        h_si = sichannel.load_si_channel(chan_path)
        out = []
        for resp in (
            models.multi_tap_response(ideal_cfgs, h_si.grid),
            models.pcb_canceller_response(pcb_cfgs, models.PcbBoardParams(), h_si.grid),
        ):
            resid = ComplexResponse(h_si.grid, h_si.values - resp.values)
            out.append(metrics.rf_sic_db(resid).avg_db)
        return tuple(out)

    def _snapshot(self, i, out):
        (_, argvs, _), kind = self._args(i)
        if kind == "library":
            return out
        files = {}
        for path in cli_output_paths(argvs[kind]):
            with open(path, "rb") as fh:
                files[path] = fh.read()
        return out, files

    def check(self, i, out):
        if out == 0 or self.kind(i) == "library":
            got = self._snapshot(i % self.cycle, out)
            if got == self.reference[i % self.cycle]:
                return []
            return [f"{self.kind(i)}: output differs from the set-up output"]
        return [f"{self.kind(i)}: exit code {out}"]

    def run_quality(self, per_op):
        """(sic_db, residual_db) of each variant's fit report."""
        values = []
        for _, argvs, _ in self.variants:
            argv = argvs["fit"]
            with open(argv[argv.index("--out-report") + 1], encoding="utf-8") as fh:
                report = json.load(fh)
            values.append((report["avg_sic_db"],
                           residual_db(report["objective"], self.size.cli_points)))
        return values

    def final_checks(self):
        """Semantic checks of the set-up output, outside the timed region."""
        problems = []
        board = models.PcbBoardParams()
        for i in range(self.cycle):
            (spec, argvs, _), kind = self._args(i)
            if kind != "library" and self.reference[i][0] != 0:
                problems.append(f"set-up {kind}: exit code {self.reference[i][0]}")
            if kind == "model_pcb":
                argv = argvs[kind]
                cfg = models.PcbTapConfig(
                    float(argv[argv.index("--amp-db") + 1]), float(argv[argv.index("--phase") + 1]),
                    float(argv[argv.index("--cf-pf") + 1]), float(argv[argv.index("--cq-pf") + 1]),
                )
                closed = models.pcb_bpf_response_closed_form(cfg, board, self.grid).values
                abcd = models.pcb_bpf_response_abcd(cfg, board, self.grid).values
                if not np.allclose(closed, abcd, rtol=1e-9, atol=0.0):
                    problems.append("PCB closed form differs from the ABCD cascade")
            if kind == "genchannel":
                loaded = sichannel.load_si_channel(argvs[kind][-1])
                if not np.array_equal(loaded.values, sichannel.synth_si_channel(spec, self.grid).values):
                    problems.append("genchannel output does not round-trip")
        for sic, res in self.run_quality(None):
            if not (math.isfinite(sic) and math.isfinite(res)):
                problems.append("cli fit report is not finite")
        return problems

    def params(self):
        return {"restarts": 1, "max_iters": 2, "points": self.size.cli_points,
                "variants": self.size.cli_variants, "uldl_surface": list(self.size.uldl),
                "tdma_slots": self.size.tdma_slots}


WORKLOADS = {"fit": FitWorkload, "lattice": LatticeWorkload, "cli": CliWorkload}


def setup_workload(name, seed, size, workdir, tracer=None):
    """Generate the workload's inputs, then warm up: one tiny cycle of every
    workload, so each layer's lazy set-up is done before timing."""
    w = WORKLOADS[name](seed, size, workdir)
    if tracer:
        tracer.begin_op("setup")
    try:
        w.setup()
        for other, cls in WORKLOADS.items():
            tiny_dir = os.path.join(workdir, "warmup-" + other)
            os.makedirs(tiny_dir, exist_ok=True)
            tiny = cls(seed, TINY, tiny_dir)
            tiny.setup()
            for i in range(tiny.cycle):
                problems = tiny.check(i, tiny.op(i))
                if problems:
                    raise RuntimeError(f"warm-up {other} op {i}: {problems}")
    finally:
        if tracer:
            tracer.end_op()
    return w


def distinct_seed_guard(seed):
    """Distinct seeds must give distinct channels."""
    grid = band(BANDWIDTHS_HZ[0], 11)
    a = sichannel.synth_si_channel(channel_spec(_rng(seed, 1)), grid)
    b = sichannel.synth_si_channel(channel_spec(_rng(seed + 1, 1)), grid)
    return not np.array_equal(a.values, b.values)

