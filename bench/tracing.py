"""Outside-in layer tracing for the benchmark.

The benchmark records spans around calls into fdecanc's public functions from
its own files; the library itself is not changed.  A wrapper is installed on
every module attribute that binds a traced function, because ``fdecanc``,
``fdecanc.cli`` and ``fdecanc.optimizer`` import each other's functions by
name and a wrapper on the defining module alone misses those calls.
``ModelKernel`` methods are wrapped on the class.  ``core`` is not traced: its
time counts inside its callers.  Installing and uninstalling only swaps
attributes, so a run can trace every other op.

A call made while a span of the same layer is open is not recorded, so each
recorded span is the outermost of its layer and a layer's busy time is the sum
of its span durations.  Each span is added to the per-layer totals when it
ends; the first SPANS_KEPT spans are also kept in memory and written out when
the run ends (the cli workload makes over half a million network spans a run).
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

from workloads import cli_output_paths


def _n_configs(args, kwargs, out):
    kernel, x = args[0], args[1]
    n = len(x) if getattr(x, "ndim", 0) == 3 else 1
    return n, n * kernel._f.size


def _at_cap(args, kwargs, out):
    opts = args[3] if len(args) > 3 else kwargs.get("opts")
    max_iters = opts.max_iters if opts is not None else sys.modules[
        "fdecanc.optimizer"
    ].SolveOptions().max_iters
    return int(out.iterations == max_iters), 0


def _pairs(args, kwargs, out):
    return out.iterations, 0


def _accepted(args, kwargs, out):
    return len(out.trace) - 1, 0


def _points(args, kwargs, out):
    taps = len(args[0]) if isinstance(args[0], (list, tuple)) else 1
    return out.values.size * taps, 0


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0]), 0


def _cli_bytes(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv") or []
    return sum(os.path.getsize(p) for p in cli_output_paths(argv) if os.path.exists(p)), 0


# (module, attribute, layer, counter).  A counter maps (args, kwargs, result)
# to the span's two work counts.
TARGETS = (
    ("fdecanc.optimizer", "ModelKernel.objective", "optimizer.kernel", _n_configs),
    ("fdecanc.optimizer", "ModelKernel.objective_batch", "optimizer.kernel", _n_configs),
    ("fdecanc.optimizer", "ModelKernel.response_values", "optimizer.kernel", _n_configs),
    ("fdecanc.optimizer", "ModelKernel.avg_sic_db", "optimizer.kernel", _n_configs),
    ("fdecanc.optimizer", "solve_continuous", "optimizer.solve_continuous", _at_cap),
    ("fdecanc.optimizer", "fit_pipeline", "optimizer.fit_pipeline", None),
    ("fdecanc.optimizer", "greedy_extend", "optimizer.greedy_extend", None),
    ("fdecanc.optimizer", "quantize_config", "optimizer.quantize_config", None),
    ("fdecanc.optimizer", "local_search", "optimizer.local_search", _accepted),
    ("fdecanc.optimizer", "grid_search_oracle", "optimizer.grid_search_oracle", _pairs),
    ("fdecanc.models", "ideal_tap_response", "models", _points),
    ("fdecanc.models", "multi_tap_response", "models", _points),
    ("fdecanc.models", "pcb_bpf_response_abcd", "models", _points),
    ("fdecanc.models", "pcb_bpf_response_closed_form", "models", _points),
    ("fdecanc.models", "pcb_canceller_response", "models", _points),
    ("fdecanc.sichannel", "synth_si_channel", "sichannel", None),
    ("fdecanc.sichannel", "load_si_channel", "sichannel", _file_bytes),
    ("fdecanc.sichannel", "save_si_channel", "sichannel", _file_bytes),
    ("fdecanc.metrics", "rf_sic_db", "metrics", None),
    ("fdecanc.network", "shannon_rate", "network", None),
    ("fdecanc.network", "uldl_throughputs", "network", None),
    ("fdecanc.network", "three_node_throughputs", "network", None),
    ("fdecanc.network", "multi_user_throughputs", "network", None),
    ("fdecanc.network", "jain_fairness", "network", None),
    ("fdecanc.network", "tdma_schedule_eval", "network", None),
    ("fdecanc.cli", "main", "cli.main", _cli_bytes),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))

# Coverage tolerance: in a traced fit or lattice op, the layer spans' self
# times must cover at least this share of the op's wall time.  The rest is
# the benchmark's own dispatch, a few microseconds per op.
COVERAGE_TOL = 0.02
SPANS_KEPT = 200_000

OP = "op"
SETUP = "setup"
PHASES = ("continuous_s", "quantize_s", "local_search_s", "polish_s")
# Layers whose spans are split by their direct children.
_WITH_KIDS = ("optimizer.fit_pipeline", "optimizer.local_search")


class _Frame:
    __slots__ = ("sid", "layer", "t0", "child_s", "kids")

    def __init__(self, sid, layer, t0):
        self.sid, self.layer, self.t0 = sid, layer, t0
        self.child_s = 0.0
        self.kids = []  # (layer, function, duration) of direct child spans, in _WITH_KIDS


class Tracer:
    """Span recorder.  A kept span is the tuple
    (id, parent, layer, function, op, start, end, n, m, failed)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._ids = itertools.count()
        self._bindings = None  # (owner, name, original, wrapper)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.op_busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.n = defaultdict(float)
        self.m = defaultdict(float)
        self.fn_busy = defaultdict(float)
        self.op_self = defaultdict(float)
        self.op_configs = 0
        self.phases = defaultdict(float)
        self.ls_kernel_calls = self.ls_objective_calls = 0
        self.ops = 0
        self.op_wall = self.op_root_self = 0.0

    # -- installation -------------------------------------------------------

    def _find_bindings(self):
        mods = [m for k, m in sys.modules.items() if k == "fdecanc" or k.startswith("fdecanc.")]
        bindings = []
        for module_name, attr, layer, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                bindings.append((cls, meth, fn, self._wrap(fn, layer, meth, counter)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, layer, attr, counter)
            for m in mods:
                bindings.extend((m, name, fn, wrapper)
                                for name, value in vars(m).items() if value is fn)
        return bindings

    def install(self):
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, fn, _ in self._bindings or ():
            setattr(owner, name, fn)

    def _wrap(self, fn, layer, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer.op is None or stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(next(tracer._ids), layer, perf_counter())
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._end(frame, name, perf_counter(), 0, 0, True)
                raise
            t1 = perf_counter()
            n, m = counter(args, kwargs, out) if counter else (0, 0)
            tracer._end(frame, name, t1, n, m, False)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _end(self, frame, fn, t1, n, m, failed):
        self._stack.pop()
        parent = self._stack[-1]
        layer, dur = frame.layer, t1 - frame.t0
        self_s = dur - frame.child_s
        parent.child_s += dur
        if parent.layer in _WITH_KIDS:
            parent.kids.append((layer, fn, dur))
        self.calls[layer] += 1
        self.busy[layer] += dur
        self.self_s[layer] += self_s
        self.errors[layer] += failed
        self.n[layer] += n
        self.m[layer] += m
        self.fn_busy[layer, fn] += dur
        if self.op != SETUP:
            self.op_self[layer] += self_s
            self.op_busy[layer] += dur
            if layer == "optimizer.kernel":
                self.op_configs += n
        if layer == "optimizer.fit_pipeline":
            solves = 0
            for kid_layer, _, kid_dur in frame.kids:
                if kid_layer == "optimizer.solve_continuous":
                    self.phases["polish_s" if solves else "continuous_s"] += kid_dur
                    solves += 1
                elif kid_layer == "optimizer.quantize_config":
                    self.phases["quantize_s"] += kid_dur
                elif kid_layer == "optimizer.local_search":
                    self.phases["local_search_s"] += kid_dur
        elif layer == "optimizer.local_search":
            for kid_layer, kid_fn, _ in frame.kids:
                if kid_layer == "optimizer.kernel":
                    self.ls_kernel_calls += 1
                    self.ls_objective_calls += kid_fn == "objective"
        self._keep(frame, parent.sid, layer, fn, t1, n, m, failed)

    def _keep(self, frame, parent, layer, fn, t1, n, m, failed):
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((frame.sid, parent, layer, fn, self.op, frame.t0, t1, n, m, failed))

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._stack.append(_Frame(next(self._ids), OP, perf_counter()))

    def end_op(self, failed=False):
        t1 = perf_counter()
        frame = self._stack.pop()
        if self.op != SETUP:
            self.ops += 1
            self.op_wall += t1 - frame.t0
            self.op_root_self += t1 - frame.t0 - frame.child_s
        self._keep(frame, None, OP, OP, t1, 0, 0, failed)
        self.op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,function,op,start_s,end_s,n,m,failed\n")
            for s in sorted(self.spans):
                fh.write("%d,%s,%s,%s,%s,%.9f,%.9f,%d,%d,%d\n" % (
                    s[0], "" if s[1] is None else s[1], s[2], s[3], s[4],
                    s[5], s[6], s[7], s[8], s[9]))

    def metrics(self):
        """Per-layer metrics and the coverage of traced op wall time.  Spans
        of the traced set-up count in layer totals but not in per-op figures
        or in ``metrics.rf_sic_db.busy_s``, which is op time only: on fit and
        lattice ``ModelKernel.avg_sic_db`` calls it inside every solve."""

        def ratio(a, b):
            return a / b if b else 0.0

        calls, busy, self_s, n, m = self.calls, self.busy, self.self_s, self.n, self.m
        k = "optimizer.kernel"
        out = {
            f"{k}.calls": calls[k],
            f"{k}.self_s": self_s[k],
            f"{k}.configs": int(n[k]),
            f"{k}.batch_mean": ratio(n[k], calls[k]),
            f"{k}.config_points_per_s": ratio(m[k], self_s[k]),
            f"{k}.configs_per_op": ratio(self.op_configs, self.ops),
            f"{k}.op_share": ratio(self.op_self[k], self.op_wall),
        }
        sc = "optimizer.solve_continuous"
        out.update({
            f"{sc}.calls": calls[sc],
            f"{sc}.self_s": self_s[sc],
            f"{sc}.at_cap_frac": ratio(n[sc], calls[sc]),
        })
        for phase in PHASES:
            out[f"optimizer.fit_pipeline.phase.{phase}"] = self.phases[phase]
        out["optimizer.greedy_extend.busy_s"] = busy["optimizer.greedy_extend"]
        go = "optimizer.grid_search_oracle"
        out.update({
            f"{go}.calls": calls[go],
            f"{go}.busy_s": busy[go],
            f"{go}.pairs": int(n[go]),
            f"{go}.pairs_per_s": ratio(n[go], busy[go]),
            f"{go}.op_share": ratio(self.op_self[go], self.op_wall),
        })
        ls = "optimizer.local_search"
        out.update({
            f"{ls}.calls": calls[ls],
            f"{ls}.self_s": self_s[ls],
            f"{ls}.kernel_calls": self.ls_kernel_calls,
            f"{ls}.accept_ratio": ratio(n[ls], self.ls_objective_calls),
        })
        out["optimizer.quantize_config.busy_s"] = busy["optimizer.quantize_config"]
        out.update({
            "models.calls": calls["models"],
            "models.busy_s": busy["models"],
            "models.points_per_s": ratio(n["models"], busy["models"]),
            "sichannel.synth_s": self.fn_busy["sichannel", "synth_si_channel"],
            "sichannel.load_s": self.fn_busy["sichannel", "load_si_channel"],
            "sichannel.save_s": self.fn_busy["sichannel", "save_si_channel"],
            "sichannel.bytes": int(n["sichannel"]),
            "metrics.rf_sic_db.busy_s": self.op_busy["metrics"],
            "network.calls": calls["network"],
            "network.busy_s": busy["network"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.main.bytes_written": int(n["cli.main"]),
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        coverage = 1.0 - self.op_root_self / self.op_wall if self.op_wall else math.nan
        return out, coverage
