import json
import logging
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdecanc import (
    ComplexResponse,
    FrequencyGrid,
    IdealTapConfig,
    InvalidArgumentError,
    KnobSpec,
    LatticeTooLargeError,
    QuantizationSpec,
    SolveOptions,
    grid_search_oracle,
    ideal_tap_response,
    iterative_heuristic,
    local_search,
    multi_tap_response,
    quantization_preset,
    quantize_config,
    report_from_dict,
    residual_objective,
    solve_continuous,
    synth_si_channel,
    SynthChannelSpec,
)
from fdecanc.models import TAP_MODELS, PcbBoardParams, PcbTapConfig, weight_factors
from fdecanc import optimizer
from fdecanc.optimizer import (
    STOP_REASONS,
    _TOL,
    ModelKernel,
    _descend,
    _pair_rows,
    _row_bounds,
    config_vector,
    default_bounds,
    fit_pipeline,
    greedy_extend,
    nearest_codes,
)

GRID = FrequencyGrid.linspace(890e6, 910e6, 101)
FAST = SolveOptions(restarts=6, max_iters=150, seed=0)


def flat_channel(level, grid=GRID):
    return ComplexResponse(grid, np.full(grid.count, level, dtype=complex))


class TestKnobSpec:
    def test_step_grid(self):
        k = KnobSpec(-40.0, -10.0, step=0.25)
        v = k.values()
        assert v.size == 121
        assert v[0] == -40.0 and v[-1] == -10.0

    def test_bits_grid(self):
        k = KnobSpec(-np.pi, np.pi, bits=8)
        v = k.values()
        assert v.size == 256
        assert v[0] == -np.pi and v[-1] == np.pi

    def test_snap_nearest(self):
        k = KnobSpec(-40.0, -10.0, step=0.25)
        assert k.snap(-12.37) == pytest.approx(-12.25)

    def test_snap_tie_toward_smaller(self):
        k = KnobSpec(-40.0, -10.0, step=0.25)
        assert k.snap(-12.375) == pytest.approx(-12.5)

    def test_snap_on_grid_unchanged(self):
        k = KnobSpec(2.0, 14.0, step=0.39)
        assert k.snap(2.0 + 5 * 0.39) == pytest.approx(2.0 + 5 * 0.39)

    def test_out_of_range(self):
        k = KnobSpec(-40.0, -10.0, step=0.25)
        with pytest.raises(InvalidArgumentError):
            k.snap(-5.0)

    @pytest.mark.parametrize("knob", ["amp_db", "phase_rad", "center", "q"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, knob, value):
        # a periodic knob's wrap would turn inf into nan, and nan compares
        # inside no range, so both were once snapped to a code
        k = getattr(quantization_preset("rfic"), knob)
        with pytest.raises(InvalidArgumentError, match="not finite"):
            k.snap(value)
        with pytest.raises(InvalidArgumentError, match="not finite"):
            k.codes([k.min, value])

    def test_periodic_snap_wraps(self):
        k = KnobSpec(-np.pi, np.pi, bits=8, periodic=True)
        assert k.snap(np.pi + 0.1) == pytest.approx(k.snap(-np.pi + 0.1))

    def test_single_value_grid(self):
        k = KnobSpec(0.0, 1.0, step=2.0)
        assert k.values().tolist() == [0.0]
        assert k.snap(0.7) == 0.0 and k.codes([0.2, 1.0]).tolist() == [0, 0]

    def test_values_built_once_and_read_only(self, monkeypatch):
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **kw: calls.append(a) or linspace(*a, **kw))
        k = KnobSpec(-np.pi, np.pi, bits=8, periodic=True)
        spec = replace(quantization_preset("rfic"), phase_rad=k)
        v = k.values()
        assert k.values() is v and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0
        k.codes([0.1, 3.0])
        k.snap(-1.0)
        for _ in range(2):
            quantize_config([IdealTapConfig(-20.0, 0.5, 9e8, 10.0)], spec)
        # one table for each knob with a bit depth: phase, center and q
        assert len(calls) == 3
        # the table is built on first use: a grid too large to build still
        # makes a spec
        KnobSpec(0.0, 1.0, bits=64)

    @pytest.mark.parametrize("knob", [
        *quantization_preset("rfic").knobs(),
        *quantization_preset("pcb").knobs(),
        *(KnobSpec(0.0, 1.0, periodic=periodic, **size)
          for periodic in (False, True)
          for size in ({"step": 2.0}, {"step": 1.0}, {"bits": 1})),
    ])
    def test_moves_are_the_wrapped_or_bounded_neighbours(self, knob):
        n = knob.values().size
        expect = []
        for code in range(n):
            moves = []
            for delta in (-1, 1):
                k = code + delta
                if knob.periodic:
                    k %= n
                elif k < 0 or k >= n:
                    continue
                moves.append(k)
            expect.append(tuple(moves))
        assert knob.moves == tuple(expect)
        assert knob.moves is knob.moves

    def test_codes_of_an_array(self):
        k = KnobSpec(-np.pi, np.pi, bits=8, periodic=True)
        v = np.array([[np.pi + 0.1, -np.pi + 0.1], [0.0, np.pi]])
        assert k.codes(v).tolist() == [[k.codes(x).item() for x in row] for row in v]
        assert k.codes(np.pi).item() == 0  # pi wraps to -pi, code 0
        with pytest.raises(InvalidArgumentError, match="value -5.0 outside"):
            KnobSpec(-40.0, -10.0, step=0.25).codes([-12.0, -5.0])

    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(["rfic", "pcb"]),
        knob=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nearest_codes_match_argmin(self, preset, knob, seed):
        # the first index of the smallest |vals - v| rounds midpoints toward
        # the smaller value; values beyond the grid go to its ends
        vals = quantization_preset(preset).knobs()[knob].values()
        rng = np.random.default_rng(seed)
        k = rng.integers(vals.size - 1, size=8)
        span = vals[-1] - vals[0]
        v = np.concatenate([
            rng.uniform(vals[0] - 0.01 * span, vals[-1] + 0.01 * span, size=8),
            (vals[k] + vals[k + 1]) / 2.0,
            vals[k],
        ])
        ref = [int(np.argmin(np.abs(vals - x))) for x in v]
        assert nearest_codes(vals, v).tolist() == ref

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            KnobSpec(1.0, 0.0, step=0.1)
        with pytest.raises(InvalidArgumentError):
            KnobSpec(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            KnobSpec(0.0, 1.0, step=0.1, bits=4)


class TestPresets:
    def test_rfic_ranges(self):
        s = quantization_preset("rfic")
        assert (s.amp_db.min, s.amp_db.max, s.amp_db.step) == (-40.0, -10.0, 0.25)
        assert s.phase_rad.bits == 8 and s.phase_rad.periodic
        assert (s.center.min, s.center.max, s.center.bits) == (875e6, 925e6, 8)
        assert (s.q.min, s.q.max, s.q.bits) == (1.0, 50.0, 8)

    def test_pcb_ranges(self):
        s = quantization_preset("pcb")
        assert (s.amp_db.min, s.amp_db.max, s.amp_db.step) == (-15.5, 0.0, 0.5)
        assert (s.center.min, s.center.max, s.center.step) == (0.6, 2.4, 0.12)
        assert (s.q.min, s.q.max, s.q.step) == (2.0, 14.0, 0.39)

    def test_unknown(self):
        with pytest.raises(InvalidArgumentError):
            quantization_preset("bogus")

    @pytest.mark.parametrize("preset", ["rfic", "pcb"])
    @pytest.mark.parametrize("knob, periodic", [("amp_db", True), ("phase_rad", False)])
    def test_spec_whose_wrap_is_not_the_phase_is_rejected(self, preset, knob, periodic):
        # the continuous solver wraps the phase alone, so a periodic
        # amplitude or a bounded phase would be descended with the wrong wrap
        spec = quantization_preset(preset)
        bad = replace(getattr(spec, knob), periodic=periodic)
        with pytest.raises(InvalidArgumentError, match=knob):
            replace(spec, **{knob: bad})


class TestBoxBounds:
    @pytest.mark.parametrize("knob", ["amp_db", "phase_rad", "center", "q"])
    @pytest.mark.parametrize("pair", [
        (float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0),
        (1.0, 1.0), (2.0, 1.0), (0.0,), (0.0, 1.0, 2.0), 5.0, ("a", "b"), None,
    ])
    def test_rejects_a_bad_field_at_construction(self, knob, pair):
        good = quantization_preset("rfic").bounds()
        with pytest.raises(InvalidArgumentError, match=knob):
            replace(good, **{knob: pair})


class TestResidualObjective:
    def test_perfect_match(self):
        h = flat_channel(0.1)
        assert residual_objective(h, h) == 0.0

    def test_flat_constant(self):
        h = flat_channel(0.1)
        z = flat_channel(0.0)
        assert residual_objective(h, z) == pytest.approx(1.01, rel=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(2)
        g = FrequencyGrid.linspace(900e6, 907e6, 8)
        a = ComplexResponse(g, rng.normal(size=8) + 1j * rng.normal(size=8))
        b = ComplexResponse(g, rng.normal(size=8) + 1j * rng.normal(size=8))
        expect = 0.0
        for x, y in zip(a.values, b.values):
            expect += abs(x - y) ** 2
        assert residual_objective(a, b) == pytest.approx(expect, rel=1e-12)

    def test_grid_mismatch(self):
        g2 = FrequencyGrid.linspace(891e6, 911e6, 101)
        with pytest.raises(InvalidArgumentError):
            residual_objective(flat_channel(0.1), flat_channel(0.1, g2))


class TestSolveContinuous:
    def test_planted_recovery(self):
        cfg = IdealTapConfig(-20.0, 0.5, 900e6, 10.0)
        h = ideal_tap_response(cfg, GRID)
        opts = SolveOptions(restarts=6, max_iters=500, seed=0)
        rep = solve_continuous("ideal", h, opts=opts, num_taps=1)
        assert rep.objective <= 1e-8 * GRID.count

    def test_flat_zero_drives_amp_to_floor(self):
        h = flat_channel(0.0)
        rep = solve_continuous("ideal", h, opts=FAST, num_taps=1)
        floor_cfg = IdealTapConfig(-40.0, 0.0, 900e6, 25.0)
        floor_obj = residual_objective(h, ideal_tap_response(floor_cfg, GRID))
        assert rep.config[0].amp_db == pytest.approx(-40.0, abs=1e-6)
        assert rep.objective <= floor_obj

    def test_deterministic(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        r1 = solve_continuous("ideal", h, opts=FAST, num_taps=2)
        r2 = solve_continuous("ideal", h, opts=FAST, num_taps=2)
        assert config_vector(r1.config).tolist() == config_vector(r2.config).tolist()
        assert r1.objective == r2.objective

    def test_monotone_trace(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = solve_continuous("ideal", h, opts=FAST, num_taps=1)
        t = np.asarray(rep.trace)
        assert np.all(np.diff(t) <= 0)

    def test_objective_consistent_with_config(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = solve_continuous("ideal", h, opts=FAST, num_taps=2)
        recomputed = residual_objective(h, multi_tap_response(rep.config, GRID))
        assert recomputed == pytest.approx(rep.objective, rel=1e-9)

    def test_pcb_model_runs(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = solve_continuous(
            "pcb", h, opts=SolveOptions(restarts=4, max_iters=80), num_taps=1
        )
        assert rep.objective >= 0 and np.isfinite(rep.objective)

    def test_scale_equivariance(self):
        # 1-tap fit of a 2-tap channel keeps the residual nonzero and the
        # amplitude strictly interior, so halving the channel should quarter
        # the optimal objective
        planted = [
            IdealTapConfig(-24.0, 0.3, 896e6, 15.0),
            IdealTapConfig(-30.0, -0.9, 904e6, 25.0),
        ]
        h = multi_tap_response(planted, GRID)
        opts = SolveOptions(restarts=12, max_iters=300, seed=4)
        r1 = solve_continuous("ideal", h, opts=opts, num_taps=1)
        h2 = ComplexResponse(GRID, 0.5 * h.values)
        r2 = solve_continuous("ideal", h2, opts=opts, num_taps=1)
        assert r2.objective == pytest.approx(0.25 * r1.objective, rel=0.05)


class TestQuantize:
    def test_on_grid_unchanged(self):
        spec = quantization_preset("rfic")
        cfg = IdealTapConfig(
            -12.25,
            float(spec.phase_rad.values()[100]),
            float(spec.center.values()[30]),
            float(spec.q.values()[77]),
        )
        q = quantize_config([cfg], spec)[0]
        assert config_vector([q]).tolist() == config_vector([cfg]).tolist()

    def test_out_of_bounds(self):
        spec = quantization_preset("rfic")
        with pytest.raises(InvalidArgumentError):
            quantize_config([IdealTapConfig(-5.0, 0.0, 900e6, 10.0)], spec)


class TestLocalSearch:
    def _small_instance(self):
        spec = quantization_preset("rfic")
        cfg = IdealTapConfig(
            float(spec.amp_db.values()[40]),
            float(spec.phase_rad.values()[128]),
            float(spec.center.values()[120]),
            float(spec.q.values()[50]),
        )
        return spec, cfg, ideal_tap_response(cfg, GRID)

    def test_reaches_planted_lattice_optimum(self):
        spec, cfg, h = self._small_instance()
        # start one grid step away on two knobs
        start = IdealTapConfig(
            float(spec.amp_db.values()[41]),
            cfg.phase_rad,
            float(spec.center.values()[119]),
            cfg.q,
        )
        rep = local_search([start], "ideal", h, spec)
        assert rep.objective <= 1e-20
        assert rep.stop_reason == "no_descent"
        # the first round takes moves, so a one-round cap ends the search
        capped = local_search([start], "ideal", h, spec, max_rounds=1)
        assert (capped.iterations, capped.stop_reason) == (1, "max_iters")
        assert len(capped.trace) > 1
        assert "stop_reason" not in capped.to_dict()

    def test_local_optimum_is_fixed_point(self):
        spec, cfg, h = self._small_instance()
        rep = local_search([cfg], "ideal", h, spec)
        assert rep.objective == 0.0
        assert rep.iterations == 1
        assert rep.stop_reason == "no_descent"
        assert config_vector(rep.config).tolist() == config_vector([cfg]).tolist()

    def test_no_taps(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        with pytest.raises(InvalidArgumentError, match="need at least one tap"):
            local_search([], "ideal", h, spec)

    def test_never_worse_than_start(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        start = quantize_config([IdealTapConfig(-20.0, 0.0, 900e6, 10.0)], spec)
        start_obj = residual_objective(h, multi_tap_response(start, GRID))
        rep = local_search(start, "ideal", h, spec)
        assert rep.objective <= start_obj

    def test_zero_rounds_return_the_start(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        start = quantize_config([IdealTapConfig(-20.0, 0.0, 900e6, 10.0)], spec)
        rep = local_search(start, "ideal", h, spec, max_rounds=0)
        assert (rep.config, rep.iterations, rep.stop_reason) == (start, 0, "max_iters")


class TestGridSearchOracle:
    def test_lattice_size(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = grid_search_oracle("ideal", h, spec, 3, 1)
        assert rep.iterations == 81

    def test_exhaustiveness(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = grid_search_oracle("ideal", h, spec, 5, 1)
        rng = np.random.default_rng(9)
        sub = [k.values() for k in spec.knobs()]
        for _ in range(20):
            cfg = IdealTapConfig(
                float(rng.choice(sub[0][:: sub[0].size // 4][:5])),
                float(rng.choice(sub[1][:: sub[1].size // 4][:5])),
                float(rng.choice(sub[2][:: sub[2].size // 4][:5])),
                float(rng.choice(sub[3][:: sub[3].size // 4][:5])),
            )
            obj = residual_objective(h, multi_tap_response([cfg], GRID))
            assert rep.objective <= obj + 1e-15

    def test_planted_lattice_recovery(self):
        spec = quantization_preset("rfic")
        vals = [k.values() for k in spec.knobs()]
        idx = [np.round(np.linspace(0, v.size - 1, 3)).astype(int) for v in vals]
        cfg = IdealTapConfig(
            float(vals[0][idx[0][1]]),
            float(vals[1][idx[1][2]]),
            float(vals[2][idx[2][1]]),
            float(vals[3][idx[3][0]]),
        )
        h = ideal_tap_response(cfg, GRID)
        rep = grid_search_oracle("ideal", h, spec, 3, 1)
        assert rep.objective <= 1e-20
        assert config_vector(rep.config).tolist() == config_vector([cfg]).tolist()

    def test_two_tap_small(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = grid_search_oracle("ideal", h, spec, 3, 2)
        assert rep.iterations == 81**2
        assert rep.objective <= grid_search_oracle("ideal", h, spec, 3, 1).objective

    def test_two_taps_build_rows_only_for_scored_pairs(self, monkeypatch):
        # one tap builds all 81 rows of the sublattice; two taps build the
        # 9 unit rows and the rows of the pairs the screen keeps
        tm = TAP_MODELS["pcb"]
        rows_built = []

        def recording(f, board):
            combine = tm.combiner(f, board)

            def wrapped(w, b):
                out = combine(w, b)
                rows_built.append(out.shape[0] if out.ndim == 2 else 1)
                return out
            return wrapped

        monkeypatch.setitem(TAP_MODELS, "pcb", replace(tm, combiner=recording))
        spec = quantization_preset("pcb")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        grid_search_oracle("pcb", h, spec, 3, 1)
        assert max(rows_built) == 81
        rows_built.clear()
        grid_search_oracle("pcb", h, spec, 3, 2)
        assert max(rows_built) < 81

    def test_lattice_cap(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        with pytest.raises(LatticeTooLargeError):
            grid_search_oracle("ideal", h, spec, 9, 2)

    def test_more_points_than_codes_selects_every_code(self):
        # a count far past every knob's code count allocates nothing for it:
        # it selects each knob's codes once, as a count of exactly that size
        spec = QuantizationSpec(
            amp_db=KnobSpec(-30.0, -10.0, step=5.0),
            phase_rad=KnobSpec(-np.pi, np.pi, bits=3, periodic=True),
            center=KnobSpec(880e6, 920e6, bits=2),
            q=KnobSpec(5.0, 20.0, step=5.0),
        )
        sizes = [k.values().size for k in spec.knobs()]
        assert sizes == [5, 8, 4, 4]
        h = synth_si_channel(SynthChannelSpec(), GRID)
        for taps in (1, 2):
            rep = grid_search_oracle("ideal", h, spec, 10**12, taps)
            assert rep.to_json() == grid_search_oracle("ideal", h, spec, 8, taps).to_json()
            assert rep.iterations == int(np.prod(sizes)) ** taps
        # the full rfic lattice is past the cap
        with pytest.raises(LatticeTooLargeError):
            grid_search_oracle("ideal", h, quantization_preset("rfic"), 10**12, 1)


class TestIterativeHeuristic:
    def test_planted_single_tap(self):
        cfg = IdealTapConfig(-20.0, 0.5, 900e6, 10.0)
        h = ideal_tap_response(cfg, GRID)
        rep = iterative_heuristic("ideal", h, [900e6])
        k = int(np.argmin(np.abs(GRID.points - 900e6)))
        resid = h.values - multi_tap_response(rep.config, GRID).values
        window = np.abs(resid[k - 1 : k + 2]) ** 2
        # the 3-point window leaves center/Q jointly near-unidentifiable, so
        # the fit bottoms out in a flat valley rather than at exactly zero
        channel_power = float(np.sum(np.abs(h.values[k - 1 : k + 2]) ** 2))
        assert np.sum(window) <= 1e-6
        assert np.sum(window) <= 1e-4 * channel_power

    def test_outside_grid_rejected(self, monkeypatch):
        # every frequency is checked before the first tap is fit
        def no_fit(*args, **kwargs):
            raise AssertionError("a tap was fit")

        monkeypatch.setattr(optimizer, "solve_continuous", no_fit)
        h = synth_si_channel(SynthChannelSpec(), GRID)
        for freqs in ([1.2e9], [900e6, 1.2e9]):
            with pytest.raises(InvalidArgumentError):
                iterative_heuristic("ideal", h, freqs)

    def test_joint_beats_heuristic(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        joint = solve_continuous(
            "ideal", h, opts=SolveOptions(restarts=8, max_iters=200), num_taps=2
        )
        heur = iterative_heuristic("ideal", h, [895e6, 905e6])
        assert joint.objective <= heur.objective


class TestPerTapFit:
    """`greedy_extend` and `iterative_heuristic` fit each tap alike: 8
    restarts of 150 iterations, seed + tap index, on the residual of the
    taps so far."""

    @staticmethod
    def _one_tap(model, grid, resid, seed):
        opts = SolveOptions(restarts=8, max_iters=150, seed=seed)
        rep = solve_continuous(
            model, ComplexResponse(grid, resid), default_bounds(model), opts, 1
        )
        return rep.config[0]

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_greedy_extend(self, model):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        first = solve_continuous(model, h, opts=FAST).config
        got = greedy_extend(model, h, first, 2, seed=7)
        resid = h.values - ModelKernel(model, h).response_values(config_vector(first))
        assert got[0] == first[0]
        assert got[1] == self._one_tap(model, GRID, resid, 7 + 1)

    def test_iterative_heuristic(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        k = int(np.argmin(np.abs(GRID.points - 903e6)))
        window = FrequencyGrid(GRID.points[k - 1 : k + 2])
        got = iterative_heuristic("ideal", h, [903e6]).config
        assert got == [self._one_tap("ideal", window, h.values[k - 1 : k + 2], 0)]


class TestMisreadArguments:
    """Arguments a solver would misread are rejected before any kernel is
    built: a negative tap count slices from the end, negative rounds run none
    and report "max_iters", and no frequencies fit no taps."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(ModelKernel, "__init__", built)

    @pytest.mark.parametrize("num_taps", [-1, 0])
    def test_greedy_extend_tap_count(self, num_taps):
        two = [IdealTapConfig(-20.0, 0.0, 895e6, 10.0), IdealTapConfig(-25.0, 1.0, 905e6, 10.0)]
        with pytest.raises(InvalidArgumentError, match="^num_taps must be >= 1$"):
            greedy_extend("ideal", flat_channel(0.1), two, num_taps)

    def test_local_search_negative_rounds(self):
        spec = quantization_preset("rfic")
        start = quantize_config([IdealTapConfig(-20.0, 0.0, 900e6, 10.0)], spec)
        with pytest.raises(InvalidArgumentError, match="^max_rounds must be >= 0$"):
            local_search(start, "ideal", flat_channel(0.1), spec, max_rounds=-3)

    def test_iterative_heuristic_without_frequencies(self):
        with pytest.raises(InvalidArgumentError, match="^need at least one tap$"):
            iterative_heuristic("ideal", flat_channel(0.1), [])


class TestPipelineAndReports:
    def test_quantization_degradation(self):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        cont, quant = fit_pipeline("ideal", h, 2, FAST, spec)
        assert quant is not None and quant.quantized
        assert cont.objective <= quant.objective

    def test_report_json_round_trip(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        keys = {
            "ideal": ["kind", "amp_db", "phase_rad", "center_hz", "q"],
            "pcb": ["kind", "amp_db", "phase_rad", "cf_pf", "cq_pf"],
        }
        for model in ("ideal", "pcb"):
            rep = solve_continuous(model, h, opts=FAST, num_taps=1)
            d = json.loads(rep.to_json())
            assert list(d["config"][0]) == keys[model]
            assert d["config"][0]["kind"] == model
            back = report_from_dict(d)
            assert back.objective == rep.objective
            assert back.config == rep.config
            x = config_vector(rep.config)
            assert config_vector(back.config).tolist() == x.tolist()

    def test_report_unknown_kind_rejected(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        d = json.loads(solve_continuous("ideal", h, opts=FAST).to_json())
        d["config"][0]["kind"] = "idel"
        with pytest.raises(InvalidArgumentError, match="'idel'"):
            report_from_dict(d)


class TestSolveOptions:
    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"max_iters": 0}, {"seed": -1}])
    def test_rejects_values_it_cannot_run(self, kwargs):
        # a negative seed is also one numpy's generator rejects
        with pytest.raises(InvalidArgumentError):
            SolveOptions(**kwargs)


class TestPipelinePhaseLog:
    def _records(self, caplog):
        return [r for r in caplog.records if r.name == "fdecanc"]

    def test_logs_phase_times_at_debug(self, caplog):
        spec = quantization_preset("rfic")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        cont, quant = fit_pipeline("ideal", h, 2, FAST, spec)
        assert not self._records(caplog)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            again = fit_pipeline("ideal", h, 2, FAST, spec)
        assert [r.to_json() for r in again] == [cont.to_json(), quant.to_json()]
        records = self._records(caplog)
        phase = records[-1]
        assert phase.getMessage().startswith("fit pipeline: continuous ")
        assert min(phase.continuous_s, phase.quantize_s, phase.local_search_s) > 0
        assert not hasattr(phase, "polish_s")
        # the pipeline solves once
        assert len([r for r in records if r.getMessage().startswith("solve:")]) == 1

    def test_lattice_point_that_beats_the_solve_is_the_continuous_report(self, caplog):
        # one start of one iteration stops far from the optimum: the lattice
        # point (1.728) beats it (3.990)
        h = synth_si_channel(SynthChannelSpec(), GRID)
        opts = SolveOptions(restarts=1, max_iters=1, seed=0)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            cont, quant = fit_pipeline("ideal", h, 2, opts, quantization_preset("rfic"))
        assert quant.objective < solve_continuous("ideal", h, opts=opts, num_taps=2).objective
        assert (cont.config, cont.objective) == (quant.config, quant.objective)
        assert not cont.quantized and quant.quantized
        solves = [r for r in self._records(caplog) if r.getMessage().startswith("solve:")]
        assert len(solves) == 1

    def test_continuous_only_phases_are_zero(self, caplog):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            fit_pipeline("ideal", h, 1, FAST)
        phase = self._records(caplog)[-1]
        assert phase.continuous_s > 0
        assert phase.quantize_s == phase.local_search_s == 0.0

    def test_no_clock_read_without_a_debug_logger(self, monkeypatch):
        def no_clock():
            raise AssertionError("clock read")

        monkeypatch.setattr(optimizer, "time", type("T", (), {"perf_counter": no_clock}))
        h = synth_si_channel(SynthChannelSpec(), GRID)
        fit_pipeline("ideal", h, 1, FAST, quantization_preset("rfic"))


class TestNonPositiveFrequencies:
    """A grid with a frequency <= 0 is rejected before any tap is evaluated."""

    TAPS = {"ideal": IdealTapConfig(-20.0, 0.0, 900e6, 10.0),
            "pcb": PcbTapConfig(-5.0, 0.0, 1.2, 6.0)}

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    @pytest.mark.parametrize("start", [-10e6, 0.0])
    def test_every_solver_rejects(self, model, start):
        grid = FrequencyGrid.linspace(start, 10e6, 11)
        h = ComplexResponse(grid, np.full(11, 0.1 + 0j))
        spec = quantization_preset(TAP_MODELS[model].preset)
        calls = [
            lambda: ModelKernel(model, h),
            lambda: solve_continuous(model, h, opts=FAST),
            lambda: local_search([self.TAPS[model]], model, h, spec),
            lambda: grid_search_oracle(model, h, spec, 2),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="strictly positive"):
                call()


class TestConfigOfOtherModel:
    """A config of one tap model is never read as a config of the other."""

    PCB_TAP = PcbTapConfig(-5.0, 0.0, 1.2, 6.0)
    IDEAL_TAP = IdealTapConfig(-20.0, 0.0, 900e6, 10.0)

    def test_local_search(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        with pytest.raises(InvalidArgumentError, match="PcbTapConfig"):
            local_search([self.PCB_TAP], "ideal", h, quantization_preset("rfic"))
        with pytest.raises(InvalidArgumentError, match="IdealTapConfig"):
            local_search([self.IDEAL_TAP], "pcb", h, quantization_preset("pcb"))

    def test_init_configs(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        with pytest.raises(InvalidArgumentError, match="PcbTapConfig"):
            solve_continuous("ideal", h, opts=FAST, init_configs=[[self.PCB_TAP]])
        with pytest.raises(InvalidArgumentError, match="IdealTapConfig"):
            solve_continuous("pcb", h, opts=FAST, init_configs=[[self.IDEAL_TAP]])


class TestWarmStartTapCount:
    TAP = IdealTapConfig(-20.0, 0.0, 900e6, 10.0)

    @pytest.mark.parametrize("taps, num_taps", [(1, 2), (3, 2), (0, 1)])
    def test_rejected_before_any_descent(self, monkeypatch, taps, num_taps):
        def no_descent(*args, **kwargs):
            raise AssertionError("descent ran")

        monkeypatch.setattr(optimizer, "_descend", no_descent)
        h = synth_si_channel(SynthChannelSpec(), GRID)
        match = f"has {taps} taps, expected num_taps={num_taps}"
        init = [[self.TAP] * num_taps, [self.TAP] * taps]
        with pytest.raises(InvalidArgumentError, match=match):
            solve_continuous("ideal", h, opts=FAST, num_taps=num_taps, init_configs=init)
        with pytest.raises(InvalidArgumentError, match=match):
            fit_pipeline("ideal", h, num_taps, FAST, quantization_preset("rfic"),
                         init_configs=init)


# ---------------------------------------------------------------------------
# search kernels against plain reference implementations


def _sublattice(spec, points):
    """The oracle's per-tap sublattice, rows in meshgrid (ij) order."""
    sub = []
    for knob in spec.knobs():
        vals = knob.values()
        ix = np.unique(np.round(np.linspace(0, vals.size - 1, points)).astype(int))
        sub.append(vals[ix])
    grids = np.meshgrid(*sub, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _tap_rows(model, rows, grid):
    return TAP_MODELS[model].kernel(rows, grid.points, PcbBoardParams())


def brute_force_pair(target, resp):
    """First (i, j) in row-major order with the smallest objective."""
    best, pair = np.inf, (0, 0)
    for i in range(resp.shape[0]):
        for j in range(resp.shape[0]):
            d = target - resp[i] - resp[j]
            obj = np.sum(d.real**2 + d.imag**2)
            if obj < best:
                best, pair = float(obj), (i, j)
    return best, pair


class TestOraclePairSearch:
    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        points=st.integers(2, 3),
        k=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        amp_floor=st.booleans(),
    )
    def test_matches_brute_force(self, model, points, k, seed, planted, amp_floor):
        spec = quantization_preset("rfic" if model == "ideal" else "pcb")
        if amp_floor:
            # taps far below the channel: every pair ties at working precision
            spec = replace(spec, amp_db=KnobSpec(-400.0, -390.0, step=5.0))
        grid = FrequencyGrid.linspace(880e6, 920e6, k)
        rows = _sublattice(spec, points)
        resp = _tap_rows(model, rows, grid)
        rng = np.random.default_rng(seed)
        if planted:
            # an exact pair: (a, b) and (b, a) both reach about 0
            a, b = rng.integers(rows.shape[0], size=2)
            target = resp[a] + resp[b]
        else:
            target = 0.1 * (rng.normal(size=k) + 1j * rng.normal(size=k))
        fbest, (i, j) = brute_force_pair(target, resp)
        rep = grid_search_oracle(model, ComplexResponse(grid, target), spec, points, 2)
        assert rep.objective == fbest
        assert config_vector(rep.config).tolist() == rows[[i, j]].tolist()

    def test_forced_ties_pick_first_pair(self, caplog):
        # at -400 dB every pair's objective rounds to |t|^2 exactly, so the
        # screen keeps every row and every column
        spec = replace(
            quantization_preset("rfic"), amp_db=KnobSpec(-400.0, -390.0, step=5.0)
        )
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rows = _sublattice(spec, 2)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            rep = grid_search_oracle("ideal", h, spec, 2, 2)
        assert rep.objective == float(np.sum(np.abs(h.values) ** 2))
        assert config_vector(rep.config).tolist() == rows[[0, 0]].tolist()
        (record,) = [r for r in caplog.records if r.name == "fdecanc"]
        assert (record.rows_kept, record.scanned) == (16, 16 * 16)


def pair_rows_full(target, resp, slack=None, block=64):
    """The rows a screen with the given slack keeps, screened over the full
    square (every row minimum from R[block] @ R.T), and for each kept row
    the columns whose value is within 2 slack of that row's minimum.  The
    default slack, 16 K eps (|t| + 2 max|r|)^2, is the one of a screen on the
    rows themselves."""
    p, k = resp.shape
    r = resp.view(np.float64)
    t = target.view(np.float64)
    norm2 = np.einsum("ij,ij->i", r, r)
    u = norm2 - 2.0 * (r @ t)
    row_min = np.empty(p)
    for b0 in range(0, p, block):
        g = 2.0 * (r[b0 : b0 + block] @ r.T) + u[None, :]
        row_min[b0 : b0 + block] = g.min(axis=1)
    row_min += u + t @ t
    if slack is None:
        s = (np.sqrt(t @ t) + 2.0 * np.sqrt(np.max(norm2))) ** 2
        slack = 16.0 * k * np.finfo(float).eps * s
    rows = np.flatnonzero(~(row_min > np.min(row_min) + 2.0 * slack))
    g = 2.0 * (r[rows] @ r.T) + u[None, :] + (u[rows] + t @ t)[:, None]
    return rows, [np.flatnonzero(~(v > np.min(v) + 2.0 * slack)) for v in g]


def direct_row(target, resp, i):
    """Row i's pair objectives, as the oracle's direct scan computes them."""
    d = target - resp[i] - resp
    return np.sum(d.real**2 + d.imag**2, axis=1)


def factored_slack(target, weights, units):
    """The slack of `_pair_rows`: 16 (K + n^2 + 8) eps (|t| + 2 max|w| max|phi|)^2."""
    n, k = units.shape
    big = np.abs(weights).max() * np.sqrt(np.max(np.sum(np.abs(units) ** 2, axis=1)))
    return 16.0 * (k + n * n + 8) * np.finfo(float).eps * (np.linalg.norm(target) + 2 * big) ** 2


def check_pair_rows(target, weights, units, resp):
    """`_pair_rows` keeps exactly the rows of the full-square screen with its
    slack and, for each, that screen's columns; among them every row whose
    direct minimum ties the smallest, and every column that reaches its
    row's direct minimum."""
    kept, columns, bounded = _pair_rows(target, weights, units)
    assert kept.size <= bounded <= weights.size * units.shape[0]
    want_rows, want_cols = pair_rows_full(target, resp, factored_slack(target, weights, units))
    assert kept.tolist() == want_rows.tolist()
    assert [c.tolist() for c in columns] == [c.tolist() for c in want_cols]
    mins = np.array([direct_row(target, resp, i).min() for i in range(resp.shape[0])])
    assert set(np.flatnonzero(mins == mins.min()).tolist()) <= set(kept.tolist())
    for a, cols in zip(kept, columns):
        obj = direct_row(target, resp, a)
        assert set(np.flatnonzero(obj == obj.min()).tolist()) <= set(cols.tolist())
    return kept, columns


class TestPairRowsHalfScreen:
    """`_pair_rows` screens rows of weights times unit rows through a factor
    of the unit rows' Gram matrix; the full-square screen on the rows
    themselves is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_w=st.integers(1, 12),
        n=st.integers(1, 16),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        repeats=st.booleans(),
    )
    def test_keeps_the_rows_of_the_full_screen(self, n_w, n, k, seed, planted, repeats):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=n_w) + 1j * rng.normal(size=n_w)
        units = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        if repeats:
            # equal weights and unit rows: many pairs tie, and the Gram
            # matrix is singular
            weights = weights[rng.integers(max(1, n_w // 3), size=n_w)]
            units = units[rng.integers(max(1, n // 3), size=n)]
        resp = (weights[:, None, None] * units).reshape(-1, k)
        if planted:
            a, b = rng.integers(resp.shape[0], size=2)
            target = resp[a] + resp[b]
        else:
            target = rng.normal(size=k) + 1j * rng.normal(size=k)
        check_pair_rows(target, weights, units, resp)

    @pytest.mark.parametrize("bad", ["target", "weights", "units"])
    def test_non_finite_inputs_keep_every_pair(self, bad):
        rng = np.random.default_rng(0)
        args = {"target": rng.normal(size=5) + 0j, "weights": rng.normal(size=3) + 0j,
                "units": rng.normal(size=(4, 5)) + 0j}
        args[bad].flat[1] = np.nan
        kept, columns, bounded = _pair_rows(**args)
        assert kept.tolist() == list(range(12)) and bounded == 12
        assert [c.tolist() for c in columns] == [list(range(12))] * 12

    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1e150), (1e-150, 1.0, 1e150),
                                        (1e150, 1e-150, 1e150), (1e-100, 1e-100, 1e-100)])
    def test_extreme_magnitudes(self, scales):
        # unit rows near 1e150 put the slack near 1e289: the bound's
        # allowances must not overflow on the way
        t_scale, w_scale, u_scale = scales
        rng = np.random.default_rng(3)
        weights = w_scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
        units = u_scale * (rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7)))
        target = t_scale * (rng.normal(size=7) + 1j * rng.normal(size=7))
        check_pair_rows(target, weights, units, (weights[:, None, None] * units).reshape(-1, 7))

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_same_rows_on_the_oracle_sublattice(self, model):
        spec = quantization_preset("rfic" if model == "ideal" else "pcb")
        grid = FrequencyGrid.linspace(880e6, 920e6, 41)
        rows = _sublattice(spec, 6)
        tm, board = TAP_MODELS[model], PcbBoardParams()
        # the oracle's inputs: weight of each (amp, phase) pair, unit row of
        # each (center, q) pair
        n = 36
        terms = tm.filter(rows[:n, 2], rows[:n, 3], grid.points, board)[0]
        units = tm.combiner(grid.points, board)(1.0, terms)
        gain, turn = weight_factors(rows[::n, 0], rows[::n, 1])
        resp = _tap_rows(model, rows, grid)
        target = synth_si_channel(SynthChannelSpec(), grid).values
        for t in (target, 0.3 * target, resp[5] + resp[1000]):
            kept, columns = check_pair_rows(t, gain * turn, units, resp)
            want_rows, want_cols = pair_rows_full(t, resp)
            assert kept.tolist() == want_rows.tolist()
            assert [c.tolist() for c in columns] == [c.tolist() for c in want_cols]

    @settings(max_examples=40, deadline=None)
    @given(
        n_amp=st.integers(1, 4),
        n=st.integers(1, 12),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
    )
    def test_phases_at_both_ends_of_the_knob(self, n_amp, n, k, seed, planted):
        # the oracle's 6-point sublattice takes phase codes 0 and 255, -pi and
        # pi: two weights of each amplitude that differ only in rounding
        rng = np.random.default_rng(seed)
        phase = quantization_preset("rfic").phase_rad.values()
        gain, turn = weight_factors(rng.uniform(-40.0, -10.0, n_amp), phase[[0, 51, 204, 255]])
        weights = (gain[:, None] * turn).ravel()
        units = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        resp = (weights[:, None, None] * units).reshape(-1, k)
        if planted:
            a, b = rng.integers(resp.shape[0], size=2)
            target = resp[a] + resp[b]
        else:
            target = 0.01 * (rng.normal(size=k) + 1j * rng.normal(size=k))
        check_pair_rows(target, weights, units, resp)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
    )
    def test_fewer_rows_than_the_incumbents_seeds(self, shape, k, seed, planted):
        # p = 1-3 rows: the incumbent's seeds are every row
        n_w, n = shape
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=n_w) + 1j * rng.normal(size=n_w)
        units = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        resp = (weights[:, None, None] * units).reshape(-1, k)
        target = resp[-1] + resp[0] if planted else rng.normal(size=k) + 1j * rng.normal(size=k)
        check_pair_rows(target, weights, units, resp)


def row_bound_inputs(target, weights, units):
    """`_row_bounds`' inputs as `_pair_rows` forms them: weight features,
    Gram matrix, conj <phi, t>, |g_a|^2 and the slack."""
    gram = units @ np.conj(units).T
    tu = units @ np.conj(target)
    u = np.abs(weights)[:, None] ** 2 * gram.diagonal().real - 2.0 * (weights[:, None] * tu).real
    features = np.stack((weights.real, weights.imag, np.abs(weights) ** 2,
                         np.ones(weights.size)), axis=1)
    g2 = np.vdot(target, target).real + u.ravel()
    return features, gram, tu, g2, factored_slack(target, weights, units)


class TestRowBounds:
    """`_row_bounds` bounds each row's pair values from below by the best
    value a partner of any complex weight could give."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_w=st.integers(1, 10),
        n=st.integers(1, 12),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        repeats=st.booleans(),
        odd_row=st.sampled_from([None, "weak", "zero"]),
    )
    def test_below_every_row_minimum(self, n_w, n, k, seed, planted, repeats, odd_row):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=n_w) + 1j * rng.normal(size=n_w)
        units = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        if repeats:
            weights = weights[rng.integers(max(1, n_w // 3), size=n_w)]
            units = units[rng.integers(max(1, n // 3), size=n)]
        if odd_row == "weak":
            # a unit row 10^6 times weaker than the largest
            big = np.max(np.linalg.norm(units, axis=1))
            units[-1] *= 1e-6 * big / np.linalg.norm(units[-1])
        elif odd_row == "zero":
            units[-1] = 0.0
        resp = (weights[:, None, None] * units).reshape(-1, k)
        if planted:
            a, b = rng.integers(resp.shape[0], size=2)
            target = resp[a] + resp[b]
        else:
            target = rng.normal(size=k) + 1j * rng.normal(size=k)
        *inputs, slack = row_bound_inputs(target, weights, units)
        bound = _row_bounds(*inputs, slack)
        mins = np.array([direct_row(target, resp, a).min() for a in range(resp.shape[0])])
        assert (bound <= mins + slack).all()
        if odd_row == "zero":
            assert (bound == -np.inf).all()
            return
        # and it is the relaxed bound, up to the allowance it adds: every
        # unit row's least-squares fit to g_a = t - r_a, taken directly
        g = target - resp
        norm2 = np.sum(np.abs(units) ** 2, axis=1)
        proj = np.abs(g @ np.conj(units).T) ** 2 / norm2
        relaxed = np.sum(np.abs(g) ** 2, axis=1) - proj.max(axis=1)
        allowance = slack * np.sqrt(norm2.max() / norm2.min())
        assert (np.abs(bound - relaxed) <= 2.0 * allowance + slack).all()


def _box(model, taps):
    bounds = quantization_preset("rfic" if model == "ideal" else "pcb").bounds()
    lows = np.tile(bounds.lows(), taps)
    span = np.tile(bounds.highs(), taps) - lows
    return lows, span, np.tile(optimizer._PERIODIC, taps)


class TestAnalyticJacobian:
    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences(self, model, taps, seed):
        grid = FrequencyGrid.linspace(880e6, 920e6, 17)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        lows, span, _ = _box(model, taps)
        x = lows + np.random.default_rng(seed).uniform(0.01, 0.99, size=lows.size) * span
        r, jac = kernel.residual_jacobian(x.reshape(1, -1, 4))
        r, jac = r[0], jac[0]
        assert r.tolist() == (kernel.h_si.values - kernel.response_values(x)).tolist()
        for i in range(x.size):
            h = 1e-6 * span[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (kernel.response_values(xp) - kernel.response_values(xm)) / (2 * h)
            scale = np.max(np.abs(jac[i]))
            assert np.max(np.abs(jac[i] - fd)) <= 1e-6 * scale, (i, scale)


class TestLevenbergMarquardt:
    @settings(max_examples=15, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_strictly_decreases_and_ends_finite(self, model, taps, seed):
        grid = FrequencyGrid.linspace(890e6, 910e6, 21)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        lows, span, periodic = _box(model, taps)
        z0 = np.random.default_rng(seed).uniform(size=lows.size)
        [(z, fz, trace, reason)] = _descend(
            kernel, z0[None], lows, span, periodic, SolveOptions(max_iters=60)
        )
        assert reason in STOP_REASONS
        assert np.all(np.diff(trace) < 0)
        assert np.isfinite(fz) and fz == trace[-1]
        assert np.all((z >= 0) & (z <= 1))
        assert fz == kernel.objective(lows + z * span)

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_leaves_box_edge_toward_interior_optimum(self, edge):
        # every bounded knob starts on a box edge and the planted tap lies
        # inside the box, so each must leave its edge
        cfg = IdealTapConfig(-20.0, 0.5, 900e6, 10.0)
        kernel = ModelKernel("ideal", ideal_tap_response(cfg, GRID))
        lows, span, periodic = _box("ideal", 1)
        z0 = np.array([[edge, 0.3, edge, edge]])
        [(z, fz, trace, reason)] = _descend(kernel, z0, lows, span, periodic, FAST)
        assert fz <= 1e-8 * GRID.count
        assert lows + z * span == pytest.approx(config_vector([cfg])[0], rel=1e-3)

    def test_holds_edge_knob_the_step_pushes_out(self, monkeypatch):
        # the planted center lies just below the 875 MHz floor, so the best
        # center in the box is on that edge; a start with its center there
        # keeps it there while the other knobs converge
        cfg = IdealTapConfig(-20.0, 0.5, 874.9e6, 10.0)
        kernel = ModelKernel("ideal", ideal_tap_response(cfg, GRID))
        lows, span, periodic = _box("ideal", 1)
        blocks, stacks = [], []
        jacobian, solve = kernel.residual_jacobian, optimizer._solve_each
        monkeypatch.setattr(
            kernel, "residual_jacobian",
            lambda xs: blocks.append(xs[:, :, 2].ravel().tolist()) or jacobian(xs),
        )
        monkeypatch.setattr(
            optimizer, "_solve_each", lambda mats, rhs: stacks.append(mats.ndim) or solve(mats, rhs)
        )
        z0 = np.array([[0.5, 0.5, 0.0, 0.5]])
        stats = {}
        [(z, fz, trace, reason)] = _descend(kernel, z0, lows, span, periodic, FAST, stats)
        assert reason == "tol" and z[2] == 0.0
        # one Jacobian call per pass, with the one running start's center on
        # its edge every time
        assert blocks == [[875e6]] * stats["passes"]
        # some trial held the center and was solved again
        assert 3 in stacks

    def test_stops_on_tol(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = solve_continuous("ideal", h, opts=FAST, num_taps=1)
        assert rep.stop_reason == "tol"
        assert rep.iterations < FAST.max_iters

    def test_stops_on_max_iters(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        opts = SolveOptions(restarts=2, max_iters=3, seed=0)
        rep = solve_continuous("ideal", h, opts=opts, num_taps=2)
        assert rep.stop_reason == "max_iters"
        assert rep.iterations == 3

    def test_stops_without_descent_at_exact_fit(self):
        lows, span, periodic = _box("ideal", 1)
        z0 = np.array([0.4, 0.6, 0.5, 0.2])
        h = ModelKernel("ideal", flat_channel(0.0)).response_values(lows + z0 * span)
        kernel = ModelKernel("ideal", ComplexResponse(GRID, h))
        # zero residual, hence zero gradient
        [(z, fz, trace, reason)] = _descend(kernel, z0[None], lows, span, periodic, FAST)
        assert (fz, trace, reason) == (0.0, [0.0], "no_descent")
        # a residual at rounding level: no step lowers it before lam runs out
        [(z, fz, trace, reason)] = _descend(
            kernel, z0[None] + 1e-12, lows, span, periodic, FAST
        )
        assert reason == "no_descent" and fz < 1e-20

    def test_stops_on_non_finite_normal_equations(self):
        # a Q range of 1e300 makes J^T J overflow while the objective at the
        # start (Q = 1) is finite
        kernel = ModelKernel("ideal", synth_si_channel(SynthChannelSpec(), GRID))
        bounds = replace(default_bounds("ideal"), q=(1.0, 1e300))
        lows = bounds.lows()
        span = bounds.highs() - lows
        z0 = np.array([[0.5, 0.5, 0.5, 0.0]])
        with np.errstate(over="ignore"):
            [out] = _descend(kernel, z0, lows, span, _box("ideal", 1)[2], FAST)
        z, fz, trace, reason = out
        assert reason == "non_finite"
        assert np.isfinite(fz) and trace == [fz]

    def test_stop_reason_stays_out_of_report_json(self):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = solve_continuous("ideal", h, opts=FAST, num_taps=1)
        assert "stop_reason" not in rep.to_dict()


def descend_one(kernel, z0, lows, span, periodic, opts, lam_max=1e32):
    """Projected Levenberg-Marquardt for one start as a plain loop, one trial
    at a time: (z, objective, trace, stop_reason) or None."""
    f = kernel.h_si.grid.points
    bounded = ~periodic

    def denorm(z):
        return lows + z * span

    def project(z):
        z = z.copy()
        z[..., periodic] = z[..., periodic] % 1.0
        return np.clip(z, 0.0, 1.0)

    def solve(mat, b):
        try:
            return np.linalg.solve(mat, b)
        except np.linalg.LinAlgError:
            return np.full_like(b, np.nan)

    z = project(z0)
    fz = kernel.objective(denorm(z))
    if not np.isfinite(fz):
        return None
    trace = [fz]
    lam = 1e-3
    while len(trace) <= opts.max_iters:
        taps, jac = kernel.tap_model.jacobian(denorm(z).reshape(-1, 4), f, kernel.board)
        r = kernel.h_si.values - taps.sum(axis=0)
        jz = (jac.reshape(-1, f.size) * span[:, None]).view(np.float64)
        a = jz @ jz.T
        g = jz @ r.view(np.float64)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            return z, fz, trace, "non_finite"
        free = periodic | ~(((z <= 0.0) & (g < 0.0)) | ((z >= 1.0) & (g > 0.0)))
        if not np.any(g[free]):
            return z, fz, trace, "no_descent"
        # frozen rows and columns become identity with a zero right-hand side
        padded = np.where(np.outer(free, free), a, np.eye(z.size))
        rhs = np.where(free, g, 0.0)
        diag = np.diag(a)
        damp = np.where(free, np.maximum(diag, 1e-15 * np.max(diag[free])), 0.0)
        while True:
            damped = padded.copy()
            damped[np.diag_indices(z.size)] += lam * damp
            step = solve(damped, rhs)
            # a bounded knob on its edge that the step pushes out is held like
            # a frozen one, and the trial is solved once more
            held = bounded & (((z <= 0.0) & (step < 0.0)) | ((z >= 1.0) & (step > 0.0)))
            if held.any():
                keep = ~held
                step = solve(np.where(np.outer(keep, keep), damped, np.eye(z.size)),
                             np.where(keep, rhs, 0.0))
            step[bounded] = np.clip(z[bounded] + step[bounded], 0.0, 1.0) - z[bounded]
            cand = project(z + step)
            fc = kernel.objective(denorm(cand)) if np.isfinite(step).all() else np.nan
            if fc < fz:
                break
            lam *= 4.0
            if lam > lam_max or np.array_equal(cand, z):
                return z, fz, trace, "no_descent"
        pred = 2.0 * (step @ g) - step @ a @ step
        if fz - fc > 1.5 * pred:
            far = project(z[None, :] + 2.0 ** np.arange(1, 8)[:, None] * step[None, :])
            ffar = kernel.objective_batch(denorm(far).reshape(far.shape[0], -1, 4))
            k = int(np.argmin(ffar))
            if ffar[k] < fc:
                cand, fc = far[k], float(ffar[k])
        lam /= 3.0
        gain = fz - fc
        z, fz = cand, fc
        trace.append(fz)
        if gain <= _TOL * max(fz, 1e-300):
            return z, fz, trace, "tol"
    return z, fz, trace, "max_iters"


def _bits(res):
    if res is None:
        return None
    z, fz, trace, reason = res
    return z.tobytes(), fz.hex(), [v.hex() for v in trace], reason


class TestLockstep:
    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 3),
        starts=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        non_finite=st.booleans(),
    )
    def test_each_start_matches_its_own_descent(
        self, model, taps, starts, seed, non_finite
    ):
        grid = FrequencyGrid.linspace(885e6, 915e6, 21)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        lows, span, periodic = _box(model, taps)
        rng = np.random.default_rng(seed)
        z0 = rng.uniform(size=(starts, lows.size))
        # knobs on a box edge, so the free masks differ between starts
        edge = ~periodic & (rng.uniform(size=z0.shape) < 0.3)
        z0[edge] = rng.integers(0, 2, size=z0.shape)[edge]
        if non_finite:
            z0[rng.integers(starts), 0] = np.nan
        opts = SolveOptions(max_iters=40)
        stacked = _descend(kernel, z0, lows, span, periodic, opts)
        assert len(stacked) == starts
        assert (stacked.count(None) == 1) == non_finite
        for i in range(starts):
            [alone] = _descend(kernel, z0[i : i + 1], lows, span, periodic, opts)
            ref = descend_one(kernel, z0[i], lows, span, periodic, opts)
            assert _bits(stacked[i]) == _bits(alone) == _bits(ref), i

    def test_start_retired_mid_batch_leaves_the_others_as_alone(self, monkeypatch):
        # the middle start sits on an exact fit: zero residual, zero gradient,
        # so the first pass's check retires it while the others run on
        grid = FrequencyGrid.linspace(885e6, 915e6, 21)
        lows, span, periodic = _box("ideal", 1)
        z_fit = np.array([0.4, 0.6, 0.5, 0.2])
        h = ModelKernel("ideal", flat_channel(0.0, grid)).response_values(lows + z_fit * span)
        kernel = ModelKernel("ideal", ComplexResponse(grid, h))
        z0 = np.array([[0.1, 0.3, 0.7, 0.6], z_fit, [0.8, 0.9, 0.2, 0.4]])
        opts = SolveOptions(max_iters=40)
        alone = [_descend(kernel, z0[i : i + 1], lows, span, periodic, opts)[0]
                 for i in range(3)]
        rows, jacobian = [], kernel.residual_jacobian
        monkeypatch.setattr(kernel, "residual_jacobian",
                            lambda xs: rows.append(xs.shape[0]) or jacobian(xs))
        stats = {}
        stacked = _descend(kernel, z0, lows, span, periodic, opts, stats)
        assert [_bits(r) for r in stacked] == [_bits(r) for r in alone]
        assert (stacked[1][2], stacked[1][3]) == ([0.0], "no_descent")
        assert len(stacked[0][2]) > 2 and len(stacked[2][2]) > 2
        # one Jacobian call per pass, one row block per running start: three
        # in the first pass, then the two that run on
        assert len(rows) == stats["passes"] and rows[:2] == [3, 2]

    @staticmethod
    def _descend_both(kernel, z0, lows, span, periodic, opts, lam_max=1e32):
        """The lockstep result and passes for the starts z0, each start's
        `descend_one` result, and the objectives of each start's trials."""
        stats = {}
        stacked = _descend(kernel, z0, lows, span, periodic, opts, stats)
        refs, trials = [], []
        objective = kernel.objective
        for z in z0:
            values = []
            kernel.objective = lambda x: values.append(objective(x)) or values[-1]
            try:
                refs.append(descend_one(kernel, z, lows, span, periodic, opts, lam_max))
            finally:
                del kernel.objective
            trials.append(values[1:])
        return stacked, stats["passes"], refs, trials

    @staticmethod
    def _ladder(trace, trials):
        """For a start that stops on a rejected trial: the passes a ladder of
        three rungs takes for its trials, and the rung of its last trial."""
        k, run, passes = 0, 0, 0
        for v in trials:
            run += 1
            if v < trace[k]:
                k, run, passes = k + 1, 0, passes + (run - 1) // 3 + 1
        return passes + (run - 1) // 3 + 1, (run - 1) % 3

    @pytest.mark.parametrize("rejections", [1, 2, 4, 5])
    def test_stops_when_lam_runs_out_on_later_rung(self, monkeypatch, rejections):
        # the first seven trials of this start are rejected; lam_max just
        # above lam0 * 4**j runs lam out on trial j + 1, rung j % 3 of pass
        # j // 3 + 1
        lam_max = optimizer._LAMBDA0 * 4.0**rejections * (1.0 + 1e-9)
        monkeypatch.setattr(optimizer, "_LAMBDA_MAX", lam_max)
        grid = FrequencyGrid.linspace(885e6, 915e6, 21)
        kernel = ModelKernel("ideal", synth_si_channel(SynthChannelSpec(), grid))
        lows, span, periodic = _box("ideal", 1)
        z0 = np.random.default_rng(11).uniform(size=(1, 4))
        [res], passes, [ref], [trials] = self._descend_both(
            kernel, z0, lows, span, periodic, SolveOptions(max_iters=40), lam_max
        )
        assert _bits(res) == _bits(ref)
        assert (len(res[2]), res[3], len(trials)) == (1, "no_descent", rejections + 1)
        assert self._ladder(res[2], trials) == (passes, rejections % 3)
        assert passes == rejections // 3 + 1

    @pytest.mark.parametrize(
        "z_fit, offset, rung",
        [([0.6, 0.62, 0.89, 0.12], 1e-11, 1), ([0.73, 0.17, 0.63, 0.22], -1e-15, 2)],
    )
    def test_stops_when_step_no_longer_moves_on_later_rung(self, z_fit, offset, rung):
        # next to an exact fit, the steps shrink below the spacing of z
        # after a few rejections, with lam far below _LAMBDA_MAX
        lows, span, periodic = _box("ideal", 1)
        z_fit = np.array(z_fit)
        h = ModelKernel("ideal", flat_channel(0.0)).response_values(lows + z_fit * span)
        kernel = ModelKernel("ideal", ComplexResponse(GRID, h))
        [res], passes, [ref], [trials] = self._descend_both(
            kernel, z_fit[None] + offset, lows, span, periodic, FAST
        )
        assert _bits(res) == _bits(ref)
        assert res[3] == "no_descent" and self._ladder(res[2], trials) == (passes, rung)

    def test_singular_rung_gets_nan_step_and_later_rung_is_tried(self, monkeypatch):
        # LAPACK reports a damped LM matrix singular only at an exact zero
        # pivot; this stand-in calls a matrix singular by a hash of its bytes,
        # the same for the stacked and the one-start solver
        solve = np.linalg.solve
        stacks = []

        def flaky_solve(mats, rhs):
            flags = np.array([
                zlib.crc32(mat.tobytes()) % 5 == 0
                for mat in np.ascontiguousarray(mats).reshape(-1, *mats.shape[-2:])
            ]).reshape(mats.shape[:-2])
            if mats.ndim == 4:
                stacks.append(flags)
            if flags.any():
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(mats, rhs)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        grid = FrequencyGrid.linspace(885e6, 915e6, 21)
        kernel = ModelKernel("ideal", synth_si_channel(SynthChannelSpec(), grid))
        lows, span, periodic = _box("ideal", 2)
        z0 = np.random.default_rng(3).uniform(size=(4, lows.size))
        # the NaN step of a singular matrix is rejected without being scored,
        # so no kernel sees a NaN knob
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked, _, refs, _ = self._descend_both(
                kernel, z0, lows, span, periodic, SolveOptions(max_iters=30)
            )
        assert [_bits(r) for r in stacked] == [_bits(r) for r in refs]
        assert any((f[:, :-1] & ~f[:, 1:]).any() for f in stacks)

    def test_logs_each_start_at_debug(self, caplog):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        opts = SolveOptions(restarts=3, max_iters=30, seed=0)
        rep = solve_continuous("ideal", h, opts=opts, num_taps=1)
        assert not [r for r in caplog.records if r.name == "fdecanc"]
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            again = solve_continuous("ideal", h, opts=opts, num_taps=1)
        assert again.to_dict() == rep.to_dict()
        *records, _ = [r for r in caplog.records if r.name == "fdecanc"]
        assert [r.start for r in records] == [0, 1, 2]
        assert all(r.levelno == logging.DEBUG for r in records)
        best = records[rep.restart_index]
        assert (best.iterations, best.stop_reason, best.objective) == (
            rep.iterations, rep.stop_reason, rep.objective
        )
        assert all(r.stop_reason in STOP_REASONS for r in records)

    def test_logs_start_with_non_finite_objective(self, caplog):
        # amplitudes above about 3080 dB overflow the objective: with this
        # seed, starts 1 and 3 begin there
        h = synth_si_channel(SynthChannelSpec(), GRID)
        bounds = replace(default_bounds("ideal"), amp_db=(-40.0, 1e4))
        opts = SolveOptions(restarts=4, max_iters=20, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with caplog.at_level(logging.DEBUG, logger="fdecanc"):
                solve_continuous("ideal", h, bounds=bounds, opts=opts, num_taps=1)
        *records, _ = [r for r in caplog.records if r.name == "fdecanc"]
        assert [r.getMessage().endswith("not finite at the start point")
                for r in records] == [False, True, False, True]

    def test_logs_each_solve_at_debug(self, caplog):
        h = synth_si_channel(SynthChannelSpec(), GRID)
        opts = SolveOptions(restarts=3, max_iters=30, seed=0)
        rep = solve_continuous("ideal", h, opts=opts, num_taps=2)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            again = solve_continuous("ideal", h, opts=opts, num_taps=2)
        assert again.to_json() == rep.to_json()
        records = [r for r in caplog.records if r.name == "fdecanc"]
        assert len(records) == 4 and not hasattr(records[0], "passes")
        solve = records[-1]
        # the same starts as the solve's: its seeded draws, in the same box
        lows, span, periodic = _box("ideal", 2)
        z0 = np.random.default_rng(0).uniform(size=(3, 8))
        stats = {}
        _descend(ModelKernel("ideal", h), z0, lows, span, periodic, opts, stats)
        assert (solve.starts, solve.passes, solve.configs) == (
            3, stats["passes"], stats["configs"]
        )
        assert solve.passes >= rep.iterations and solve.wall_s > 0
        assert solve.getMessage().startswith(f"solve: 3 starts, {solve.passes} passes")


def local_search_scalar(qconfig, model, h_si, spec, max_rounds=10):
    """Coordinate search with one scalar objective call per move:
    (trace, final knob matrix, rounds)."""
    kernel = ModelKernel(model, h_si)
    knob_vals = [k.values() for k in spec.knobs()]
    x0 = config_vector(qconfig)
    # each knob's nearest code, the first on a tie
    idx = np.array(
        [[int(np.argmin(np.abs(v - x))) for v, x in zip(knob_vals, row)] for row in x0]
    )

    def vec(ix):
        return np.array(
            [[knob_vals[j][ix[i, j]] for j in range(4)] for i in range(ix.shape[0])]
        )

    fx = kernel.objective(vec(idx))
    trace = [fx]
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for i in range(idx.shape[0]):
            for j, knob in enumerate(spec.knobs()):
                n = knob_vals[j].size
                for delta in (-1, 1):
                    cand = idx.copy()
                    k = idx[i, j] + delta
                    if knob.periodic:
                        k %= n
                    elif k < 0 or k >= n:
                        continue
                    cand[i, j] = k
                    fc = kernel.objective(vec(cand))
                    if fc < fx:
                        idx, fx = cand, fc
                        trace.append(fx)
                        improved = True
        if not improved:
            break
    return trace, vec(idx), rounds


class TestLocalSearchReference:
    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        max_rounds=st.integers(1, 12),
        edges=st.booleans(),
        points=st.sampled_from([31, 101]),
    )
    def test_accepts_same_sequence(self, model, taps, seed, max_rounds, edges, points):
        # the screen's slack grows with the grid's point count
        spec = quantization_preset("rfic" if model == "ideal" else "pcb")
        grid = FrequencyGrid.linspace(880e6, 920e6, points)
        h = synth_si_channel(SynthChannelSpec(), grid)
        rng = np.random.default_rng(seed)
        knob_vals = [k.values() for k in spec.knobs()]
        codes = np.array([[rng.integers(v.size) for v in knob_vals] for _ in range(taps)])
        if edges:
            # first or last codes: the phase wraps there, the others sit on
            # the box edge with one move
            last = np.array([v.size - 1 for v in knob_vals])
            edge = rng.uniform(size=codes.shape) < 0.5
            codes[edge] = (rng.integers(0, 2, size=codes.shape) * last)[edge]
        x = np.array([[v[c] for v, c in zip(knob_vals, row)] for row in codes])
        start = TAP_MODELS[model].configs(x)
        rep = local_search(start, model, h, spec, max_rounds=max_rounds)
        trace, x_ref, rounds = local_search_scalar(start, model, h, spec, max_rounds)
        assert rep.trace == trace
        assert rep.objective == trace[-1]
        assert rep.iterations == rounds
        assert config_vector(rep.config).tolist() == x_ref.tolist()

    @pytest.mark.parametrize("knob, grid_knob", [
        # one code: a bounded knob has no move, a periodic one moves to itself
        ("q", KnobSpec(0.5, 1.0, step=1.0)),
        ("phase_rad", KnobSpec(-np.pi, np.pi, step=7.0, periodic=True)),
        # two codes: a periodic knob's -1 and +1 moves are the same code
        ("phase_rad", KnobSpec(-np.pi, np.pi, bits=1, periodic=True)),
        ("amp_db", KnobSpec(-20.0, -10.0, step=10.0)),
    ])
    def test_accepts_same_sequence_with_tiny_knobs(self, knob, grid_knob):
        spec = replace(quantization_preset("rfic"), **{knob: grid_knob})
        grid = FrequencyGrid.linspace(880e6, 920e6, 31)
        h = synth_si_channel(SynthChannelSpec(), grid)
        bounds = spec.bounds()
        x = np.clip([[-20.0, 0.5, 9e8, 10.0], [-15.0, -2.0, 8.9e8, 1.0]],
                    bounds.lows(), bounds.highs())
        start = quantize_config(TAP_MODELS["ideal"].configs(x), spec)
        rep = local_search(start, "ideal", h, spec)
        trace, x_ref, rounds = local_search_scalar(start, "ideal", h, spec)
        assert len(trace) > 1
        assert rep.trace == trace and rep.iterations == rounds
        assert config_vector(rep.config).tolist() == x_ref.tolist()

    def test_logs_each_search_at_debug(self, caplog):
        spec = quantization_preset("pcb")
        grid = FrequencyGrid.linspace(880e6, 920e6, 31)
        h = synth_si_channel(SynthChannelSpec(), grid)
        start = quantize_config(
            [PcbTapConfig(-6.0, 0.5, 1.2, 5.0), PcbTapConfig(-9.0, -2.0, 1.8, 9.0)], spec
        )
        rep = local_search(start, "pcb", h, spec, max_rounds=20)
        assert not [r for r in caplog.records if r.name == "fdecanc"]
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            again = local_search(start, "pcb", h, spec, max_rounds=20)
        assert again.to_json() == rep.to_json()
        [rec] = [r for r in caplog.records if r.name == "fdecanc"]
        assert rec.levelno == logging.DEBUG
        assert (rec.rounds, rec.accepted) == (rep.iterations, len(rep.trace) - 1)
        assert rec.stop_reason == rep.stop_reason and rec.stop_reason in STOP_REASONS
        # each round scores one or two codes of each of the 8 knobs.  The
        # memo is looked up for the two start keys, then each round for
        # each tap's block of (center +/-1, q +/-1) keys: 3x3, or 2x2 at a
        # corner of the box.  A block holds keys that no candidate scores,
        # so its keys are not bounded by the candidates; each holds its
        # tap's key, looked up before, so every round reuses two at least.
        assert 8 * rec.rounds <= rec.scored <= 16 * rec.rounds
        looked = rec.filters_computed + rec.filters_reused
        assert 2 + 8 * rec.rounds <= looked <= 2 + 18 * rec.rounds
        assert rec.filters_reused >= 2 * rec.rounds and rec.filters_computed >= 2
        # every accepted move was scored exactly, and the screen ruled out
        # most of the other candidates
        assert rec.accepted <= rec.exact < rec.scored / 2
        assert rec.wall_s > 0
        assert rec.getMessage().startswith(f"local search: {rec.rounds} rounds")


class TestBenchmarkShapedSearch:
    """Random 4-tap starts on 101-point grids with 50 rounds, as the
    benchmark's lattice searches: walks of hundreds of moves, far past the
    property test's 12 rounds, take the reference search's moves."""

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_long_walks_match_the_reference(self, model):
        spec = quantization_preset(TAP_MODELS[model].preset)
        bounds = spec.bounds()
        rng = np.random.default_rng(2101)
        walks = []
        for bandwidth in (20e6, 80e6):
            grid = FrequencyGrid.linspace(900e6 - bandwidth / 2, 900e6 + bandwidth / 2, 101)
            h = synth_si_channel(SynthChannelSpec(
                isolation_db=float(rng.uniform(-30.0, -15.0)),
                base_delay_s=float(rng.uniform(5e-9, 15e-9)),
            ), grid)
            x = rng.uniform(bounds.lows(), bounds.highs(), size=(4, 4))
            start = quantize_config(TAP_MODELS[model].configs(x), spec)
            rep = local_search(start, model, h, spec, max_rounds=50)
            trace, x_ref, rounds = local_search_scalar(start, model, h, spec, 50)
            assert rep.trace == trace
            assert rep.iterations == rounds
            assert config_vector(rep.config).tolist() == x_ref.tolist()
            walks.append(len(trace) - 1)
        assert min(walks) >= 100


class TestVisitScreen:
    """The screen of a visit to a tap bounds every candidate's objective from
    below, along a walk of moves that need not improve: g is computed once
    at the visit's start and kept through the visit's own moves, as
    `local_search` keeps it."""

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        phase_edges=st.booleans(),
        points=st.sampled_from([3, 31, 101]),
    )
    def test_never_rules_out_an_improving_move(self, model, taps, seed, phase_edges, points):
        spec = quantization_preset(TAP_MODELS[model].preset)
        grid = FrequencyGrid.linspace(880e6, 920e6, points)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        target, lat = kernel._target, optimizer._Lattice(kernel, spec)
        gain, turn = lat.gain.tolist(), lat.turn.tolist()
        moves = [k.moves for k in spec.knobs()]
        rng = np.random.default_rng(seed)
        codes = [[int(rng.integers(v.size)) for v in lat.values] for _ in range(taps)]
        if phase_edges:
            # phase codes 0 and 255 are -pi and pi: a move across them
            # changes the objective by rounding only
            for code in codes:
                code[1] = int(rng.choice([0, lat.values[1].size - 1]))
        coef = 16.0 * (points + taps + 8) * np.finfo(float).eps
        tau = float(np.linalg.norm(target))

        def rows_of(codes):
            w = [gain[a] * turn[p] for a, p, _, _ in codes]
            entries = lat.entries([(c, q) for _, _, c, q in codes])
            return w, entries, lat.combine(np.array(w)[:, None], np.array([e[0] for e in entries]))

        w, entries, rows = rows_of(codes)
        resid = optimizer._residual_objectives(target, rows)[0]
        for _ in range(3):
            for i in range(taps):
                c, q = codes[i][2:]
                keys = [(u, v) for u in (c, *moves[2][c]) for v in (q, *moves[3][q])]
                lat.entries(keys)
                norm = tau + sum(abs(wm) * np.sqrt(e[2]) for wm, e in zip(w, entries))
                bound = optimizer._visit_screen(resid, rows[i], keys, lat.memo, norm, coef)
                for j in range(4):
                    options = moves[j][codes[i][j]]
                    for k in options:
                        cand = [list(code) for code in codes]
                        cand[i][j] = k
                        cw, _, crows = rows_of(cand)
                        fc = float(optimizer._residual_objectives(target, crows)[1])
                        assert bound(cw[i], tuple(cand[i][2:])) <= fc
                    # a random move of the knob or none, better or not; g stays
                    if options and rng.uniform() < 0.7:
                        codes[i][j] = int(rng.choice(options))
                        w, entries, rows = rows_of(codes)
                        resid = optimizer._residual_objectives(target, rows)[0]


class TestLattice:
    """A tap row that `_Lattice` assembles from its tables and memoized filter
    terms is bitwise the kernel's row of the tap's knob values."""

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_the_kernels(self, model, seed):
        grid = FrequencyGrid.linspace(880e6, 920e6, 31)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        lat = optimizer._Lattice(kernel, quantization_preset(TAP_MODELS[model].preset))
        rng = np.random.default_rng(seed)
        seen = set()
        prev = None
        for _ in range(3):
            codes = np.array([[rng.integers(v.size) for v in lat.values] for _ in range(5)])
            # a key twice in one call, and keys of the previous call: memo
            # misses and hits in one lookup
            codes[1, 2:] = codes[0, 2:]
            if prev is not None:
                codes[2:4, 2:] = prev[[0, 4], 2:]
            keys = list(map(tuple, codes[:, 2:].tolist()))
            hits = [key in lat.memo for key in keys]
            entries = lat.entries(keys)
            seen.update(keys)
            assert len(lat.memo) == len(seen)
            assert (prev is None) == (not any(hits))
            x = lat.point(codes)
            assert x.tolist() == [[v[c] for v, c in zip(lat.values, row)] for row in codes]
            want = kernel._kernel(x, kernel._f, kernel.board)
            weights = lat.gain[codes[:, 0]] * lat.turn[codes[:, 1]]
            terms = np.array([e[0] for e in entries])
            assert lat.combine(weights[:, None], terms).tobytes() == want.tobytes()
            for (a, p, c, q), row in zip(codes.tolist(), want):
                got = lat.combine(lat.gain[a] * lat.turn[p], lat.memo[c, q][0])
                assert got.tobytes() == row.tobytes()
            prev = codes

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_memo_holds_unit_rows_once(self, model):
        grid = FrequencyGrid.linspace(880e6, 920e6, 31)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        lat = optimizer._Lattice(kernel, quantization_preset(TAP_MODELS[model].preset))
        lat.entries([(3, 4), (5, 6)])
        # hits, misses and a key twice in one call
        keys = [(5, 6), (7, 8), (3, 4), (7, 8), (9, 1)]
        entries = lat.entries(keys)
        assert list(lat.memo) == [(3, 4), (5, 6), (7, 8), (9, 1)]
        assert [lat.memo[key] for key in keys] == entries
        for term, unit, phi2 in entries:
            assert unit.tobytes() == lat.combine(1.0, term).tobytes()
            assert phi2 == pytest.approx(float(np.vdot(unit, unit).real), rel=1e-13)
        # each term and unit row is stored once: the memo's arrays are rows
        # of the filter calls' outputs, which hold nothing else
        held = {id(a.base): a.base.nbytes for e in lat.memo.values() for a in e[:2]}
        assert sum(held.values()) == len(lat.memo) * 2 * grid.count * 16

    @pytest.mark.parametrize("preset", ["rfic", "pcb"])
    def test_python_weights_are_numpys(self, preset):
        # local_search multiplies gains and turns as Python numbers
        vals = [k.values() for k in quantization_preset(preset).knobs()]
        gain, turn = weight_factors(vals[0], vals[1])
        products = [g * t for g in gain.tolist() for t in turn.tolist()]
        assert np.array(products).tobytes() == (gain[:, None] * turn).tobytes()

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_oracle_screens_the_memos_unit_rows(self, model, monkeypatch):
        spec = quantization_preset(TAP_MODELS[model].preset)
        h = synth_si_channel(SynthChannelSpec(), GRID)
        calls = []

        def spy(target, weights, units):
            calls.append(units)
            return _pair_rows(target, weights, units)

        monkeypatch.setattr(optimizer, "_pair_rows", spy)
        rep = grid_search_oracle(model, h, spec, 3, 2)
        (units,) = calls
        rows = _sublattice(spec, 3)
        filt = TAP_MODELS[model].filter(rows[:9, 2], rows[:9, 3], GRID.points, PcbBoardParams())
        combine = TAP_MODELS[model].combiner(GRID.points, PcbBoardParams())
        assert units.tobytes() == combine(1.0, filt[0]).tobytes()
        fbest, (i, j) = brute_force_pair(h.values, _tap_rows(model, rows, GRID))
        assert rep.objective == fbest
        assert config_vector(rep.config).tolist() == rows[[i, j]].tolist()


class TestKernelCombiner:
    """A `ModelKernel` builds its model's combiner once, and its kernel and
    Jacobian stay bitwise those that build the combiner on every call."""

    @pytest.mark.parametrize("model", ["ideal", "pcb"])
    def test_built_once_per_kernel(self, model, monkeypatch):
        tm = TAP_MODELS[model]
        built = []

        def counting(f, board):
            built.append(f)
            return tm.combiner(f, board)

        monkeypatch.setitem(TAP_MODELS, model, replace(tm, combiner=counting))
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), GRID))
        lows, span, _ = _box(model, 3)
        xs = (lows + np.random.default_rng(3).uniform(size=(5, 12)) * span).reshape(5, 3, 4)
        rows = xs.reshape(-1, 4)
        f, board = GRID.points, PcbBoardParams()
        want_taps, want_jac = tm.jacobian(rows, f, board)
        want_obj = optimizer._residual_objectives(kernel._target, want_taps.reshape(5, 3, -1))[1]
        for _ in range(3):
            assert kernel.objective_batch(xs).tobytes() == want_obj.tobytes()
            r, jac = kernel.residual_jacobian(xs)
            assert jac.tobytes() == want_jac.reshape(5, 12, -1).tobytes()
            assert kernel.objective(xs[0]) == want_obj[0]
        assert len(built) == 1


class TestOracleRunRecord:
    def test_logs_each_oracle_search_at_debug(self, caplog, monkeypatch):
        spec = quantization_preset("pcb")
        h = synth_si_channel(SynthChannelSpec(), GRID)
        rep = grid_search_oracle("pcb", h, spec, 3, 2)
        assert not [r for r in caplog.records if r.name == "fdecanc"]
        screens = []

        def spy(*args):
            screens.append(_pair_rows(*args))
            return screens[-1]

        monkeypatch.setattr(optimizer, "_pair_rows", spy)
        with caplog.at_level(logging.DEBUG, logger="fdecanc"):
            again = grid_search_oracle("pcb", h, spec, 3, 2)
            one = grid_search_oracle("pcb", h, spec, 3, 1)
        assert again.to_json() == rep.to_json()
        pair, single = [r for r in caplog.records if r.name == "fdecanc"]
        assert pair.levelno == logging.DEBUG
        assert pair.configs == rep.iterations == 81**2
        # the screen keeps at least the best pair's row, far from all 81,
        # and the pairs scored directly are its kept rows' columns
        (kept, columns, bounded), = screens
        assert 1 <= pair.rows_kept == kept.size < 81
        # the row bound leaves the GEMM screen at least the rows it keeps
        assert pair.rows_kept <= pair.rows_bounded <= 81
        assert pair.rows_bounded == bounded
        assert pair.scanned == sum(c.size for c in columns) <= 81 * pair.rows_kept
        assert (single.configs, single.rows_bounded, single.rows_kept, single.scanned) == (
            one.iterations, 0, 0, 81)
        assert pair.wall_s > 0 and single.wall_s > 0
        assert pair.getMessage().startswith(f"oracle: 6561 configs, {pair.rows_kept} rows")
