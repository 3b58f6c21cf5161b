import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdecanc import (
    FrequencyGrid,
    IdealTapConfig,
    InvalidArgumentError,
    PcbBoardParams,
    PcbTapConfig,
    SynthChannelSpec,
    amplitude_db,
    db_to_linear,
    group_delay,
    ideal_tap_response,
    multi_tap_response,
    pcb_bpf_response_abcd,
    pcb_bpf_response_closed_form,
    pcb_canceller_response,
    quantization_preset,
    shunt_admittance,
    synth_si_channel,
    tline_matrix,
)
from fdecanc.models import TAP_MODELS, weight_factors
from fdecanc.optimizer import ModelKernel

GRID = FrequencyGrid.linspace(850e6, 950e6, 101)


class TestIdealTap:
    def test_unity_at_center(self):
        cfg = IdealTapConfig(0.0, 0.0, 900e6, 10.0)
        r = ideal_tap_response(cfg, GRID)
        k = np.argmin(np.abs(GRID.points - 900e6))
        assert r.values[k] == pytest.approx(1 + 0j, abs=1e-15)

    def test_phase_rotation_at_center(self):
        cfg = IdealTapConfig(0.0, np.pi / 2, 900e6, 10.0)
        r = ideal_tap_response(cfg, GRID)
        k = np.argmin(np.abs(GRID.points - 900e6))
        assert r.values[k] == pytest.approx(-1j, abs=1e-12)

    def test_magnitude_off_center(self):
        # direct evaluation of 1/sqrt(1+(Q(fc/f - f/fc))^2) at 890 MHz
        cfg = IdealTapConfig(0.0, 0.0, 900e6, 10.0)
        r = ideal_tap_response(cfg, GRID)
        k = np.argmin(np.abs(GRID.points - 890e6))
        expect = 1.0 / np.hypot(1.0, 10.0 * (900 / 890 - 890 / 900))
        assert abs(r.values[k]) == pytest.approx(expect, rel=1e-12)

    def test_center_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(-40, -10)
            ph = rng.uniform(-np.pi, np.pi)
            q = rng.uniform(1, 50)
            fc = float(rng.choice(GRID.points[1:-1]))
            r = ideal_tap_response(IdealTapConfig(a, ph, fc, q), GRID)
            k = np.argmin(np.abs(GRID.points - fc))
            assert abs(r.values[k]) == pytest.approx(db_to_linear(a), rel=1e-14)
            assert np.angle(r.values[k]) == pytest.approx(-ph, abs=1e-12)

    def test_magnitude_symmetry(self):
        cfg = IdealTapConfig(-12.0, 0.7, 900e6, 25.0)
        f1 = 880e6
        f2 = 900e6**2 / f1
        g = FrequencyGrid(np.array([f1, f2]))
        r = ideal_tap_response(cfg, g)
        assert abs(r.values[0]) == pytest.approx(abs(r.values[1]), rel=1e-12)

    def test_invalid_config(self):
        with pytest.raises(InvalidArgumentError):
            IdealTapConfig(0.0, 0.0, 900e6, -1.0)
        with pytest.raises(InvalidArgumentError):
            IdealTapConfig(0.0, 4.0, 900e6, 10.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_knobs_rejected(self, bad):
        for knobs in ((bad, 0.0, 900e6, 10.0), (0.0, 0.0, bad, 10.0), (0.0, 0.0, 900e6, bad)):
            with pytest.raises(InvalidArgumentError):
                IdealTapConfig(*knobs)
        for knobs in ((bad, 0.0, 1.5, 8.0), (0.0, 0.0, bad, 8.0), (0.0, 0.0, 1.5, bad)):
            with pytest.raises(InvalidArgumentError):
                PcbTapConfig(*knobs)

    @pytest.mark.parametrize("cls,filt", [(IdealTapConfig, (900e6, 10.0)),
                                          (PcbTapConfig, (1.5, 8.0))])
    def test_amp_db_needs_a_finite_linear_gain(self, cls, filt):
        # 10^(amp_db/20) overflows a double above about 6165 dB
        for amp_db in (6166.0, 1e6, np.float64(1e6), -np.inf):
            with pytest.raises(InvalidArgumentError, match="amp_db"):
                cls(amp_db, 0.0, *filt)
        for amp_db in (6165.0, -1e6):
            cfg = cls(amp_db, 0.0, *filt)
            assert np.isfinite(weight_factors(cfg.amp_db, cfg.phase_rad)[0])

    def test_zero_frequency_rejected(self):
        g = FrequencyGrid(np.array([0.0, 1e6]))
        with pytest.raises(InvalidArgumentError):
            ideal_tap_response(IdealTapConfig(0, 0, 900e6, 10), g)


class TestMultiTap:
    def test_single_tap_equals(self):
        cfg = IdealTapConfig(-15.0, 0.3, 905e6, 12.0)
        assert np.array_equal(
            multi_tap_response([cfg], GRID).values,
            ideal_tap_response(cfg, GRID).values,
        )

    def test_destructive_pair(self):
        c1 = IdealTapConfig(-10.0, 0.5, 900e6, 10.0)
        c2 = IdealTapConfig(-10.0, 0.5 - np.pi, 900e6, 10.0)
        r = multi_tap_response([c1, c2], GRID)
        assert np.max(np.abs(r.values)) < 1e-15

    def test_additivity(self):
        c1 = IdealTapConfig(-12.0, 0.1, 890e6, 8.0)
        c2 = IdealTapConfig(-18.0, -1.2, 915e6, 30.0)
        lhs = multi_tap_response([c1, c2], GRID).values
        rhs = ideal_tap_response(c1, GRID).values + ideal_tap_response(c2, GRID).values
        assert np.array_equal(lhs, rhs)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            multi_tap_response([], GRID)


class TestTlineMatrix:
    def test_zero_length_identity(self):
        m = tline_matrix(0.0, 50.0)
        assert (m.a, m.b, m.c, m.d) == (1.0, 0j, 0j, 1.0)

    def test_quarter_wave(self):
        m = tline_matrix(np.pi / 2, 50.0)
        assert abs(m.a) < 1e-15 and abs(m.d) < 1e-15
        assert m.b == pytest.approx(50j, abs=1e-12)
        assert m.c == pytest.approx(0.02j, abs=1e-15)

    def test_default_length(self):
        m = tline_matrix(1.37, 50.0)
        assert m.a == pytest.approx(np.cos(1.37), rel=1e-15)
        assert m.b == pytest.approx(1j * 50 * np.sin(1.37), rel=1e-15)

    def test_unit_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = tline_matrix(rng.uniform(0, np.pi), rng.uniform(10, 200))
            assert abs(m.det() - 1.0) < 1e-12


class TestShuntAdmittance:
    def test_resonance_is_real(self):
        r, l, c = 50.0, 1.65e-9, 18.9525e-12
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * c))
        y = shunt_admittance(r, l, c, f0)
        assert y.real == pytest.approx(1 / 50.0, rel=1e-12)
        assert abs(y.imag) < 1e-12

    def test_lossless_tank_near_zero(self):
        l, c = 1.65e-9, 18.9525e-12
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * c))
        y = shunt_admittance(1e15, l, c, f0)
        assert abs(y) < 1e-10

    def test_resonance_capacitance_value(self):
        c = 1.0 / ((2 * np.pi * 900e6) ** 2 * 1.65e-9)
        assert c == pytest.approx(18.95e-12, rel=1e-3)
        y = shunt_admittance(50.0, 1.65e-9, c, 900e6)
        assert abs(y.imag) < 1e-12

    def test_nonpositive_frequency(self):
        with pytest.raises(InvalidArgumentError):
            shunt_admittance(50.0, 1e-9, 1e-12, 0.0)


DEFAULT_TAP = PcbTapConfig(0.0, 0.0, 1.5, 8.0)


class TestPcbBpf:
    def test_decoupled_limit(self):
        f0 = 900e6
        cf = 1e12 / ((2 * np.pi * f0) ** 2 * 1.65e-9)
        cq = 1e12 / ((2 * np.pi * f0) ** 2 * 2.85e-9)
        params = PcbBoardParams(r_f_ohm=1e12, r_q_ohm=1e12)
        g = FrequencyGrid(np.array([f0 - 1e6, f0, f0 + 1e6]))
        r = pcb_bpf_response_abcd(PcbTapConfig(0, 0, cf, cq), params, g)
        pred = 1.0 / (50.0 * 1j * np.sin(2 * 1.37) / 50.0)
        assert r.values[1] == pytest.approx(pred, rel=1e-8)

    def test_zero_electrical_length(self):
        params = PcbBoardParams(beta_l_rad=0.0)
        g = FrequencyGrid.linspace(890e6, 910e6, 5)
        r = pcb_bpf_response_abcd(DEFAULT_TAP, params, g)
        for k, f in enumerate(g.points):
            y_f = shunt_admittance(params.r_f_ohm, 1.65e-9, 1.5e-12, f)
            y_q = shunt_admittance(params.r_q_ohm, 2.85e-9, 8e-12, f)
            assert r.values[k] == pytest.approx(
                1.0 / (params.r_s_ohm * (y_f + 2 * y_q)), rel=1e-12
            )

    def test_closed_form_matches_abcd_default(self):
        params = PcbBoardParams()
        a = pcb_bpf_response_abcd(DEFAULT_TAP, params, GRID)
        c = pcb_bpf_response_closed_form(DEFAULT_TAP, params, GRID)
        rel = np.abs(a.values - c.values) / np.abs(a.values)
        assert np.max(rel) < 1e-10

    def test_closed_form_matches_abcd_random(self):
        params = PcbBoardParams()
        rng = np.random.default_rng(3)
        for _ in range(20):
            cfg = PcbTapConfig(0, 0, rng.uniform(0.6, 2.4), rng.uniform(2, 14))
            a = pcb_bpf_response_abcd(cfg, params, GRID)
            c = pcb_bpf_response_closed_form(cfg, params, GRID)
            rel = np.abs(a.values - c.values) / np.abs(a.values)
            assert np.max(rel) < 1e-9

    def test_cascade_unit_determinant(self):
        from fdecanc.models import _rlc_admittance, shunt_matrix

        params = PcbBoardParams()
        w = 2.0 * np.pi * GRID.points
        y_f = _rlc_admittance(params.r_f_ohm, params.l_f_nh * 1e-9, DEFAULT_TAP.cf_pf * 1e-12, w)
        y_q = _rlc_admittance(params.r_q_ohm, params.l_q_nh * 1e-9, DEFAULT_TAP.cq_pf * 1e-12, w)
        tl = tline_matrix(params.beta_l_rad, params.z0_ohm)
        for k in range(0, GRID.count, 10):
            m = (
                shunt_matrix(y_q[k])
                @ tl
                @ shunt_matrix(y_f[k])
                @ tl
                @ shunt_matrix(y_q[k])
            )
            assert abs(m.det() - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "cfg, expect",
        [
            (DEFAULT_TAP, ["(0.07357399825442608-0.004250314875512151j)",
                           "(0.09712812854599938-0.04009719667840275j)",
                           "(0.09918278331605111-0.10220303278708653j)"]),
            (PcbTapConfig(-3.0, 1.0, 0.6, 14.0),
             ["(-0.1106504738692979-0.08380385826952833j)",
              "(-0.10424859837724233-0.005759997782600578j)",
              "(-0.07116004502738286+0.02525557098056765j)"]),
            (PcbTapConfig(-3.0, 1.0, 2.4, 2.0),
             ["(0.01691257223992247+0.013417925047767258j)",
              "(0.022066280683232888+0.014977218818210729j)",
              "(0.028437608909397696+0.016171988697177713j)"]),
        ],
    )
    def test_cascade_values_are_pinned(self, cfg, expect):
        # the cascade's values to the last bit, as it gave them while it took
        # its tank admittances from the closed form's filter terms
        got = pcb_bpf_response_abcd(cfg, PcbBoardParams(), GRID).values
        assert [repr(complex(got[k])) for k in (0, 50, 100)] == expect

    def test_bandpass_interior_peak(self):
        cfg = PcbTapConfig(0.0, 0.0, 1.5, 11.5)
        r = pcb_bpf_response_closed_form(cfg, PcbBoardParams(), GRID)
        k = int(np.argmax(np.abs(r.values)))
        assert 0 < k < GRID.count - 1

    def test_fitted_q_monotone_in_cq(self):
        # frozen model behavior: the fitted quality factor (peak frequency
        # over 3-dB bandwidth) rises as C_Q grows through the range where
        # the passband peak sits inside a wide scan grid
        g = FrequencyGrid.linspace(600e6, 1400e6, 2001)
        params = PcbBoardParams()
        qs = []
        for cq in (8.0, 10.0, 12.0, 14.0):
            r = pcb_bpf_response_closed_form(PcbTapConfig(0, 0, 1.5, cq), params, g)
            a = np.abs(r.values)
            i = int(np.argmax(a))
            thr = a[i] / np.sqrt(2)
            lo = i
            while lo > 0 and a[lo] >= thr:
                lo -= 1
            hi = i
            while hi < a.size - 1 and a[hi] >= thr:
                hi += 1
            assert 0 < lo and hi < a.size - 1
            qs.append(g.points[i] / (g.points[hi] - g.points[lo]))
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))


class TestPcbCanceller:
    def test_bare_tap_passthrough(self):
        params = PcbBoardParams(a0_db=0.0, tau0_s=0.0)
        r = pcb_canceller_response([DEFAULT_TAP], params, GRID)
        bare = pcb_bpf_response_closed_form(DEFAULT_TAP, params, GRID)
        assert np.allclose(r.values, bare.values, rtol=1e-9)

    def test_tau0_shifts_group_delay(self):
        p1 = PcbBoardParams()
        p0 = PcbBoardParams(tau0_s=0.0)
        r1 = pcb_canceller_response([DEFAULT_TAP], p1, GRID)
        r0 = pcb_canceller_response([DEFAULT_TAP], p0, GRID)
        diff = group_delay(r1)[1:-1] - group_delay(r0)[1:-1]
        assert np.allclose(diff, 4.2e-9, atol=1e-14)

    def test_default_calibration_constants(self):
        p1 = PcbBoardParams()
        p0 = PcbBoardParams(a0_db=0.0, tau0_s=0.0)
        r1 = pcb_canceller_response([DEFAULT_TAP], p1, GRID)
        r0 = pcb_canceller_response([DEFAULT_TAP], p0, GRID)
        assert np.allclose(amplitude_db(r1) - amplitude_db(r0), -4.1, atol=1e-9)
        shift = group_delay(r1)[1:-1] - group_delay(r0)[1:-1]
        assert np.allclose(shift, 4.2e-9, atol=1e-14)

    def test_linearity(self):
        params = PcbBoardParams()
        t1 = PcbTapConfig(-3.0, 0.2, 1.2, 6.0)
        t2 = PcbTapConfig(-8.0, -1.0, 2.0, 12.0)
        both = pcb_canceller_response([t1, t2], params, GRID).values
        s = (
            pcb_canceller_response([t1], params, GRID).values
            + pcb_canceller_response([t2], params, GRID).values
        )
        assert np.allclose(both, s, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# the batch kernels against independent oracles


def _response(model, grid, taps, board=None):
    """The canceller response of knob rows `taps` on the model's kernel, as
    `ModelKernel.response_values` sums it."""
    return TAP_MODELS[model].kernel(np.array(taps), grid.points, board).sum(axis=0)


PCB_TAPS = st.lists(
    st.tuples(
        st.floats(-15.5, 0.0),
        st.floats(-np.pi, np.pi),
        st.floats(0.6, 2.4),
        st.floats(2.0, 14.0),
    ),
    min_size=1,
    max_size=4,
)
BOARDS = st.builds(
    PcbBoardParams,
    l_f_nh=st.floats(1.0, 2.5),
    l_q_nh=st.floats(2.0, 4.0),
    r_f_ohm=st.floats(20.0, 200.0),
    r_q_ohm=st.floats(20.0, 100.0),
    r_s_ohm=st.floats(25.0, 100.0),
    beta_l_rad=st.floats(0.5, 2.5),
    z0_ohm=st.floats(30.0, 100.0),
    a0_db=st.floats(-10.0, 0.0),
    tau0_s=st.floats(0.0, 10e-9),
)
IDEAL_TAPS = st.lists(
    st.tuples(
        st.floats(-40.0, -10.0),
        st.floats(-np.pi, np.pi),
        st.floats(875e6, 925e6),
        st.floats(1.0, 50.0),
    ),
    min_size=1,
    max_size=4,
)


class TestKernelOracles:
    @settings(max_examples=60, deadline=None)
    @given(taps=PCB_TAPS, board=BOARDS)
    def test_pcb_kernel_matches_abcd_cascade(self, taps, board):
        # a0 e^{-j2 pi f tau0} sum_i w_i H_i with every H_i from the cascade
        grid = FrequencyGrid.linspace(850e6, 950e6, 41)
        cfgs = [PcbTapConfig(*t) for t in taps]
        terms = [
            10.0 ** (c.amp_db / 20.0)
            * np.exp(-1j * c.phase_rad)
            * pcb_bpf_response_abcd(c, board, grid).values
            for c in cfgs
        ]
        a0 = 10.0 ** (board.a0_db / 20.0)
        ref = a0 * np.exp(-2j * np.pi * grid.points * board.tau0_s) * sum(terms)
        # per point, relative to the tap magnitudes, which may cancel
        scale = a0 * sum(np.abs(t) for t in terms)
        got = _response("pcb", grid, taps, board)
        assert np.all(np.abs(got - ref) <= 1e-9 * scale)
        canc = pcb_canceller_response(cfgs, board, grid).values
        assert np.all(np.abs(canc - ref) <= 1e-9 * scale)

    @settings(max_examples=60, deadline=None)
    @given(taps=IDEAL_TAPS)
    def test_ideal_kernel_matches_pointwise_formula(self, taps):
        grid = FrequencyGrid.linspace(880e6, 920e6, 21)
        got = _response("ideal", grid, taps)
        for k, f in enumerate(grid.points.tolist()):
            vals = [
                10.0 ** (a / 20.0) * cmath.exp(-1j * ph)
                / (1 - 1j * q * (fc / f - f / fc))
                for a, ph, fc, q in taps
            ]
            assert abs(complex(got[k]) - sum(vals)) <= 1e-12 * sum(map(abs, vals))

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        batch=st.integers(1, 6),
        taps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_batch_equals_separate_objectives(self, model, batch, taps, seed):
        bounds = quantization_preset("rfic" if model == "ideal" else "pcb").bounds()
        rng = np.random.default_rng(seed)
        xs = rng.uniform(bounds.lows(), bounds.highs(), size=(batch, taps, 4))
        grid = FrequencyGrid.linspace(880e6, 920e6, 31)
        kernel = ModelKernel(model, synth_si_channel(SynthChannelSpec(), grid))
        assert kernel.objective_batch(xs).tolist() == [kernel.objective(x) for x in xs]


class TestTapJacobian:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        board=BOARDS,
    )
    def test_matches_central_differences_of_the_kernel(self, model, taps, seed, board):
        tm = TAP_MODELS[model]
        bounds = quantization_preset(tm.preset).bounds()
        lows, span = bounds.lows(), bounds.highs() - bounds.lows()
        rng = np.random.default_rng(seed)
        x = lows + rng.uniform(0.01, 0.99, size=(taps, 4)) * span
        f = np.linspace(880e6, 920e6, 17)
        t, jac = tm.jacobian(x, f, board)
        assert t.tobytes() == tm.kernel(x, f, board).tobytes()
        for j in range(4):
            h = 1e-6 * span[j]
            xp, xm = x.copy(), x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            # each tap row depends only on its own knobs
            fd = (tm.kernel(xp, f, board) - tm.kernel(xm, f, board)) / (2 * h)
            scale = np.max(np.abs(jac[:, j]), axis=1, keepdims=True)
            assert np.all(np.abs(jac[:, j] - fd) <= 1e-6 * scale), j


class TestKernelFactors:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        taps=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        board=BOARDS,
    )
    def test_kernel_is_weights_combined_with_filter_terms(self, model, taps, seed, board):
        # bitwise, also when the weights come from per-code tables and the
        # filter terms from other batches, as the lattice searches build them
        tm = TAP_MODELS[model]
        vals = [k.values() for k in quantization_preset(tm.preset).knobs()]
        rng = np.random.default_rng(seed)
        codes = np.array([[rng.integers(v.size) for v in vals] for _ in range(taps)])
        x = np.array([[v[c] for v, c in zip(vals, row)] for row in codes])
        f = np.linspace(880e6, 920e6, 31)
        t = tm.kernel(x, f, board)
        gain, turn = weight_factors(vals[0], vals[1])
        w = (gain[codes[:, 0]] * turn[codes[:, 1]])[:, None]
        combine = tm.combiner(f, board)
        terms = tm.filter(x[:, 2], x[:, 3], f, board)[0]
        assert combine(w, terms).tobytes() == t.tobytes()
        for i in range(taps):
            # every tap's weight on this tap's filter term: an amplitude or
            # phase move
            term = tm.filter(x[i : i + 1, 2], x[i : i + 1, 3], f, board)[0]
            moved = np.column_stack([x[:, :2], np.repeat(x[i : i + 1, 2:], taps, 0)])
            assert combine(w, term).tobytes() == tm.kernel(moved, f, board).tobytes()
            # this tap's weight on every tap's filter term, in reverse order:
            # a filter move
            rev = tm.filter(x[::-1, 2], x[::-1, 3], f, board)[0]
            moved = np.column_stack([np.repeat(x[i : i + 1, :2], taps, 0), x[::-1, 2:]])
            assert combine(w[i : i + 1], rev).tobytes() == tm.kernel(moved, f, board).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["ideal", "pcb"]),
        seed=st.integers(0, 2**32 - 1),
        points=st.sampled_from([3, 31, 101]),
    )
    def test_scalar_weight_on_one_term_row_matches_the_kernel(self, model, seed, points):
        # a scalar weight on one filter-term row is bitwise the kernel's tap row
        tm = TAP_MODELS[model]
        vals = [k.values() for k in quantization_preset(tm.preset).knobs()]
        rng = np.random.default_rng(seed)
        a, p, c, q = (rng.integers(v.size) for v in vals)
        f = np.linspace(880e6, 920e6, points)
        board = PcbBoardParams()
        term = tm.filter(vals[2][c : c + 1], vals[3][q : q + 1], f, board)[0][0]
        gain, turn = weight_factors(vals[0], vals[1])
        x = np.array([[vals[0][a], vals[1][p], vals[2][c], vals[3][q]]])
        row = tm.combiner(f, board)(gain[a] * turn[p], term)
        assert row.tobytes() == tm.kernel(x, f, board)[0].tobytes()
