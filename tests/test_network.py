import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdecanc import network
from fdecanc import (
    InvalidArgumentError,
    MultiUserScenario,
    ScheduleSpec,
    UlDlScenario,
    UndefinedGainError,
    jain_fairness,
    multi_user_throughputs,
    shannon_rate,
    tdma_schedule_eval,
    three_node_throughputs,
    uldl_surface,
    uldl_throughputs,
)


class TestShannon:
    def test_hand_points(self):
        assert shannon_rate(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert shannon_rate(3.0, 2.0) == pytest.approx(4.0, abs=1e-12)
        assert shannon_rate(15.0, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert shannon_rate(0.0, 5.0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            shannon_rate(-0.1, 1.0)
        for b in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError):
                shannon_rate(1.0, b)

    def test_nan_gamma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            shannon_rate(math.nan, 1.0)

    def test_bandwidth_scaling(self):
        assert shannon_rate(7.0, 20e6) == pytest.approx(
            20e6 * shannon_rate(7.0, 1.0), rel=1e-15
        )


class TestUlDl:
    def test_ideal_fd_doubles(self):
        # no residual SI, no IUI: FD exactly doubles the TDMA baseline
        s = UlDlScenario(15.0, 15.0, gamma_iui=0.0, gamma_self=0.0)
        hd, fd, gain = uldl_throughputs(s)
        assert hd == pytest.approx(4.0, abs=1e-12)
        assert fd == pytest.approx(8.0, abs=1e-12)
        assert gain == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_with_interference(self):
        # g=3 both sides, g_self = g_iui = 1 -> effective SNR 1.5 each
        s = UlDlScenario(3.0, 3.0, gamma_iui=1.0, gamma_self=1.0)
        hd, fd, gain = uldl_throughputs(s)
        assert hd == pytest.approx(2.0, abs=1e-12)
        assert fd == pytest.approx(2.0 * math.log2(2.5), abs=1e-12)
        assert gain == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_self_interference_halves_effective_snr(self):
        # gamma_self = 1 halves the UL SNR inside the log
        s = UlDlScenario(10.0, 0.0, gamma_iui=0.0, gamma_self=1.0)
        _, fd, _ = uldl_throughputs(s)
        assert fd == pytest.approx(math.log2(6.0), abs=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(UndefinedGainError):
            uldl_throughputs(UlDlScenario(0.0, 0.0))

    def test_gain_monotone_in_gamma_self(self):
        gains = [
            uldl_throughputs(UlDlScenario(10.0, 10.0, gamma_self=gs))[2]
            for gs in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestUlDlSurface:
    def test_one_cell_is_uldl_throughputs(self):
        s = UlDlScenario(7.0, 3.0, 2.0, gamma_self=0.5, bandwidth_hz=20e6)
        hd, fd, gain = uldl_surface([7.0], [3.0], [2.0], 0.5, 20e6)
        assert (hd[0][0], fd[0][0][0], gain[0][0][0]) == uldl_throughputs(s)

    def test_shape(self):
        hd, fd, gain = uldl_surface([1.0, 2.0], [3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0])
        assert [len(row) for row in hd] == [3, 3]
        assert [[len(c) for c in row] for row in fd] == [[4] * 3] * 2
        assert [[len(c) for c in row] for row in gain] == [[4] * 3] * 2

    @pytest.mark.parametrize("bad", [
        dict(gammas_ul=[1.0, -1.0]), dict(gammas_dl=[math.nan]),
        dict(gammas_iui=[0.0, math.nan]), dict(gamma_self=math.nan),
        dict(bandwidth_hz=math.nan), dict(bandwidth_hz=0.0),
    ])
    def test_validation(self, bad):
        args = dict(gammas_ul=[1.0], gammas_dl=[1.0], gammas_iui=[0.0]) | bad
        with pytest.raises(InvalidArgumentError):
            uldl_surface(**args)

    def test_zero_baseline_anywhere_rejected(self):
        with pytest.raises(UndefinedGainError):
            uldl_surface([1.0, 0.0], [2.0, 0.0], [0.0])


def _tdma_slot_loop(s, sched):
    """`tdma_schedule_eval` as a slot loop: every slot recomputes the rates
    its primary adds and adds them one at a time."""
    n = s.n_users
    b = s.bandwidth_hz
    per_user = [0.0] * n
    for t in range(sched.slots):
        u = t % n
        if s.fd_capable[u]:
            per_user[u] += 2.0 * shannon_rate(s.gammas[u] / (1.0 + s.gamma_self), b)
        elif sched.kind == "rro":
            v = (u + 1) % n
            per_user[u] += shannon_rate(s.gammas[u] / (1.0 + s.gamma_self), b)
            per_user[v] += shannon_rate(s.gammas[v] / (1.0 + sched.iui(u, v)), b)
        else:
            per_user[u] += shannon_rate(s.gammas[u], b)
    per_user = [r / sched.slots for r in per_user]
    total = sum(per_user)
    baseline = sum(shannon_rate(g, b) / n for g in s.gammas)
    return {
        "per_user": per_user,
        "total": total,
        "gain": total / baseline if baseline > 0 else math.nan,
        "jfi": jain_fairness(per_user) if total > 0 else math.nan,
    }


@st.composite
def tdma_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    gammas = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    fd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gamma_self = draw(st.floats(0.0, 10.0))
    b = draw(st.floats(1e-3, 1e8))
    iui = draw(st.one_of(
        st.just(()),
        st.lists(st.floats(0.0, 1e3), min_size=n * n, max_size=n * n).map(
            lambda v: tuple(tuple(0.0 if i == j else v[i * n + j] for j in range(n))
                            for i in range(n))
        ),
    ))
    # one slot per user, or a slot count that is not a multiple of the user count
    slots = draw(st.one_of(st.just(n), st.builds(lambda k, r: n * k + r,
                                                 st.integers(1, 1200), st.integers(1, n - 1))))
    kind = draw(st.sampled_from(["rro", "iuif"]))
    return MultiUserScenario(gammas, fd, gamma_self, b), ScheduleSpec(kind, slots, iui)


class TestTdmaPerUserRates:
    @settings(max_examples=150, deadline=None)
    @given(tdma_cases(), st.one_of(st.none(), st.integers(1, 9)))
    def test_bitwise_the_per_slot_loop(self, case, chunk):
        # a small chunk puts many chunk boundaries, each carrying a running sum
        s, sched = case
        with mock.patch.object(network, "_SUM_CHUNK", chunk or network._SUM_CHUNK):
            got = tdma_schedule_eval(s, sched)
        expect = _tdma_slot_loop(s, sched)
        assert list(got) == list(expect)
        for key in expect:
            assert repr(got[key]) == repr(expect[key]), key

    def test_slots_summed_in_bounded_memory(self):
        # about 10^6 slots, a whole number of rounds: an accumulate over every
        # slot at once would hold two arrays of about 5 MB each
        s = MultiUserScenario((10.0, 100.0, 3.0), (True, False, False), 1.0, 1.0)
        sched = ScheduleSpec("rro", 999_999, ((0, 2, 2), (2, 0, 2), (2, 2, 0)))
        tracemalloc.start()
        try:
            res = tdma_schedule_eval(s, sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert math.isclose(res["total"], tdma_schedule_eval(
            s, ScheduleSpec("rro", 3, sched.iui_matrix))["total"], rel_tol=1e-9)


# gammas with zero and underflowing rates: log2(1 + g) rounds to 0 below
# about 1e-16, so the half-duplex baseline can be zero
_gammas = st.one_of(st.just(0.0), st.floats(0.0, 1e-14), st.floats(0.0, 1e6))


@st.composite
def scenarios(draw, n=None):
    n = n or draw(st.sampled_from([2, 3]))
    return MultiUserScenario(
        draw(st.lists(_gammas, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 1e12))),
        draw(st.floats(1e-3, 1e8)),
    )


class TestOneRateEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tdma_cases(), st.tuples(scenarios(), st.sampled_from(["rro", "iuif"]))
                     .map(lambda c: (c[0], ScheduleSpec(c[1], c[0].n_users)))))
    def test_gain_over_the_half_duplex_baseline(self, case):
        s, sched = case
        res = tdma_schedule_eval(s, sched)
        baseline = sum(shannon_rate(g, s.bandwidth_hz) / s.n_users for g in s.gammas)
        if baseline > 0:
            assert res["gain"] == res["total"] / baseline
        else:
            assert math.isnan(res["gain"])

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_multi_user_is_iuif_with_one_slot_per_user(self, s):
        iuif = tdma_schedule_eval(s, ScheduleSpec("iuif", s.n_users))
        if math.isnan(iuif["gain"]):
            with pytest.raises(UndefinedGainError, match="baseline"):
                multi_user_throughputs(s)
        else:
            # repr: the same keys in the same order, and a NaN jfi equal to NaN
            assert repr(multi_user_throughputs(s)) == repr(iuif)

    @settings(max_examples=200, deadline=None)
    @given(scenarios(n=2))
    def test_three_node_cases_are_multi_user_totals(self, s):
        cases = {"hd": (False, False), "fd1": (True, False), "fd2": (False, True),
                 "fd": (True, True)}
        b = s.bandwidth_hz
        half = [0.5 * shannon_rate(g, b) for g in s.gammas]
        if sum(half) == 0:
            with pytest.raises(UndefinedGainError):
                three_node_throughputs(s)
            return
        out = three_node_throughputs(s)
        for name, caps in cases.items():
            total = multi_user_throughputs(MultiUserScenario(s.gammas, caps, s.gamma_self, b))
            assert out["rates"][name] == total["total"]
            assert out["gains"][name] == total["gain"]
            # the closed form: an FD user's full rate at gamma/(1+gamma_self),
            # an HD user's half rate at full SNR
            terms = [shannon_rate(g / (1.0 + s.gamma_self), b) if c else h
                     for g, c, h in zip(s.gammas, caps, half)]
            assert out["rates"][name] == terms[0] + terms[1]
            assert out["gains"][name] == out["rates"][name] / (half[0] + half[1])

    def test_fd_rates_that_underflow_give_zero_gain(self):
        # a positive baseline, but every FD rate rounds to zero: no fairness index
        s = MultiUserScenario((1e-15, 1e-15), (True, True), gamma_self=1e10)
        res = multi_user_throughputs(s)
        assert res["total"] == res["gain"] == 0.0 and math.isnan(res["jfi"])


class TestThreeNode:
    def test_hand_values(self):
        s = MultiUserScenario((15.0, 15.0), (True, True), gamma_self=3.0)
        out = three_node_throughputs(s)
        fd_rate = math.log2(1.0 + 15.0 / 4.0)
        assert out["rates"]["hd"] == pytest.approx(4.0, abs=1e-12)
        assert out["rates"]["fd1"] == pytest.approx(fd_rate + 2.0, abs=1e-12)
        assert out["rates"]["fd2"] == pytest.approx(2.0 + fd_rate, abs=1e-12)
        assert out["rates"]["fd"] == pytest.approx(2.0 * fd_rate, abs=1e-12)
        assert out["gains"]["hd"] == pytest.approx(1.0, abs=1e-12)

    def test_ideal_fd_gain_two(self):
        s = MultiUserScenario((9.0, 9.0), (True, True), gamma_self=0.0)
        assert three_node_throughputs(s)["gains"]["fd"] == pytest.approx(
            2.0, abs=1e-12
        )

    def test_requires_two_users(self):
        s = MultiUserScenario((1.0, 1.0, 1.0), (True, True, True))
        with pytest.raises(InvalidArgumentError):
            three_node_throughputs(s)

    def test_multi_user_consistency(self):
        # the n-user evaluator reproduces each 2-user capability case
        cases = {
            "hd": (False, False),
            "fd1": (True, False),
            "fd2": (False, True),
            "fd": (True, True),
        }
        base = MultiUserScenario((10.0, 4.0), (True, True), gamma_self=1.0)
        rates = three_node_throughputs(base)["rates"]
        for name, caps in cases.items():
            s = MultiUserScenario((10.0, 4.0), caps, gamma_self=1.0)
            assert multi_user_throughputs(s)["total"] == pytest.approx(
                rates[name], rel=1e-15
            )


class TestScenarioValidation:
    def test_user_count(self):
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0,), (True,))
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0,) * 4, (True,) * 4)

    def test_capability_length(self):
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0, 1.0), (True,))

    def test_nan_gamma(self):
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0, math.nan), (True, False))
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0, 1.0), (True, False), gamma_self=math.nan)
        for name in ("gamma_ul", "gamma_dl", "gamma_iui", "gamma_self"):
            with pytest.raises(InvalidArgumentError):
                UlDlScenario(**{"gamma_ul": 1.0, "gamma_dl": 1.0, name: math.nan})

    def test_negative_gamma(self):
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((-1.0, 1.0), (True, True))

    @pytest.mark.parametrize("b", [0.0, -1.0, math.inf, math.nan])
    def test_bandwidth_positive_and_finite(self, b):
        with pytest.raises(InvalidArgumentError):
            MultiUserScenario((1.0, 1.0), (True, True), bandwidth_hz=b)
        with pytest.raises(InvalidArgumentError):
            UlDlScenario(1.0, 1.0, bandwidth_hz=b)
        with pytest.raises(InvalidArgumentError):
            uldl_surface([1.0], [1.0], [0.0], bandwidth_hz=b)


class TestJain:
    def test_perfect_equity(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_single_user_hogs(self):
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3, abs=1e-12)

    def test_hand_value(self):
        assert jain_fairness([2.0, 4.0]) == pytest.approx(0.9, abs=1e-12)

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedGainError):
            jain_fairness([0.0, 0.0])

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            jain_fairness([])
        with pytest.raises(InvalidArgumentError):
            jain_fairness([1.0, -1.0])

    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariant_and_bounded(self, xs, c):
        j = jain_fairness(xs)
        assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9
        assert jain_fairness([c * x for x in xs]) == pytest.approx(j, rel=1e-9)


def default_instance(n=2):
    """n users at 10 dB, user 0 FD-capable, gamma_self=1, pairwise IUI 0 dB."""
    gammas = (10.0,) * n
    caps = (True,) + (False,) * (n - 1)
    iui = tuple(
        tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n)
    )
    return MultiUserScenario(gammas, caps, gamma_self=1.0), iui


class TestTdmaSchedules:
    def test_all_hd_degenerate_matches_closed_form(self):
        # no SI and infinite IUI: both schedules collapse to plain TDMA
        s = MultiUserScenario((10.0, 4.0), (False, False), gamma_self=0.0)
        inf_iui = ((0.0, math.inf), (math.inf, 0.0))
        baseline = [shannon_rate(g, 1.0) / 2 for g in s.gammas]
        rro = tdma_schedule_eval(s, ScheduleSpec("rro", 2, inf_iui))
        iuif = tdma_schedule_eval(s, ScheduleSpec("iuif", 2))
        assert rro["per_user"] == pytest.approx(baseline, abs=0)
        assert iuif["per_user"] == pytest.approx(baseline, abs=0)

    def test_all_fd_matches_closed_form(self):
        s = MultiUserScenario((10.0, 4.0), (True, True), gamma_self=1.0)
        expect = multi_user_throughputs(s)["per_user"]
        for kind in ("rro", "iuif"):
            out = tdma_schedule_eval(s, ScheduleSpec(kind, 2))
            assert out["per_user"] == pytest.approx(expect, abs=0)

    def test_iuif_single_fd_matches_closed_form(self):
        s = MultiUserScenario((10.0, 4.0), (True, False), gamma_self=1.0)
        expect = multi_user_throughputs(s)["per_user"]
        out = tdma_schedule_eval(s, ScheduleSpec("iuif", 2))
        assert out["per_user"] == pytest.approx(expect, abs=0)

    def test_default_instance_directions(self):
        # RRO squeezes out more total; IUI-F is fairer
        for n in (2, 3):
            s, iui = default_instance(n)
            rro = tdma_schedule_eval(s, ScheduleSpec("rro", n, iui))
            iuif = tdma_schedule_eval(s, ScheduleSpec("iuif", n))
            assert rro["total"] >= iuif["total"]
            assert iuif["jfi"] >= rro["jfi"]

    def test_default_instance_frozen_values(self):
        s, iui = default_instance(2)
        rro = tdma_schedule_eval(s, ScheduleSpec("rro", 2, iui))
        iuif = tdma_schedule_eval(s, ScheduleSpec("iuif", 2))
        r = math.log2(6.0)  # rate at effective SNR 10/(1+1) = 5
        assert rro["per_user"][0] == pytest.approx((2 * r + r) / 2, abs=1e-12)
        assert rro["per_user"][1] == pytest.approx(r / 2, abs=1e-12)
        assert iuif["per_user"][1] == pytest.approx(math.log2(11.0) / 2, abs=1e-12)
        assert rro["total"] == pytest.approx(2 * r, abs=1e-12)

    def test_multiple_rounds_average_out(self):
        s, iui = default_instance(2)
        one = tdma_schedule_eval(s, ScheduleSpec("rro", 2, iui))
        three = tdma_schedule_eval(s, ScheduleSpec("rro", 6, iui))
        assert three["per_user"] == pytest.approx(one["per_user"], rel=1e-15)

    def test_slot_count_validation(self):
        s, _ = default_instance(3)
        with pytest.raises(InvalidArgumentError):
            tdma_schedule_eval(s, ScheduleSpec("rro", 2))

    def test_iui_size_validation(self):
        s, iui = default_instance(2)
        bad = iui + ((0.0, 0.0),)
        with pytest.raises(InvalidArgumentError):
            tdma_schedule_eval(s, ScheduleSpec("rro", 3, bad))


class TestScheduleSpec:
    def test_bad_kind(self):
        with pytest.raises(InvalidArgumentError):
            ScheduleSpec("roundrobin", 2)

    def test_bad_slots(self):
        with pytest.raises(InvalidArgumentError):
            ScheduleSpec("rro", 0)

    def test_negative_iui(self):
        with pytest.raises(InvalidArgumentError):
            ScheduleSpec("rro", 2, ((0.0, -1.0), (1.0, 0.0)))

    def test_nonzero_diagonal(self):
        with pytest.raises(InvalidArgumentError):
            ScheduleSpec("rro", 2, ((1.0, 1.0), (1.0, 0.0)))

    def test_default_iui_is_zero(self):
        assert ScheduleSpec("rro", 2).iui(0, 1) == 0.0
