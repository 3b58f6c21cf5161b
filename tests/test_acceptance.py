"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single summary line so the suite output doubles as a
checklist.  Criteria cover model cross-validation, solver quality, sweep
shape, network formulas, schedule behavior, and CLI determinism.
"""

import json
import math
import time

import numpy as np

from fdecanc import (
    ComplexResponse,
    FrequencyGrid,
    IdealTapConfig,
    MultiUserScenario,
    PcbBoardParams,
    PcbTapConfig,
    ScheduleSpec,
    SolveOptions,
    SynthChannelSpec,
    db_to_linear,
    grid_search_oracle,
    group_delay,
    ideal_tap_response,
    iterative_heuristic,
    jain_fairness,
    local_search,
    multi_tap_response,
    multi_user_throughputs,
    pcb_bpf_response_abcd,
    pcb_bpf_response_closed_form,
    quantization_preset,
    quantize_config,
    shannon_rate,
    solve_continuous,
    synth_si_channel,
    tdma_schedule_eval,
    three_node_throughputs,
    uldl_throughputs,
)
from fdecanc.cli import main as cli_main
from fdecanc.models import _rlc_admittance
from fdecanc.optimizer import fit_pipeline

FIT_GRID = FrequencyGrid.linspace(890e6, 910e6, 101)


def test_criterion_1_closed_form_matches_cascade():
    rng = np.random.default_rng(1)
    grid = FrequencyGrid.linspace(850e6, 950e6, 101)
    board = PcbBoardParams()
    t0 = time.perf_counter()
    worst = 0.0
    worst_variant = 0.0
    for _ in range(200):
        cfg = PcbTapConfig(
            rng.uniform(-15.5, 0.0),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(0.6, 2.4),
            rng.uniform(2.0, 14.0),
        )
        ref = pcb_bpf_response_abcd(cfg, board, grid).values
        got = pcb_bpf_response_closed_form(cfg, board, grid).values
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
        # published transcription carries a 0.5 coefficient on the Y_Q^2
        # term; report how far that variant deviates from the cascade
        y_q = _rlc_admittance(board.r_q_ohm, board.l_q_nh * 1e-9, cfg.cq_pf * 1e-12,
                              2.0 * np.pi * grid.points)
        s2z0 = np.sin(2.0 * board.beta_l_rad) * board.z0_ohm
        m_c = 1.0 / (board.r_s_ohm * ref)
        m_variant = m_c - 0.5j * s2z0 * y_q**2
        variant = 1.0 / (board.r_s_ohm * m_variant)
        worst_variant = max(
            worst_variant, float(np.max(np.abs(variant - ref) / np.abs(ref)))
        )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS — closed form matches cascade to {worst:.2e} "
        f"rel over 200 configs in {elapsed:.2f}s (halved-coefficient variant "
        f"deviates by up to {worst_variant:.2e})"
    )


def test_criterion_2_ideal_tap_center_identities():
    rng = np.random.default_rng(2)
    worst_amp = worst_ph = 0.0
    for _ in range(100):
        amp = rng.uniform(-40.0, -10.0)
        ph = rng.uniform(-np.pi, np.pi)
        fc = rng.uniform(875e6, 925e6)
        q = rng.uniform(1.0, 50.0)
        grid = FrequencyGrid(np.array([fc - 1e6, fc, fc + 1e6]))
        h = ideal_tap_response(IdealTapConfig(amp, ph, fc, q), grid).values[1]
        worst_amp = max(worst_amp, abs(abs(h) - db_to_linear(amp)) / db_to_linear(amp))
        worst_ph = max(worst_ph, abs(np.angle(h) + ph))
    assert worst_amp < 1e-12
    assert worst_ph < 1e-12
    print(
        f"ACCEPTANCE 2: PASS — center-frequency |H| and phase identities hold "
        f"to {max(worst_amp, worst_ph):.2e} over 100 configs"
    )


def test_criterion_3_group_delay_constants():
    grid = FrequencyGrid.linspace(850e6, 950e6, 101)
    worst = 0.0
    for tau in (4.2e-9, 10e-9):
        r = ComplexResponse(grid, np.exp(-2j * np.pi * grid.points * tau))
        gd = group_delay(r)[1:-1]
        worst = max(worst, float(np.max(np.abs(gd - tau))))
    assert worst < 1e-15
    print(
        f"ACCEPTANCE 3: PASS — 4.2/10 ns constant group delays recovered to "
        f"{worst:.2e} s at interior points"
    )


def test_criterion_4_oracle_dominance():
    rng = np.random.default_rng(4)
    spec = quantization_preset("rfic")
    opts = SolveOptions(restarts=6, max_iters=150, seed=0)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for _ in range(25):
        cfg = IdealTapConfig(
            rng.uniform(-40.0, -10.0),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(875e6, 925e6),
            rng.uniform(1.0, 50.0),
        )
        h = ideal_tap_response(cfg, FIT_GRID)
        cont = solve_continuous("ideal", h, opts=opts, num_taps=1)
        q = quantize_config(cont.config, spec)
        rep = local_search(q, "ideal", h, spec)
        oracle = grid_search_oracle("ideal", h, spec, 9, 1)
        assert rep.objective <= 1.05 * oracle.objective
        if oracle.objective > 0:
            worst_ratio = max(worst_ratio, rep.objective / oracle.objective)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4: PASS — solve+quantize+local-search ≤ 1.05x the 9-point "
        f"grid oracle on 25 instances (worst ratio {worst_ratio:.3f}) in "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_plant_and_recover():
    planted = [
        IdealTapConfig(-18.0, 0.4, 895e6, 8.0),
        IdealTapConfig(-22.0, -1.1, 905e6, 15.0),
    ]
    h = multi_tap_response(planted, FIT_GRID)
    opts = SolveOptions(restarts=16, max_iters=500, seed=3)
    r1 = solve_continuous("ideal", h, opts=opts, num_taps=2)
    r2 = solve_continuous("ideal", h, opts=opts, num_taps=2)
    assert r1.objective == r2.objective
    assert [c.__dict__ for c in r1.config] == [c.__dict__ for c in r2.config]
    assert r1.avg_sic_db >= 60.0
    print(
        f"ACCEPTANCE 5: PASS — planted 2-tap channel recovered to "
        f"{r1.avg_sic_db:.1f} dB avg SIC, deterministic across reruns"
    )


def test_criterion_6_joint_beats_heuristic():
    h = synth_si_channel(SynthChannelSpec(), FIT_GRID)
    joint = solve_continuous(
        "ideal", h, opts=SolveOptions(restarts=16, max_iters=500, seed=0), num_taps=2
    )
    heur = iterative_heuristic("ideal", h, [895e6, 905e6])
    assert joint.objective <= heur.objective
    print(
        f"ACCEPTANCE 6: PASS — joint 2-tap objective {joint.objective:.3e} ≤ "
        f"per-tap heuristic objective {heur.objective:.3e}"
    )


def test_criterion_7_sweep_shape():
    spec = quantization_preset("rfic")
    opts = SolveOptions(restarts=24, max_iters=500, seed=0)

    def pow_db(rep, k):
        return -10.0 * math.log10(rep.objective / k) if rep.objective > 0 else math.inf

    cells = {}
    for m in (2, 4):
        for bw in (20e6, 40e6, 80e6):
            grid = FrequencyGrid.linspace(900e6 - bw / 2, 900e6 + bw / 2, 101)
            h = synth_si_channel(SynthChannelSpec(), grid)
            cont, quant = fit_pipeline("ideal", h, m, opts, spec)
            cells[(m, bw)] = (pow_db(cont, 101), pow_db(quant, 101))
    for m in (2, 4):
        sics = [cells[(m, bw)][0] for bw in (20e6, 40e6, 80e6)]
        assert sics[0] >= sics[1] >= sics[2], (m, sics)
    for (m, bw), (c, q) in cells.items():
        assert q <= c + 0.01, (m, bw, c, q)
    summary = "; ".join(
        f"M={m}: " + "/".join(f"{cells[(m, bw)][0]:.1f}" for bw in (20e6, 40e6, 80e6))
        for m in (2, 4)
    )
    print(
        f"ACCEPTANCE 7: PASS — avg SIC non-increasing in bandwidth and "
        f"quantized ≤ continuous + 0.01 dB per cell ({summary} dB)"
    )


def test_criterion_8_network_formulas():
    tol = 1e-12
    # UL/DL pair served by an FD base station
    from fdecanc import UlDlScenario

    hd, fd, gain = uldl_throughputs(UlDlScenario(15.0, 15.0, 0.0, 0.0))
    assert abs(hd - 4.0) < tol and abs(fd - 8.0) < tol and abs(gain - 2.0) < tol
    _, fd2, _ = uldl_throughputs(UlDlScenario(10.0, 0.0, 0.0, 1.0))
    assert abs(fd2 - math.log2(6.0)) < tol  # gamma_self = 1 halves the SNR
    hd3, fd3, _ = uldl_throughputs(UlDlScenario(3.0, 3.0, 1.0, 1.0))
    assert abs(hd3 - 2.0) < tol and abs(fd3 - 2.0 * math.log2(2.5)) < tol
    # 2-user capability cases
    out = three_node_throughputs(
        MultiUserScenario((15.0, 15.0), (True, True), gamma_self=3.0)
    )
    fdr = math.log2(1 + 15.0 / 4.0)
    assert abs(out["rates"]["hd"] - 4.0) < tol
    assert abs(out["rates"]["fd1"] - (fdr + 2.0)) < tol
    assert abs(out["rates"]["fd"] - 2 * fdr) < tol
    ideal = three_node_throughputs(
        MultiUserScenario((9.0, 9.0), (True, True), gamma_self=0.0)
    )
    assert abs(ideal["gains"]["fd"] - 2.0) < tol
    # fairness index
    assert abs(jain_fairness([1.0, 0.0]) - 0.5) < tol
    assert abs(jain_fairness([3.0, 3.0, 3.0]) - 1.0) < tol
    assert abs(jain_fairness([2.0, 4.0]) - 0.9) < tol
    assert abs(jain_fairness([1.0, 0.0, 0.0]) - 1 / 3) < tol
    assert abs(jain_fairness([5.0]) - 1.0) < tol
    print(
        "ACCEPTANCE 8: PASS — throughput and fairness formulas match "
        "hand-computed values at 5+ points each (1e-12)"
    )


def test_criterion_9_schedule_evaluator():
    # degenerate cases reduce exactly to the closed-form TDMA rates
    s_hd = MultiUserScenario((10.0, 4.0), (False, False), gamma_self=0.0)
    baseline = [shannon_rate(g, 1.0) / 2 for g in s_hd.gammas]
    inf_iui = ((0.0, math.inf), (math.inf, 0.0))
    assert tdma_schedule_eval(s_hd, ScheduleSpec("rro", 2, inf_iui))["per_user"] == baseline
    assert tdma_schedule_eval(s_hd, ScheduleSpec("iuif", 2))["per_user"] == baseline
    s_fd = MultiUserScenario((10.0, 4.0), (True, True), gamma_self=1.0)
    expect = multi_user_throughputs(s_fd)["per_user"]
    for kind in ("rro", "iuif"):
        assert tdma_schedule_eval(s_fd, ScheduleSpec(kind, 2))["per_user"] == expect
    # default heterogeneous instance: IUI-F is at least as fair as RRO
    jfis = {}
    for n in (2, 3):
        s = MultiUserScenario(
            (10.0,) * n, (True,) + (False,) * (n - 1), gamma_self=1.0
        )
        iui = tuple(
            tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n)
        )
        rro = tdma_schedule_eval(s, ScheduleSpec("rro", n, iui))
        iuif = tdma_schedule_eval(s, ScheduleSpec("iuif", n))
        assert iuif["jfi"] >= rro["jfi"]
        jfis[n] = (rro["jfi"], iuif["jfi"])
    print(
        "ACCEPTANCE 9: PASS — schedule evaluator reproduces closed-form TDMA "
        "exactly in degenerate cases; IUI-F JFI ≥ RRO JFI on the default "
        f"instance (n=2: {jfis[2][1]:.3f} ≥ {jfis[2][0]:.3f})"
    )


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"report-{tag}.json"
        csv = tmp_path / f"sic-{tag}.csv"
        rc = cli_main(
            ["fit", "--synth", "--band", "890e6:910e6:101", "--seed", "7",
             "--taps", "2", "--out-report", str(rep), "--out-csv", str(csv)]
        )
        assert rc == 0
        outputs.append((rep.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    sic = json.loads(outputs[0][0])["avg_sic_db"]
    print(
        f"ACCEPTANCE 10: PASS — fit --synth --seed 7 reproduces byte-identical "
        f"JSON and CSV across runs (avg SIC {sic:.1f} dB)"
    )
