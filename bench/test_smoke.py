"""The benchmark's own test: every workload at tiny size, untraced and traced.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args):
    out = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    record, result = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                          "--trace", str(trace), "--smoke")
    assert result["correct"], record["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert record["seed"] == 5


def test_quality_repeats_for_a_seed():
    runs = [_run("--workload", "fit", "--seed", "9", "--seconds", "0.2", "--smoke")[1]
            for _ in range(2)]
    for name in ("sic_db", "residual_db"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_distinct_seeds_give_distinct_channels():
    sys.path.insert(0, str(RUN.parent.parent / "src"))
    sys.path.insert(0, str(RUN.parent))
    import workloads

    assert all(workloads.distinct_seed_guard(seed) for seed in range(20))


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "fit",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_host_factors_use_the_calibrations_around_each_op():
    sys.path.insert(0, str(RUN.parent))
    import run

    ref = run.REF_CAL_S
    # One calibration before each of ops 0-8 and one after the last: the host
    # ran at full speed up to op 4, then at half speed.
    cal_s, cal_at = [ref] * 5 + [2 * ref] * 5, list(range(10))
    factors = run.host_factors(cal_s, cal_at, 9)
    assert factors[0] == pytest.approx(1.0)
    assert factors[4] == pytest.approx(1 / 1.5)  # three calibrations each side
    assert factors[8] == pytest.approx(0.5)
    # Calibrations every other op: ops 0 and 1 share the one before op 0.
    assert run.host_factors([ref, 2 * ref], [0, 2], 2) == [ref / (1.5 * ref)] * 2
