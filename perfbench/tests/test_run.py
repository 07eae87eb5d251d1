import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import op_durations


def test_op_durations_take_per_operation_medians_and_scale_them():
    from speed import NOMINAL_S

    def pass_(start, wall, durations, completed):
        starts = [start, start + durations[0]]
        return {"wall_s": wall, "durations_s": durations, "starts_s": starts, "completed": completed}

    run = {
        "passes": [
            pass_(0.0, 7.0, [1.0, 4.0], [True, True]),
            pass_(100.0, 8.0, [3.0, 4.0], [True, False]),
            pass_(200.0, 6.0, [2.0, 3.0], [True, True]),
        ],
        # a probe before each operation; the machine ran at half the
        # nominal speed during the second pass
        "speed_probe_starts_s": [0.0, 1.0, 100.0, 103.0, 200.0, 202.0],
        "speed_probes_s": [NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S, NOMINAL_S],
    }
    latencies, wall = op_durations(run, scaled=False)
    assert latencies == [2.0]                          # the second operation failed once
    assert wall == pytest.approx(2.0 + 4.0 + 1.0)      # medians, plus the median outside time (2, 1, 1)
    latencies, wall = op_durations(run, scaled=True)
    assert latencies == [pytest.approx(1.5)]           # median of 1.0, 1.5, 2.0
    assert wall == pytest.approx(1.5 + 3.0 + 1.0)      # outside times 2, 0.5, 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-paper", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert not (tmp_path / "perfbench" / "results").exists()
