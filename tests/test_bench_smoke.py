"""The benchmark's wiring runs against the program as it stands.

Each workload of bench/run.py runs one untraced and one traced round.
The traced round binds the functions that bench/tracing.py wraps, by
object identity, and checks that every catalog memo entry went through
the traced evaluator.  A renamed traced function or an unseen memo
therefore exits non-zero, and a wrong result reads "correct": false.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["catalog", "genus73", "prop54", "recursion"])
def test_bench_workload_runs_traced_and_correct(workload):
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr[-2000:]
