"""Smoke test: the experiment scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark_states.py"],
        ["oracle_crosscheck.py", "--states", "3"],
        ["minor_timing.py", "--dims", "4", "--repeats", "1"],
        ["output_digest.py", "--states", "1"],
        ["ab_timing.py", "--reps", "1", "--calls", "1", "--states", "1"],  # one tree, twice
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    run = _run(argv)
    assert run.returncode == 0, run.stderr
    assert run.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark_states.py", "--tol=-1"],
        ["benchmark_states.py", "--tol", "nan"],
        ["benchmark_states.py", "--tol", "inf"],
        ["benchmark_states.py", "--tol", "0"],
        ["oracle_crosscheck.py", "--tol", "nan"],
        ["oracle_crosscheck.py", "--tol=-1e-3"],
        ["oracle_crosscheck.py", "--tol", "inf"],
        ["oracle_crosscheck.py", "--states", "0"],
        ["oracle_crosscheck.py", "--states=-2"],
        ["oracle_crosscheck.py", "--max-dim-bi", "1"],
        ["oracle_crosscheck.py", "--max-dim-tri", "1"],
        ["minor_timing.py", "--dims", "0"],
        ["minor_timing.py", "--dims", "4", "-3"],
        ["minor_timing.py", "--repeats", "0"],
        ["output_digest.py", "--states", "0"],
        ["ab_timing.py", "--reps", "0"],
    ],
    ids=" ".join,
)
def test_bad_arguments_exit_two(argv):
    # argparse refuses them with a usage message, before any work.
    run = _run(argv)
    assert run.returncode == 2, run.stdout + run.stderr
    assert "must be" in run.stderr and "Traceback" not in run.stderr
    assert not run.stdout


def test_minor_timing_pins_blas_to_one_thread():
    # As the benchmark does: without the thread variables the script sets
    # them to 1 before numpy loads, and says so in its header.
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    run = _run(["minor_timing.py", "--dims", "2", "--repeats", "1"], unset=threads)
    assert run.returncode == 0, run.stderr
    header = run.stdout.splitlines()[0]
    assert header == "threads: " + " ".join(f"{var}=1" for var in threads)


def test_minor_timing_prints_faults_per_call():
    # Minor page faults per call ("flt") next to each best time ("s").
    run = _run(["minor_timing.py", "--dims", "4", "--repeats", "1"])
    assert run.returncode == 0, run.stderr
    header = run.stdout.splitlines()[1].split()
    assert [header[i - 1] for i, word in enumerate(header) if word == "flt"] == ["s"] * 3


def test_minor_timing_prints_the_route():
    # The [8, 64] row has the shape of every [8, 8, 8] cut: on its Gaussian
    # state the join lists 331 candidate minors, which the quad evaluator
    # takes without the Schwarz or the column bound.
    run = _run(["minor_timing.py", "--dims", "4", "--repeats", "1"])
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    header = lines[1].split()
    assert header[header.index("share") + 1] == "route"
    [row] = [line for line in lines if line.startswith("[  8, 64] ")]
    assert row.split()[-2] == "join"
    assert row.split()[-3] == f"{331 / 56448:.3%}"


def test_ab_timing_times_the_state_file_round_trip():
    # The stateio kind: emit_state then parse_state of a Haar [32,32] state,
    # after both trees were checked to write the same bytes.
    run = _run(["ab_timing.py", "--reps", "1", "--calls", "1", "--states", "1"])
    assert run.returncode == 0, run.stderr
    assert "outputs: the same bits on every state" in run.stdout
    [row] = [line.split() for line in run.stdout.splitlines() if line.split()[:1] == ["stateio"]]
    assert len(row) == 4


def _run(argv, unset=()):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in unset:
        env.pop(var, None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
