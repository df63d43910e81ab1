"""Smoke test of the benchmark itself, at a tiny corpus size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload for about a second in both modes and checks that each
metric named in BENCHMARK.json is emitted, and in the untraced mode also the
printed-only ``wall_s`` and ``failed_frac``. Then corrupts artifacts of a
real pass on purpose and checks that the gate fails the commands that wrote
them, and that ``--write-reference`` refuses any run but the default one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = "0.02"


def _run(workload: str, trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = DEFINITION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        for name, unit in (("wall_s", "s"), ("failed_frac", "ratio")):
            printed = [line.split() for line in lines if line.startswith(name + " ")]
            assert len(printed) == 1 and printed[0][2] == unit
            float(printed[0][1])


def test_gate_trips_on_corrupted_artifacts(tmp_path):
    commands, _ = run.prepare("bea-dev-cli", 3, float(SCALE), tmp_path)
    first = run.run_pass(commands, tmp_path, traced=False)
    expected: dict = {}
    run.gate([first], expected)
    assert not [r.failure for r in first.results if r.failure]

    second = run.run_pass(commands, tmp_path, traced=False)
    score = next(r for r in second.results if r.label.startswith("score."))
    path = tmp_path / "out" / f"{score.label}.tsv"
    path.write_bytes(path.read_bytes() + b"x")
    score.hashes[path.name] = run.sha256(path)
    run.gate([second], expected)
    assert [r.label for r in second.results if r.failure] == [score.label]

    apply = next(c for c in commands if c.label.startswith("apply."))
    restored = tmp_path / apply.argv[apply.argv.index("--out") + 1]
    restored.write_text("corrupted .\n" + restored.read_text(encoding="utf-8"))
    assert apply.check(tmp_path) is not None


@pytest.mark.parametrize("extra", [["--seed", "3"], ["--scale", "0.5"]])
def test_write_reference_refuses_other_runs(extra):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bea-dev-cli",
         "--write-reference", *extra],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--write-reference" in done.stderr
