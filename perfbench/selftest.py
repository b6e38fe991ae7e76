"""Fast self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that each
metric BENCHMARK.json names is reported with its unit and that the tiny runs
pass their checks.  Then it corrupts outputs on purpose and asserts that every
corruption counts as a failed operation, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(session_trials=200_000, dense_trials=20_000, fit_starts=1)
SPEC = run.SPEC


def wrong_value(work: Path, cmd) -> None:
    """Triples p1 in an analyze report and retrieval_eff in a fit result."""
    if cmd.check == "none":
        return
    path = work / cmd.outputs[0]
    lines = []
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("p1", "retrieval_eff"):
            line = f"{key} = {float(value) * 3!r}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


def garbage_records(work: Path, cmd) -> None:
    """Overwrites the simulated records, so that analyze has to exit nonzero."""
    if cmd.name == "simulate":
        (work / cmd.outputs[0]).write_bytes(b"not a record file\n")


def assert_metrics(result: dict, listed: list[dict], what: str) -> None:
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{what}: metrics {got} != BENCHMARK.json {expected}"
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{what}: {name}={value}"


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS), names
    for name in names:
        plain = run.run(name, 1, 1, False, TINY)
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
        assert_metrics(plain, SPEC["end_to_end"], name)
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

        traced = run.run(name, 1, 1, True, TINY)
        assert traced["correct"] and traced["failed"] == 0, traced
        assert_metrics(traced, SPEC["per_layer"], f"{name} traced")

        broken = run.run(name, 1, 1, False, TINY, tamper=wrong_value)
        assert not broken["correct"] and broken["failed"] >= 1, broken
        if name != "fit":
            broken = run.run(name, 1, 1, False, TINY, tamper=garbage_records)
            assert not broken["correct"] and broken["failed"] >= 1, broken
        print(f"selftest: {name} ok", file=sys.stderr)

    # a command that ran outside the cli.main wrapper fails the trace check
    assert not run.trace_errors({"roots": {"cli.main": 1}})
    assert run.trace_errors({"roots": {"cli.main": 1, "model_fit.fit": 1}})
    assert run.trace_errors({"roots": {}})

    # without the program's sources the benchmark exits nonzero and prints no result
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "session",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)
    print("selftest: all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
