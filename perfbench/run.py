"""dlczsim benchmark: each workload as a closed loop of CLI commands.

Run from the repository root:

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0

One client runs the workload's chain of `python -m dlczsim.cli` commands; each
command starts in a fresh interpreter only after the previous one has exited.
The chain repeats on the same inputs until --seconds is used up.  Every output
is checked against the analytic model and for byte identity with the first
round; a nonzero exit or a failed check is a failed operation.

--trace 0 reports the end-to-end metrics.  The host's CPUs are shared, and the
one the commands run on goes up to half again faster or slower for seconds to
tens of seconds at a time, in CPU time as well as wall time, independently of
the other CPUs.  So the benchmark and every command it starts are pinned to
one CPU, and every PROBE_PERIOD_S the running command is stopped (SIGSTOP), a
fixed piece of work (probe_s) is timed on the freed CPU, and the command is
resumed (SIGCONT).  A command's wall time leaves out the time it was stopped;
wall_rel divides it by the median probe time seen during that command and sums
over the round, so it is the round's wall time in units of the probe at the
speed the CPU ran at meanwhile.  The raw wall times are on the detail line.

--trace 1 alternates untraced rounds with rounds run through traced_cli.py,
which calls `dlczsim.cli.main` in-process with wrappers around each layer, and
reports per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds per-command timings, output
SHA-256 digests and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "dlczsim"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
WORK_ROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0          # a run has to exit within 180 s
SETUP_REPEATS = 5
PROBE_PERIOD_S = 0.1         # a probed command is stopped for probe_s() this often
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))   # the benchmark and its commands run on this CPU only

# metric names and units are listed once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Child:
    """One finished child process."""

    wall_s: float                 # without the time it was stopped for probes
    maxrss_mb: float
    rc: int
    stderr: str
    probes: list[float]           # probe_s() timings while it ran, and one after it exited


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(errors))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                           # the commands are pinned to one CPU
    return env


class Runner:
    """Starts one child at a time in the work directory and waits for it with os.wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], probe: bool = False) -> Child:
        err_path = self.work / "stderr.txt"
        with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                status, usage, stopped, probes = self._wait(proc.pid, probe)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start - stopped
        proc.returncode = os.waitstatus_to_exitcode(status)
        if probe:
            probes.append(probe_s())
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode,
                     err_path.read_text(errors="replace")[-400:], probes)

    def _wait(self, pid: int, probe: bool):
        """Waits for the child to exit, killing it at the deadline.  With `probe`,
        stops it every PROBE_PERIOD_S for one probe_s().  Returns its exit status,
        resource usage, the seconds it was stopped and the probe timings."""
        stopped, probes = 0.0, []
        pidfd = os.pidfd_open(pid)
        try:
            while True:
                remaining = self.deadline - time.perf_counter()
                if remaining <= 0:
                    os.kill(pid, signal.SIGKILL)
                wait = min(PROBE_PERIOD_S, remaining) if probe else remaining
                if select.select([pidfd], [], [], max(wait, 0.0))[0]:
                    _, status, usage = os.wait4(pid, 0)
                    return status, usage, stopped, probes
                if not probe or remaining <= 0:
                    continue
                stop = time.perf_counter()
                os.kill(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):       # it exited before the signal arrived
                    return status, usage, stopped, probes
                probes.append(probe_s())
                os.kill(pid, signal.SIGCONT)
                stopped += time.perf_counter() - stop
        finally:
            os.close(pidfd)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile of (50, 90, 99, 99.9) with at least 10 samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return {"p": pct, "s": statistics.quantiles(samples, n=1000)[round(pct * 10) - 1]}
    return None


def timing(samples: list[float]) -> dict:
    return {"median_s": statistics.median(samples), "tail": tail_percentile(samples),
            "n": len(samples), "samples": samples}


_PROBE_SMALL = np.random.default_rng(0).random(16)
_PROBE_LARGE = np.random.default_rng(1).random(100_000)


def probe_s() -> float:
    """Time, in this process, of a fixed mix of the work dlczsim does, in about
    equal parts: numpy calls on small arrays, an interpreted loop, and passes
    over a larger array.  (Each part alone follows the host's slow and fast
    phases more or less steeply than the commands do.)  It never touches
    dlczsim, so no change to the program moves it."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(np.exp(-_PROBE_SMALL * (i * 1e-4)).sum())
    total = 0
    for i in range(20_000):
        total += i * i
    large = _PROBE_LARGE
    for _ in range(10):
        large = np.sqrt(large + 1.0)
    return time.perf_counter() - start


class Bench:
    def __init__(self, workload: str, seed: int, sizes, work: Path, deadline: float,
                 tamper=None):
        self.wl = workloads.build(workload, seed, sizes)
        self.work = work
        self.runner = Runner(work, deadline)
        self.tally = Tally()
        self.hashes: dict[str, str] = {}          # output file -> digest of the first round
        self.tamper = tamper
        self.trials_lost: list[int] = []
        workloads.write_inputs(self.wl, seed, work)

    def setup_s(self) -> float:
        """Median time of a fresh interpreter through `import dlczsim.cli`."""
        argv = [sys.executable, "-c", "import dlczsim.cli"]
        self.runner.run(argv)                    # fills the bytecode caches
        samples = []
        for _ in range(SETUP_REPEATS):
            child = self.runner.run(argv)
            self.tally.record("setup", [] if child.rc == 0 else [child.stderr])
            samples.append(child.wall_s)
        return statistics.median(samples)

    def round(self, traced: bool, probe: bool = False) -> tuple[dict[str, Child], list[dict]]:
        """Runs the command chain once; returns each command's child process and trace spans."""
        children, spans = {}, []
        for cmd in self.wl.commands:
            for name in cmd.outputs:
                (self.work / name).unlink(missing_ok=True)
            if traced:
                spans_path = self.work / f"{cmd.name}.spans.json"
                spans_path.unlink(missing_ok=True)
                argv = [sys.executable, str(TRACED_CLI), str(spans_path), *cmd.args]
            else:
                argv = [sys.executable, "-m", "dlczsim.cli", *cmd.args]
            child = children[cmd.name] = self.runner.run(argv, probe)
            errors = [] if child.rc == 0 else [f"exit code {child.rc}: {child.stderr}"]
            if child.rc == 0:
                if self.tamper is not None:
                    self.tamper(self.work, cmd)
                errors += self.check(cmd)
                if traced:
                    span = json.loads(spans_path.read_text())
                    errors += trace_errors(span)
                    spans.append(span)
            what = ("traced " if traced else "") + cmd.name
            self.tally.record(what, errors)
        return children, spans

    def check(self, cmd: workloads.Command) -> list[str]:
        errors = []
        for name in cmd.outputs:
            path = self.work / name
            if not path.is_file():
                errors.append(f"{name} missing")
                continue
            digest = sha256(path)
            if self.hashes.setdefault(name, digest) != digest:
                errors.append(f"{name} differs from the first round's bytes")
        if errors or cmd.check == "none":
            return errors
        text = (self.work / cmd.outputs[0]).read_text(errors="replace")
        if cmd.check == "report":
            errors += workloads.check_report(self.wl, text)
            n_read = workloads.reported_trials(text)
            if n_read is None:
                errors.append("report has no n_trials")
            else:
                self.trials_lost.append(self.wl.trials - n_read)
        elif cmd.check == "fit":
            errors += workloads.check_fit(text)
        return errors


def trace_errors(span: dict) -> list[str]:
    """The whole command has to run inside one traced call of cli.main.

    Self times are spans minus child spans, so they add up to the root span;
    with cli.main as the only root, the layers' self times plus import and
    wrapper set-up account for the traced wall time.
    """
    if span["roots"] != {"cli.main": 1}:
        return [f"traced root calls {span['roots']}, expected one cli.main"]
    return []


def layer_metrics(spans: list[dict], trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where the workload does not run the layer."""
    fn = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    for span in spans:
        for name, (calls, total, self_s) in span["functions"].items():
            agg = fn[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in span["counts"].items():
            counts[name] += value

    def calls(name):
        return fn[name][0]

    def secs(name):
        return fn[name][1]

    def ratio(num, den):
        return num / den if den else 0.0

    def self_s(layer):
        return sum(v[2] for k, v in fn.items() if k.split(".", 1)[0] == layer)

    return {
        "photon_model.click_statistics.calls": calls("photon_model.click_statistics"),
        "photon_model.click_statistics.us_per_call":
            1e6 * ratio(secs("photon_model.click_statistics"), calls("photon_model.click_statistics")),
        "photon_model.full_metrics.calls": calls("photon_model.full_metrics"),
        "photon_model.full_metrics.us_per_call":
            1e6 * ratio(secs("photon_model.full_metrics"), calls("photon_model.full_metrics")),
        "photon_model.self_s": self_s("photon_model"),
        "event_sim.run_session.s": secs("event_sim.run_session"),
        "event_sim.trials_per_s": ratio(counts["trials_simulated"], secs("event_sim.run_session")),
        "event_sim.records_per_trial": ratio(counts["records_simulated"], counts["trials_simulated"]),
        "event_sim.self_s": self_s("event_sim"),
        "records_io.write_records.s": secs("records_io.write_records"),
        "records_io.write_mb_per_s":
            ratio(counts["bytes_written"] / 1e6, secs("records_io.write_records")),
        "records_io.read_records.s": secs("records_io.read_records"),
        "records_io.read_mb_per_s": ratio(counts["bytes_read"] / 1e6, secs("records_io.read_records")),
        "records_io.bytes": counts["bytes_written"],
        "records_io.records": counts["records_written"],
        "records_io.trials_lost": trials - counts["trials_read"] if trials else 0,
        "records_io.self_s": self_s("records_io"),
        "correlator.accumulate.s": secs("correlator.accumulate"),
        "correlator.accumulate.records_per_s":
            ratio(counts["records_accumulated"], secs("correlator.accumulate")),
        "correlator.estimate_metrics.s": secs("correlator.estimate_metrics"),
        "correlator.self_s": self_s("correlator"),
        "model_fit.fit.s": secs("model_fit.fit"),
        "model_fit.objective.calls": calls("model_fit.objective"),
        "model_fit.objective.ms_per_call":
            1e3 * ratio(secs("model_fit.objective"), calls("model_fit.objective")),
        "model_fit.residuals.calls": calls("model_fit.residuals"),
        "model_fit.chi_from_p1.calls": calls("model_fit.chi_from_p1"),
        "model_fit.chi_from_p1.ms_per_call":
            1e3 * ratio(secs("model_fit.chi_from_p1"), calls("model_fit.chi_from_p1")),
        "model_fit.predict_curves.s": secs("model_fit.predict_curves"),
        "model_fit.starts_useful_frac": ratio(counts["starts_useful"], counts["starts"]),
        "model_fit.self_s": self_s("model_fit"),
        "cli.import_s": statistics.mean(span["import_s"] for span in spans),
        "cli.self_s": self_s("cli"),
    }


def provenance(hashes: dict[str, str]) -> dict:
    import numpy
    import scipy
    sources = sorted(PACKAGE.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    return {"git_sha": git_sha, "source_sha256": digest.hexdigest(), "source_lines": lines,
            "nproc": NPROC, "pinned_cpu": CPU, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "output_sha256": hashes}


def run(workload: str, seed: int, seconds: int, trace: bool, sizes=None, tamper=None) -> dict:
    """Runs one workload; prints a summary and returns the result object."""
    sizes = sizes or workloads.Sizes()
    started = time.perf_counter()
    os.sched_setaffinity(0, {CPU})               # inherited by every command
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, seed, sizes, work, started + RUN_LIMIT_S, tamper)
        metrics, detail = (traced_run if trace else untraced_run)(bench, started, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = bench.tally
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    detail.update(workload=workload, seed=seed, trace=int(trace),
                  error_rate=tally.failed / tally.attempted, failures=tally.failures,
                  trials_lost=bench.trials_lost, provenance=provenance(bench.hashes))
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    assert metrics.keys() == units.keys(), sorted(metrics.keys() ^ units.keys())
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def _keep_going(chains: int, round_start: float, measure_end: float, run_end: float) -> bool:
    """True if another round as long as the last one fits in the run, and either in
    the measuring time or fewer than two chains have run: byte identity between
    chains is always checked."""
    now = time.perf_counter()
    length = now - round_start
    return now + length <= run_end and (chains < 2 or now + length <= measure_end)


def untraced_run(bench: Bench, started: float, seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics; wall_rel is each round's wall time in probe units."""
    setup = bench.setup_s()
    rounds = []
    measure_end = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        rounds.append(bench.round(traced=False, probe=True)[0])
        if not _keep_going(len(rounds), round_start, measure_end, started + RUN_LIMIT_S - 20):
            break
    walls = [sum(c.wall_s for c in r.values()) for r in rounds]
    relative = [sum(c.wall_s / statistics.median(c.probes) for c in r.values()) for r in rounds]
    # the first round, in a fresh work directory, often reads low; where three or
    # more rounds ran it is a warm-up, checked but left out of wall_rel
    timed = relative[1:] if len(relative) > 2 else relative
    detail = {"rounds": len(rounds),
              "commands": {name: timing([r[name].wall_s for r in rounds]) for name in rounds[0]},
              "wall": timing(walls), "wall_rel": relative,
              "probe_s": {name: timing([statistics.median(r[name].probes) for r in rounds])
                          for name in rounds[0]}}
    if bench.wl.trials:
        detail["trials_per_s"] = statistics.median(bench.wl.trials / t for t in walls)
    metrics = {"setup_s": setup, "wall_rel": statistics.median(timed),
               "peak_rss_mb": max(c.maxrss_mb for r in rounds for c in r.values())}
    return metrics, detail


def traced_run(bench: Bench, started: float, seconds: int) -> tuple[dict, dict]:
    bench.runner.run([sys.executable, "-c", "import dlczsim.cli"])   # fills the bytecode caches
    plain, traced, layers = [], [], []
    measure_end = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        plain.append(sum(c.wall_s for c in bench.round(traced=False)[0].values()))
        children, spans = bench.round(traced=True)
        traced.append(sum(c.wall_s for c in children.values()))
        if len(spans) == len(bench.wl.commands):
            layers.append(layer_metrics(spans, bench.wl.trials))
        if not _keep_going(2 * len(plain), round_start, measure_end,
                           started + RUN_LIMIT_S - 20):
            break
    if not layers:                                    # no traced round succeeded
        layers = [dict.fromkeys(PER_LAYER_UNITS.keys() - {"trace.overhead_s"}, 0)]
    metrics = {"trace.overhead_s": statistics.median(traced) - statistics.median(plain)}
    for name in layers[0]:
        # counts repeat exactly from round to round; median_low keeps them whole
        median = statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median
        metrics[name] = median(m[name] for m in layers)
    detail = {"rounds": len(plain), "untraced_wall": timing(plain), "traced_wall": timing(traced)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: dlczsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
