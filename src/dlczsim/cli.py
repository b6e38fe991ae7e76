"""Command-line pipeline: simulate record files, analyze them, sweep curves, fit datasets.
Each command imports the modules it runs when it runs, so that it compiles no other."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .params import (DetectionConfig, DetectionMode, ModelParams, SessionSpec,
                     TrialSchedule, params_from_text, parse_keyvalues, schedule_from_text)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2


def _parsed(path: str, what: str, parse):
    """`parse` of a text file's contents.  An unreadable file is an OSError (exit 2), and a
    malformed one, not UTF-8 included, a ValueError (exit 1); each message names the file."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid {what} {path}: {exc}") from exc


def _load_params(path: str) -> tuple[ModelParams, TrialSchedule]:
    return _parsed(path, "params file", lambda text: (params_from_text(text),
                                                      schedule_from_text(text)))


@contextmanager
def _stage(stages: list, name: str):
    """Time a block and append {name, s, items} to stages; the block sets items."""
    entry = {"name": name, "s": 0.0, "items": 0}
    stages.append(entry)
    started = time.perf_counter()
    yield entry
    entry["s"] += time.perf_counter() - started


def _timed(entry: dict, items):
    """Yield from an iterable, adding the time taken to produce each item to a stage entry."""
    started = time.perf_counter()
    for item in items:
        entry["s"] += time.perf_counter() - started
        yield item
        started = time.perf_counter()
    entry["s"] += time.perf_counter() - started


def _write_manifest(out_path: str, command: str, config: dict, seed, started: float,
                    **extra) -> None:
    for stage in extra.get("stages", ()):
        stage["s"] = round(stage["s"], 6)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "wall_clock_s": round(time.monotonic() - started, 6),
        "outputs": [out_path],
        **extra,
    }
    _beside(out_path, ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _beside(out: str, suffix: str, text: str) -> None:
    """Write the side file `<out><suffix>`, only beside a regular file: none beside /dev/null."""
    if Path(out).is_file():
        Path(out + suffix).write_text(text)


def _curves_csv(curves) -> str:
    """The chi,p1,g12,qc,p12,w table of model curve points, one row per point."""
    rows = [f"{c.chi!r},{c.p1!r},{c.g12!r},{c.qc!r},{c.p12!r},{c.w!r}\n" for c in curves]
    return "".join(["chi,p1,g12,qc,p12,w\n", *rows])


def cmd_simulate(args) -> int:
    import numpy.random   # noqa: F401  the sampler's generator, loaded outside the timed stages
    from .event_sim import sampler_workers, session_chunks
    from .records_io import BINARY, CSV, write_chunks
    started = time.monotonic()
    params, schedule = _load_params(args.params)
    mode = DetectionMode(args.mode)
    spec = SessionSpec(params=params, config=DetectionConfig(mode), schedule=schedule,
                       n_trials=args.trials, seed=args.seed)
    workers = sampler_workers(spec.n_trials)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor   # noqa: F401  the sampler's pool, too
    sample = {"name": "sample", "s": 0.0, "items": spec.n_trials}   # timed within write
    stages = [sample]
    with _stage(stages, "write") as write, open(args.out, "wb") as sink:
        records, n_bytes = write_chunks(_timed(sample, session_chunks(spec)), sink,
                                        BINARY if args.format == "bin" else CSV,
                                        spec.n_trials, mode, spec.seed)
        write["items"] = records
    write["s"] -= sample["s"]
    _write_manifest(args.out, "simulate",
                    {"params_file": args.params, "mode": args.mode,
                     "trials": args.trials, "format": args.format, "records": records,
                     "bytes": n_bytes, "workers": workers},
                    args.seed, started, stages=stages)
    print(f"wrote {records} records ({n_bytes} bytes) to {args.out}")
    return EXIT_OK


def _manifest_trials(records: str) -> int | None:
    """`config.trials` of the manifest that `simulate` wrote beside a record file, if any."""
    try:
        trials = json.loads(Path(records + ".manifest.json").read_text())["config"]["trials"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return trials if type(trials) is int and trials >= 0 else None


def cmd_analyze(args) -> int:
    if args.error_method == "bootstrap":
        import numpy.random   # noqa: F401  the resampling generator, loaded outside the stages
    from .correlator import count_patterns, estimate_metrics, report_text, table_from_counts
    from .records_io import RecordReader
    started = time.monotonic()
    if args.trials is not None and args.trials < 0:
        raise ValueError("--trials must be >= 0")
    read = {"name": "read", "s": 0.0, "items": 0}   # timed within accumulate
    stages = [read]
    try:
        with ExitStack() as files, _stage(stages, "accumulate") as count:
            source = files.enter_context(open(args.records, "rb"))
            if not source.seekable():   # a pipe, say: every pass reads a copy on disk, rewound
                source, pipe = files.enter_context(tempfile.TemporaryFile()), source
                shutil.copyfileobj(pipe, source)
                source.seek(0)
            reader = RecordReader(source, args.trials)
            origin = "header" if reader.version == 2 else "flag" if args.trials is not None else None
            if origin is None:
                reader.n_trials = _manifest_trials(args.records)
                origin = "inferred" if reader.n_trials is None else "manifest"
            counts = count_patterns(_timed(read, reader))
            if counts is None:   # trial indices decrease somewhere: count the whole file, sorted
                source.seek(0)
                reader = RecordReader(source, reader.n_trials)
                trial, det = (np.concatenate(c) for c in zip(*(b[:2] for b in _timed(read, reader))))
                order = np.argsort(trial, kind="stable")
                counts = count_patterns([(trial[order], det[order])])
            table = table_from_counts(reader.mode, counts, reader.n_trials)
            count["items"] = read["items"] = reader.records
            n_bytes = source.seek(0, os.SEEK_END)
        count["s"] -= read["s"]
    except OSError as exc:   # a malformed record file included
        raise OSError(f"cannot read {args.records}: {exc}") from exc
    with _stage(stages, "estimate") as stage:
        metrics = estimate_metrics(table, eta2=args.eta2, method=args.error_method,
                                   seed=args.seed)
        stage["items"] = table.n_trials
    text = report_text(metrics)
    if args.out:
        Path(args.out).write_text(text)
        warnings = list(metrics.warnings) + (["trials-inferred"] if origin == "inferred" else [])
        _write_manifest(args.out, "analyze",
                        {"records_file": args.records, "eta2": args.eta2,
                         "error_method": args.error_method, "trials": args.trials,
                         "bytes": n_bytes},
                        args.seed, started, stages=stages, warnings=warnings,
                        n_trials=table.n_trials, n_trials_from=origin)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .model_fit import predict_curves
    started = time.monotonic()
    params, _ = _load_params(args.params)
    if not 0.0 < args.chi_min < args.chi_max < 1.0:
        raise ValueError("need 0 < chi-min < chi-max < 1")
    if args.points < 1:
        raise ValueError("points must be >= 1")
    curves = predict_curves(params, np.geomspace(args.chi_min, args.chi_max, args.points))
    Path(args.out).write_text(_curves_csv(curves))
    _write_manifest(args.out, "sweep",
                    {"params_file": args.params, "chi_min": args.chi_min,
                     "chi_max": args.chi_max, "points": args.points},
                    None, started)
    print(f"wrote {len(curves)} sweep points to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    import numpy.random   # noqa: F401  the starts' generator, loaded outside the timed stages
    from .model_fit import (DEFAULT_BOUNDS, chi_from_p1, covariance_csv, dataset_from_csv, fit,
                            fit_result_text, predict_curves)
    started = time.monotonic()
    stages = []
    with _stage(stages, "read") as stage:
        dataset = _parsed(args.dataset, "dataset", dataset_from_csv)
        stage["items"] = len(dataset)

    def parse_bounds(text: str) -> dict[str, tuple[float, float]]:
        bounds = {}
        for key, value in parse_keyvalues(text).items():
            name, _, which = key.rpartition("_")
            if which not in ("min", "max") or name not in DEFAULT_BOUNDS:
                raise ValueError(f"bad key {key!r} (expect <param>_min / <param>_max)")
            lo, hi = bounds.get(name, DEFAULT_BOUNDS[name])
            bounds[name] = (float(value), hi) if which == "min" else (lo, float(value))
        return bounds

    bounds = _parsed(args.bounds, "bounds file", parse_bounds) if args.bounds else None
    base = _load_params(args.params)[0] if args.params else ModelParams()
    with _stage(stages, "fit") as stage:
        result = fit(dataset, base=base, bounds=bounds, seed=args.seed,
                     n_starts=args.starts)
        stage["items"] = sum(s.nfev for s in result.starts)
    Path(args.out).write_text(fit_result_text(result))
    _beside(args.out, ".cov.csv", covariance_csv(result))

    with _stage(stages, "overlay") as stage:
        p1s = [pt.p1 for pt in dataset.points]
        grid = np.geomspace(max(min(p1s) * 0.5, 1e-8), 0.9, 60)
        chis = chi_from_p1(result.params, grid)
        chis = chis[np.isfinite(chis)]
        curves = predict_curves(result.params, chis)
        _beside(args.out, ".overlay.csv", _curves_csv(curves))
        stage["items"] = len(curves)

    dof = result.n_residuals - len(result.free_names)
    _write_manifest(args.out, "fit",
                    {"dataset": args.dataset, "bounds_file": args.bounds,
                     "starts": args.starts, "objective": result.objective,
                     "flags": list(result.flags)}, args.seed, started,
                    starts=[dataclasses.asdict(s) for s in result.starts], chi2=result.chi2,
                    chi2_points=list(result.chi2_points), dof=dof,
                    chi2_per_dof=result.objective / dof if dof > 0 else None,
                    stages=stages, warnings=list(result.flags))
    sys.stdout.write(fit_result_text(result))
    if "under-determined" in result.flags:
        print("warning: dataset is under-determined; parameter values are not unique",
              file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlczsim",
                                     description="Heralded photon-pair source simulator and analyzer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a detection record file")
    p.add_argument("--params", required=True, help="model params key-value file")
    p.add_argument("--trials", type=int, default=44000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["single", "split"], default="single")
    p.add_argument("--format", choices=["bin", "csv"], default="bin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate metrics from a record file")
    p.add_argument("records", help="record file (PDR2 or PDR1 binary, CSV v2 or v1)")
    p.add_argument("--trials", type=int, default=None,
                   help="trial count of a file whose header has none (PDR1, CSV v1)")
    p.add_argument("--eta2", type=float, default=0.25)
    p.add_argument("--error-method", choices=["delta", "bootstrap"], default="delta")
    p.add_argument("--seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="emit model curves over a drive-strength grid")
    p.add_argument("--params", required=True)
    p.add_argument("--chi-min", type=float, default=1e-4)
    p.add_argument("--chi-max", type=float, default=0.3)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit a global parameter set to a measured dataset")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--params", default=None, help="base params file for fixed values")
    p.add_argument("--bounds", default=None, help="key-value file of <param>_min/<param>_max")
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:   # I/O, a malformed record file included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry: `main`, then the standard streams flushed and the process ended
    without the interpreter's teardown.  Every file a command writes is closed by then."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:   # the interpreter reports it at exit, as it would without `run`
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
