"""Run one dlczsim CLI command in-process, with timing wrappers around each layer.

Usage:  python3 perfbench/traced_cli.py SPANS_JSON <dlczsim cli arguments...>

Every public function of each layer module is wrapped, and so is every binding
another module made of it by name (`from .event_sim import run_session`), so
calls are counted whichever name they go through.  Each wrapper records calls,
inclusive seconds and self seconds (its span minus its child spans) in memory;
SPANS_JSON is written once, after the command returns.  Exits with the
command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("photon_model", "event_sim", "records_io", "correlator", "model_fit", "cli")
# inner helper called about 1e6 times per fit: a wrapper there would dominate the trace
UNWRAPPED = {"photon_model.tmss_pgf"}


def _count_session(counts, args, out):
    counts["trials_simulated"] += out.n_trials
    counts["records_simulated"] += len(out)


def _count_write(counts, args, out):
    counts["bytes_written"] += out
    counts["records_written"] += len(args[0])


def _count_read(counts, args, out):
    counts["bytes_read"] += args[0].tell()
    counts["records_read"] += len(out)
    counts["trials_read"] += out.n_trials


def _count_accumulate(counts, args, out):
    counts["records_accumulated"] += len(args[1])


def _count_fit(counts, args, out):
    objs = out.start_objectives
    best = min(objs)
    counts["starts"] += len(objs)
    counts["starts_useful"] += sum(o <= best + 1e-3 * abs(best) for o in objs)


# item counts taken at layer boundaries, from a call's arguments and result
COUNTERS = {
    "event_sim.run_session": _count_session,
    "records_io.write_records": _count_write,
    "records_io.read_records": _count_read,
    "correlator.accumulate": _count_accumulate,
    "model_fit.fit": _count_fit,
}


class Tracer:
    def __init__(self):
        self.stats = {}                   # "layer.function" -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.roots = defaultdict(int)     # calls made outside any other traced call
        self._open = []                   # child seconds of each open span

    def wrap(self, qualname, fn):
        stats = self.stats.setdefault(qualname, [0, 0.0, 0.0])
        counter = COUNTERS.get(qualname)
        open_spans, counts, roots, clock = self._open, self.counts, self.roots, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += span
                stats[2] += span - children
                if open_spans:
                    open_spans[-1] += span
                else:
                    roots[qualname] += 1
            if counter is not None:
                counter(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dlczsim.{layer}")
            for name, fn in vars(module).items():
                qualname = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and qualname not in UNWRAPPED
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self.wrap(qualname, fn)
        for modname, module in list(sys.modules.items()):
            if modname == "dlczsim" or modname.startswith("dlczsim."):
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, name, wrappers[value])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import dlczsim.cli
    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    installed = time.perf_counter()
    rc = dlczsim.cli.main(cli_args)
    end = time.perf_counter()
    with open(spans_path, "w") as sink:
        json.dump({"import_s": imported - start, "install_s": installed - imported,
                   "wall_s": end - start, "functions": tracer.stats,
                   "counts": tracer.counts, "roots": tracer.roots}, sink)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
