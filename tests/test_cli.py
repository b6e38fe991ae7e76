import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dlczsim import (CountTable, DetectionConfig, DetectionMode, ModelParams, SessionSpec,
                     TrialSchedule, accumulate_clicks, click_statistics, estimate_metrics,
                     full_metrics, simulate_clicks)
from dlczsim import records_io
from dlczsim.cli import main
from dlczsim.correlator import report_text
from dlczsim.params import params_to_text, parse_keyvalues

from conftest import joined

PARAMS_TEXT = params_to_text(ModelParams(
    chi=0.02, bg1_coherent=2e-3, bg2_coherent=5e-3,
    bg1_incoherent=1e-4, bg2_incoherent=1e-4, chi_ref=0.01, retrieval_eff=0.5))
# params whose background mean overflows as chi -> 1: 1 / chi_ref, and bg1_coherent / chi_ref
OVERFLOWING_PARAMS = [b"chi = 0.9\nchi_ref = 5e-324\nbg2_coherent = 1\n",
                      b"chi = 0.5\nbg1_coherent = 1e308\n"]


@pytest.fixture
def params_file(tmp_path):
    f = tmp_path / "params.txt"
    f.write_text(PARAMS_TEXT)
    return str(f)


def read_report(path):
    return parse_keyvalues(path.read_text())


class TestSimulate:
    def test_deterministic_rerun(self, tmp_path, params_file):
        out1, out2 = tmp_path / "a.pdr", tmp_path / "b.pdr"
        for out in (out1, out2):
            rc = main(["simulate", "--params", params_file, "--trials", "44000",
                       "--seed", "1", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.pdr.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1

    def test_vacuum_gives_header_only(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text(params_to_text(ModelParams(chi=0.0)))
        out = tmp_path / "empty.pdr"
        assert main(["simulate", "--params", str(pf), "--trials", "1000",
                     "--out", str(out)]) == 0
        assert len(out.read_bytes()) == 49

    def test_split_mode_ids(self, tmp_path, params_file):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--params", params_file, "--trials", "20000",
                     "--mode", "split", "--format", "csv", "--out", str(out)]) == 0
        body = out.read_text().splitlines()[2:]
        dets = {line.split(",")[1] for line in body}
        assert dets <= {"D1", "D2a", "D2b"} and "D2" not in dets

    def test_missing_params_file(self, tmp_path):
        assert main(["simulate", "--params", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x.pdr")]) == 2

    def test_invalid_params_key_named(self, tmp_path, capsys):
        pf = tmp_path / "bad.txt"
        pf.write_text("chi = 0.1\nnot_a_key = 3\n")
        rc = main(["simulate", "--params", str(pf), "--out", str(tmp_path / "x.pdr")])
        assert rc == 1
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["bg1_coherent = nan", "bg2_incoherent = inf"])
    def test_non_finite_background_rejected(self, tmp_path, capsys, line):
        pf = tmp_path / "bad.txt"
        pf.write_text(f"chi = 0.1\n{line}\n")
        rc = main(["simulate", "--params", str(pf), "--out", str(tmp_path / "x.pdr")])
        assert rc == 1
        assert line.split()[0] in capsys.readouterr().err


    @pytest.mark.parametrize("line", ["mot_rate_hz = nan", "mot_rate_hz = inf",
                                      "window_ms = nan", "window_ms = inf", "window_ms = 100"])
    def test_non_finite_schedule_rejected(self, tmp_path, capsys, line):
        pf = tmp_path / "bad.txt"
        pf.write_text(f"chi = 0.1\n{line}\n")
        rc = main(["simulate", "--params", str(pf), "--out", str(tmp_path / "x.pdr")])
        assert rc == 1
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "write_offset_ns = -100\nread_delay_ns = 300\n",
        "mot_rate_hz = 0.05\nwindow_ms = 20000\ntrials_per_window = 1\n"
        "trial_period_ns = 17179869184\nread_delay_ns = 8589934592\n"],
        ids=["negative-write-offset", "read-offset-2**33"])
    def test_schedule_offsets_outside_uint32_rejected(self, tmp_path, capsys, text):
        pf = tmp_path / "bad.txt"
        pf.write_text("chi = 0.1\n" + text)
        out = tmp_path / "x.pdr"
        assert main(["simulate", "--params", str(pf), "--trials", "10", "--out", str(out)]) == 1
        assert "write_offset_ns" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_trials_is_usage_error(self, tmp_path, capsys, params_file):
        out = tmp_path / "x.pdr"
        assert main(["simulate", "--params", params_file, "--trials", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_trials must be >= 0\n"
        assert not out.exists()


class TestAnalyze:
    def test_matches_analytic(self, tmp_path, params_file):
        out = tmp_path / "r.pdr"
        report = tmp_path / "report.txt"
        main(["simulate", "--params", params_file, "--trials", "2000000",
              "--seed", "3", "--out", str(out)])
        assert main(["analyze", str(out), "--out", str(report)]) == 0
        kv = read_report(report)
        p = ModelParams(**{k: float(v) for k, v in parse_keyvalues(PARAMS_TEXT).items()})
        ana = click_statistics(p, DetectionConfig(DetectionMode.SINGLE))
        n = 2_000_000
        for name, target in (("p1", ana.p1), ("p2", ana.p2), ("p12", ana.p12)):
            se = math.sqrt(target * (1 - target) / n)
            assert abs(float(kv[name]) - target) <= 4 * se, name

    def test_formats_agree(self, tmp_path, params_file):
        reports = []
        for fmt in ("bin", "csv"):
            out = tmp_path / f"r.{fmt}"
            rep = tmp_path / f"rep.{fmt}.txt"
            main(["simulate", "--params", params_file, "--trials", "50000",
                  "--seed", "4", "--format", fmt, "--out", str(out)])
            main(["analyze", str(out), "--out", str(rep)])
            reports.append(rep.read_text())
        assert reports[0] == reports[1]

    def test_no_heralds_flagged(self, tmp_path):
        pf = tmp_path / "p.txt"
        # field 2 background only: D1 never clicks
        pf.write_text(params_to_text(ModelParams(chi=0.0, bg2_incoherent=0.01)))
        out = tmp_path / "r.pdr"
        rep = tmp_path / "rep.txt"
        main(["simulate", "--params", str(pf), "--trials", "100000", "--out", str(out)])
        assert main(["analyze", str(out), "--out", str(rep)]) == 0
        kv = read_report(rep)
        assert {"g12", "pc", "qc"} <= set(kv["undefined"].split(","))
        # the report's warnings, machine-readable in the manifest
        warnings = json.loads((tmp_path / "rep.txt.manifest.json").read_text())["warnings"]
        assert warnings == [line.split(" = ", 1)[1] for line in rep.read_text().splitlines()
                            if line.startswith("warning = ")]
        assert warnings[0].startswith("low-count: n1,")

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pdr"
        bad.write_bytes(b"PDR1" + b"\x01\x00\x00\x00" + b"\xff" * 11)
        assert main(["analyze", str(bad)]) == 2
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b"trial_index,detector,offset_ns\n1,D1,0\n\xff\xfe,D2,300\n",
        b"trial_index,detector,offset_ns\n1,D1,0\n1,D2,300\n2,D2a,300\n",
        b"trial_index,detector,offset_ns\n-1,D1,0\n",
    ], ids=["not-utf8", "mixed-modes", "negative-trial"])
    def test_malformed_records_exit_2(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        assert main(["analyze", str(bad)]) == 2
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("eta2", ["0", "-1", "nan", "inf", "1.5"])
    def test_eta2_out_of_range_is_usage_error(self, tmp_path, capsys, params_file, eta2):
        out = tmp_path / "r.pdr"
        main(["simulate", "--params", params_file, "--trials", "1000", "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out), "--eta2", eta2]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "eta2" in captured.err
        assert captured.out == ""


def test_manifest_stages(tmp_path, params_file):
    records, report = tmp_path / "r.pdr", tmp_path / "report.txt"
    assert main(["simulate", "--params", params_file, "--trials", "20000",
                 "--seed", "3", "--out", str(records)]) == 0
    assert main(["analyze", str(records), "--out", str(report)]) == 0
    sim = json.loads((tmp_path / "r.pdr.manifest.json").read_text())
    ana = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    n_records = sim["config"]["records"]
    assert n_records > 0
    n_read = int(read_report(report)["n_trials"])
    assert n_read == 20000
    dataset, _ = TestFitCmd()._dataset_csv(tmp_path)
    assert main(["fit", str(dataset), "--starts", "2", "--out", str(tmp_path / "fit.txt")]) == 0
    fitm = json.loads((tmp_path / "fit.txt.manifest.json").read_text())
    n_overlay = len((tmp_path / "fit.txt.overlay.csv").read_text().splitlines()) - 1
    expected = {"simulate": [("sample", 20000), ("write", n_records)],
                "analyze": [("read", n_records), ("accumulate", n_records),
                            ("estimate", n_read)],
                "fit": [("read", 8), ("fit", sum(s["nfev"] for s in fitm["starts"])),
                        ("overlay", n_overlay)]}
    assert n_overlay > 0
    for manifest in (sim, ana, fitm):
        stages = manifest["stages"]
        for stage in stages:
            assert set(stage) == {"name", "s", "items"}
            assert isinstance(stage["s"], float) and 0.0 <= stage["s"] <= manifest["wall_clock_s"]
            assert isinstance(stage["items"], int)
        assert [(st["name"], st["items"]) for st in stages] == expected[manifest["command"]]


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_simulate_manifest_records_workers(tmp_path, params_file, monkeypatch, fmt):
    # three work units or more: as many threads as CPUs, and the same bytes
    outs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out = tmp_path / f"r{cpus}.{fmt}"
        assert main(["simulate", "--params", params_file, "--trials", "100000", "--seed", "4",
                     "--mode", "split", "--format", fmt, "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["workers"] == cpus
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_analyze_manifest_records_bytes_read(tmp_path, params_file, fmt):
    # the size of the record file, named or copied from a pipe
    records = tmp_path / f"r.{fmt}"
    assert main(["simulate", "--params", params_file, "--trials", "20000", "--mode", "split",
                 "--format", fmt, "--out", str(records)]) == 0
    written = json.loads(Path(f"{records}.manifest.json").read_text())["config"]["bytes"]
    assert analyze_manifest(tmp_path, records)[1]["config"]["bytes"] == written
    done = cli_process(["analyze", "/dev/stdin", "--out", "piped.txt"],
                       tmp_path, input=records.read_bytes())
    assert done.returncode == 0, done.stderr
    piped = json.loads((tmp_path / "piped.txt.manifest.json").read_text())
    assert piped["config"]["bytes"] == written == records.stat().st_size


def version_1(path: Path, out: Path) -> None:
    """Write a PDR2 / CSV v2 record file as the version-1 bytes of the same records."""
    data = path.read_bytes()
    if data[:4] == b"PDR2":
        count = (len(data) - 49) // 13
        out.write_bytes(b"PDR1" + (1).to_bytes(4, "little") + count.to_bytes(8, "little")
                        + data[49:])
    else:
        out.write_bytes(data.partition(b"\n")[2])


def count_reader_passes(monkeypatch) -> list:
    """The names of the files that `analyze` opens a `RecordReader` on, a name per pass."""
    passes, reader = [], records_io.RecordReader
    monkeypatch.setattr(records_io, "RecordReader", lambda source, *a: passes.append(source.name)
                        or reader(source, *a))
    return passes


def analyze_manifest(tmp_path, *args):
    report = tmp_path / "report.txt"
    assert main(["analyze", *map(str, args), "--out", str(report)]) == 0
    return read_report(report), json.loads((tmp_path / "report.txt.manifest.json").read_text())


class TestTrialCount:
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("mode", ["single", "split"])
    def test_no_click_session(self, tmp_path, mode, fmt):
        pf = tmp_path / "p.txt"
        pf.write_text(params_to_text(ModelParams(chi=0.01)))
        out = tmp_path / f"r.{fmt}"
        assert main(["simulate", "--params", str(pf), "--trials", "10", "--mode", mode,
                     "--format", fmt, "--out", str(out)]) == 0
        assert json.loads((tmp_path / f"r.{fmt}.manifest.json").read_text())["config"]["records"] == 0
        kv, manifest = analyze_manifest(tmp_path, out)
        assert (kv["mode"], kv["n_trials"], kv["p1"]) == (mode, "10", "0.0")
        assert (manifest["n_trials"], manifest["n_trials_from"]) == (10, "header")

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_version_1_files(self, tmp_path, params_file, fmt):
        new = tmp_path / f"new.{fmt}"
        assert main(["simulate", "--params", params_file, "--trials", "3000", "--seed", "2",
                     "--format", fmt, "--out", str(new)]) == 0
        with open(new, "rb") as source:
            last = int(joined(records_io.RecordReader(source))[0].max())
        assert last + 1 < 3000     # inference would lose trials
        old = tmp_path / f"old.{fmt}"
        version_1(new, old)
        expected = analyze_manifest(tmp_path, new)[0]

        kv, flag = analyze_manifest(tmp_path, old, "--trials", 3000)
        assert kv == expected and (flag["n_trials"], flag["n_trials_from"]) == (3000, "flag")
        (tmp_path / f"old.{fmt}.manifest.json").write_text(
            (tmp_path / f"new.{fmt}.manifest.json").read_text())
        kv, beside = analyze_manifest(tmp_path, old)
        assert kv == expected
        assert (beside["n_trials"], beside["n_trials_from"]) == (3000, "manifest")
        (tmp_path / f"old.{fmt}.manifest.json").unlink()
        kv, inferred = analyze_manifest(tmp_path, old)
        assert kv["n_trials"] == str(last + 1)
        assert (inferred["n_trials"], inferred["n_trials_from"]) == (last + 1, "inferred")
        assert "trials-inferred" in inferred["warnings"]
        assert "trials-inferred" not in flag["warnings"] + beside["warnings"]

    def test_garbage_beside_a_manifest_is_format_error(self, tmp_path, params_file):
        records = tmp_path / "r.pdr"
        assert main(["simulate", "--params", params_file, "--trials", "100",
                     "--out", str(records)]) == 0
        records.write_bytes(b"not a record file\n")
        assert main(["analyze", str(records)]) == 2

    @pytest.mark.parametrize("trials", ["-1", "99"])
    def test_bad_trials_flag_is_usage_error(self, tmp_path, params_file, trials):
        records = tmp_path / "r.pdr"
        assert main(["simulate", "--params", params_file, "--trials", "100",
                     "--out", str(records)]) == 0
        assert main(["analyze", str(records), "--trials", trials]) == 1

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_trial_counts_beyond_int64(self, tmp_path, capsys, params_file, fmt):
        # a version-2 header of 2**64 trials, and --trials 10**19 on the version-1 file
        records = tmp_path / f"r.{fmt}"
        assert main(["simulate", "--params", params_file, "--trials", "1000", "--seed", "3",
                     "--format", fmt, "--out", str(records)]) == 0
        with open(records, "rb") as source:
            reader = records_io.RecordReader(source)
            columns = joined(reader)
        huge = tmp_path / f"huge.{fmt}"
        with open(huge, "wb") as sink:
            records_io.write_chunks([columns], sink, fmt, 2 ** 64, reader.mode, reader.seed)
        old = tmp_path / f"old.{fmt}"
        version_1(records, old)
        for path, args, n_trials in ((huge, [], 2 ** 64),
                                     (old, ["--trials", str(10 ** 19)], 10 ** 19)):
            kv, manifest = analyze_manifest(tmp_path, path, *args)
            assert kv["n_trials"] == str(n_trials) and manifest["n_trials"] == n_trials
            capsys.readouterr()
            assert main(["analyze", str(path), *args, "--error-method", "bootstrap"]) == 1
            assert capsys.readouterr().err.startswith("error: the bootstrap draws at most")

    def test_unsorted_csv_on_a_pipe(self, tmp_path, params_file):
        import dlczsim
        records = tmp_path / "r.csv"
        assert main(["simulate", "--params", params_file, "--trials", "20000", "--seed", "5",
                     "--mode", "split", "--format", "csv", "--out", str(records)]) == 0
        expected = analyze_manifest(tmp_path, records)[0]
        _, columns, *rows = records.read_bytes().splitlines(keepends=True)
        reversed_v1 = columns + b"".join(rows[::-1])
        src = str(Path(dlczsim.__file__).resolve().parents[1])
        out = tmp_path / "piped.txt"
        subprocess.run([sys.executable, "-m", "dlczsim.cli", "analyze", "/dev/stdin", "--trials",
                        "20000", "--out", str(out)], input=reversed_v1, capture_output=True,
                       check=True, env={**os.environ, "PYTHONPATH": src})
        assert read_report(out) == expected

    def test_sorted_csv_on_a_pipe_peaks_as_the_named_file(self, tmp_path):
        # a pipe is read from a copy on disk: keeping its trial and detector columns in
        # memory instead, 9 bytes a record, would add 9 MB to the peak
        import dlczsim
        n = 1_000_000
        records = tmp_path / "sorted.csv"
        with open(records, "wb") as sink:
            records_io.write_chunks([(np.arange(n, dtype=np.uint64), np.arange(n, dtype=np.uint8) % 2,
                                      np.zeros(n, np.uint32))], sink, records_io.CSV, n,
                                    DetectionMode.SINGLE)
        # the peak resident size of this process image in KiB: ru_maxrss would keep that of
        # the test process, which it inherits at fork
        peak = ("import re, sys; from dlczsim.cli import main; main(sys.argv[1:]); "
                r"print(re.search(r'VmHWM:\s*(\d+)', open('/proc/self/status').read())[1])")
        env = {**os.environ, "PYTHONPATH": str(Path(dlczsim.__file__).resolve().parents[1])}
        named, piped = (subprocess.run([sys.executable, "-c", peak, "analyze", path], input=data,
                                       capture_output=True, check=True, env=env).stdout.splitlines()
                        for path, data in ((str(records), None), ("/dev/stdin", records.read_bytes())))
        assert named[:-1] == piped[:-1] and b"n_trials = 1000000" in named
        assert int(piped[-1]) - int(named[-1]) < 3 * 1024

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_count_table_does_not_depend_on_block_size(self, tmp_path, monkeypatch, fmt):
        pf = tmp_path / "p.txt"
        params = ModelParams(chi=0.3, bg1_incoherent=1e-3, bg2_incoherent=1e-3)
        pf.write_text(params_to_text(params))
        out = tmp_path / f"r.{fmt}"
        assert main(["simulate", "--params", str(pf), "--trials", "20000", "--seed", "6",
                     "--mode", "split", "--format", fmt, "--out", str(out)]) == 0
        spec = SessionSpec(params=params, config=DetectionConfig(DetectionMode.SPLIT),
                           n_trials=20000, seed=6)
        table = CountTable(DetectionMode.SPLIT)
        for _, codes in simulate_clicks(spec):
            table = accumulate_clicks(table, codes)
        expected = report_text(estimate_metrics(table))
        for block in (64, 4099, 1 << 18):
            monkeypatch.setattr(records_io, "_BLOCK", block)
            assert main(["analyze", str(out), "--out", str(tmp_path / "rep.txt")]) == 0
            assert (tmp_path / "rep.txt").read_text() == expected, block

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_unsorted_file_is_counted_whole(self, tmp_path, monkeypatch, params_file, fmt):
        new = tmp_path / f"new.{fmt}"
        assert main(["simulate", "--params", params_file, "--trials", "5000", "--seed", "1",
                     "--mode", "split", "--format", fmt, "--out", str(new)]) == 0
        with open(new, "rb") as source:
            reader = records_io.RecordReader(source)
            columns = joined(reader)
        order = np.random.default_rng(0).permutation(len(columns[0]))
        shuffled = tmp_path / f"shuffled.{fmt}"
        with open(shuffled, "wb") as sink:
            records_io.write_chunks([tuple(c[order] for c in columns)], sink, fmt, reader.n_trials,
                                    reader.mode, reader.seed)
        old = tmp_path / f"old.{fmt}"
        version_1(shuffled, old)
        passes = count_reader_passes(monkeypatch)
        for path in (new, old, shuffled):
            assert main(["analyze", str(path), "--trials", "5000",
                         "--out", str(tmp_path / f"{path.name}.txt")]) == 0
        assert passes == [str(new), str(old), str(old), str(shuffled), str(shuffled)]
        reports = [(tmp_path / f"{p}.{fmt}.txt").read_text() for p in ("new", "old", "shuffled")]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("fmt, block", [("bin", 4 * 13), ("csv", 8)])
    def test_decrease_across_sorted_blocks_is_counted_whole(self, tmp_path, monkeypatch, fmt,
                                                            block):
        # blocks of 4 binary records or 1 CSV row: each block is sorted by trial, but the
        # fifth record starts below the fourth one's trial
        columns = (np.array([4, 4, 5, 7, 0, 1, 1, 3], np.uint64),
                   np.array([0, 1, 0, 1, 1, 0, 1, 0], np.uint8), np.zeros(8, np.uint32))
        monkeypatch.setattr(records_io, "_BLOCK", block)
        paths = {}
        for name, order in (("sorted", np.argsort(columns[0], kind="stable")),
                            ("blocks", slice(None))):
            paths[name] = tmp_path / f"{name}.{fmt}"
            with open(paths[name], "wb") as sink:
                records_io.write_chunks([tuple(c[order] for c in columns)], sink, fmt, 10,
                                        DetectionMode.SINGLE, 0)
        with open(paths["blocks"], "rb") as source:
            trials = [trial for trial, _, _ in records_io.RecordReader(source) if len(trial)]
        assert len(trials) > 1 and all(np.all(t[1:] >= t[:-1]) for t in trials)
        assert any(b[0] < a[-1] for a, b in zip(trials, trials[1:]))
        passes = count_reader_passes(monkeypatch)
        reports = [analyze_manifest(tmp_path, paths[name])[0] for name in ("sorted", "blocks")]
        assert passes == [str(paths["sorted"]), str(paths["blocks"]), str(paths["blocks"])]
        assert reports[0] == reports[1]
        assert (reports[1]["n_trials"], reports[1]["p1"], reports[1]["p12"]) == ("10", "0.4", "0.2")


class TestSweep:
    def test_single_row(self, tmp_path, params_file):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--params", params_file, "--chi-min", "0.01",
                     "--chi-max", "0.1", "--points", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_three_regimes(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text(params_to_text(ModelParams(
            bg1_incoherent=3e-5, retrieval_eff=0.5, chi_ref=0.01)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--params", str(pf), "--chi-min", "1e-4",
                     "--chi-max", "0.5", "--points", "40", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        qc = np.array([float(r[3]) for r in rows])
        assert qc[0] < 0.45            # noise floor
        assert qc[-1] > 0.55           # multi-excitation
        mid = qc[(qc > 0.45) & (qc < 0.55)]
        assert len(mid) >= 3

    def test_clean_sweep_monotone(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text(params_to_text(ModelParams(retrieval_eff=0.5)))
        out = tmp_path / "sweep.csv"
        main(["sweep", "--params", str(pf), "--chi-min", "1e-4", "--chi-max", "0.3",
              "--points", "25", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        p1 = [float(r[1]) for r in rows]
        g12 = [float(r[2]) for r in rows]
        w = [float(r[5]) for r in rows]
        assert p1 == sorted(p1)
        assert all(b < a for a, b in zip(g12, g12[1:]))
        assert all(b > a for a, b in zip(w, w[1:]))

    def test_params_comments_and_blank_lines_are_skipped(self, tmp_path, params_file):
        commented = tmp_path / "commented.txt"
        commented.write_text("# model\n\n" + PARAMS_TEXT.replace("\n", "  # a value\n\n"))
        for pf, out in ((params_file, "plain.csv"), (commented, "commented.csv")):
            assert main(["sweep", "--params", str(pf), "--points", "5",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "commented.csv").read_bytes()

    def test_grid_validation(self, tmp_path, params_file):
        assert main(["sweep", "--params", params_file, "--chi-min", "0.5",
                     "--chi-max", "0.1", "--out", str(tmp_path / "x.csv")]) == 1


class TestFitCmd:
    def _dataset_csv(self, tmp_path, drop_w=False):
        from dlczsim.model_fit import DataPoint, Dataset, dataset_to_csv
        from dlczsim.photon_model import p1_of_chi
        true = ModelParams(bg1_coherent=2e-3, bg2_coherent=5e-3,
                           bg1_incoherent=1e-5, bg2_incoherent=1e-5,
                           chi_ref=0.01, retrieval_eff=0.5)
        pts = []
        for chi in np.geomspace(1e-3, 0.2, 8):
            m = full_metrics(true.with_chi(float(chi)))
            pts.append(DataPoint(p1=float(p1_of_chi(true, chi)), p1_se=1e-6,
                                 g12=m.g12, g12_se=0.02 * m.g12,
                                 qc=m.qc, qc_se=0.01,
                                 p12=m.p12, p12_se=0.02 * m.p12,
                                 w=math.nan if drop_w else m.w,
                                 w_se=math.nan if drop_w else 0.01))
        f = tmp_path / "dataset.csv"
        f.write_text(dataset_to_csv(Dataset(pts)))
        return f, true

    def test_fit_outputs(self, tmp_path):
        f, true = self._dataset_csv(tmp_path)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--seed", "1", "--starts", "4",
                     "--out", str(out)]) == 0
        kv = parse_keyvalues(out.read_text())
        assert float(kv["retrieval_eff"]) == pytest.approx(0.5, rel=0.05)
        assert (tmp_path / "fit.txt.cov.csv").exists()
        assert (tmp_path / "fit.txt.overlay.csv").exists()

    def test_manifest_fit_diagnostics(self, tmp_path):
        f, _ = self._dataset_csv(tmp_path)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--seed", "1", "--starts", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "fit.txt.manifest.json").read_text())
        starts = manifest["starts"]
        assert len(starts) == 3
        for start in starts:
            assert set(start) == {"objective", "nfev", "status"}
            assert isinstance(start["objective"], float) and start["objective"] >= 0
            assert isinstance(start["nfev"], int) and start["nfev"] > 0
            assert isinstance(start["status"], int)
        chi2 = manifest["chi2"]
        assert set(chi2) == {"g12", "p12", "qc", "w"}
        assert all(isinstance(v, float) and v >= 0 for v in chi2.values())
        objective = float(parse_keyvalues(out.read_text())["objective"])
        assert objective == min(s["objective"] for s in starts)
        assert sum(chi2.values()) == pytest.approx(objective, rel=1e-12, abs=1e-300)

    def test_manifest_chi2_per_point(self, tmp_path):
        f, _ = self._dataset_csv(tmp_path)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--seed", "1", "--starts", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "fit.txt.manifest.json").read_text())
        points = manifest["chi2_points"]
        assert len(points) == len(f.read_text().splitlines()) - 1
        assert all(isinstance(v, float) and v >= 0 for v in points)
        objective = float(parse_keyvalues(out.read_text())["objective"])
        assert math.fsum(points) == pytest.approx(objective, rel=1e-12, abs=1e-300)

    def test_missing_w_column_ok(self, tmp_path):
        f, _ = self._dataset_csv(tmp_path, drop_w=True)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--seed", "1", "--starts", "2",
                     "--out", str(out)]) == 0

    def test_blank_rows_are_skipped(self, tmp_path):
        f, _ = self._dataset_csv(tmp_path)
        lines = f.read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text("".join([lines[0], "\n", *lines[1:4], ",,,,,,,,,,\n", *lines[4:]]))
        for dataset, out in ((f, "fit.txt"), (blank, "blank.txt")):
            assert main(["fit", str(dataset), "--seed", "1", "--starts", "2",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "fit.txt").read_bytes() == (tmp_path / "blank.txt").read_bytes()

    def test_non_convergence_is_flagged(self, tmp_path, monkeypatch):
        # one trial step per start: the best start stops without converging, exit 0
        from dlczsim import model_fit
        solve = model_fit._least_squares
        monkeypatch.setattr(model_fit, "_least_squares",
                            lambda *args, max_iter=200: solve(*args, max_iter=1))
        f, _ = self._dataset_csv(tmp_path)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--seed", "1", "--starts", "2", "--out", str(out)]) == 0
        kv = parse_keyvalues(out.read_text())
        assert (kv["converged"], kv["flags"]) == ("False", "non-convergence")
        manifest = json.loads((tmp_path / "fit.txt.manifest.json").read_text())
        assert "non-convergence" in manifest["warnings"]

    def test_malformed_header(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("p1,wrongcol\n0.01,5\n")
        assert main(["fit", str(f), "--out", str(tmp_path / "x.txt")]) == 1
        assert "wrongcol" in capsys.readouterr().err

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_no_start_is_usage_error(self, tmp_path, capsys, starts):
        f, _ = self._dataset_csv(tmp_path)
        assert main(["fit", str(f), "--starts", starts, "--out", str(tmp_path / "fit.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_starts" in err

    @pytest.mark.parametrize("line, name", [("retrieval_eff_max = 2", "retrieval_eff"),
                                            ("bg1_coherent_min = 0", "bg1_coherent"),
                                            ("bg2_incoherent_min = nan", "bg2_incoherent"),
                                            ("bg1_coherent_max = 1e308", "bg1_coherent")])
    def test_bad_bounds_are_usage_errors(self, tmp_path, capsys, line, name):
        f, _ = self._dataset_csv(tmp_path)
        bounds = tmp_path / "bounds.txt"
        bounds.write_text(line + "\n")
        assert main(["fit", str(f), "--bounds", str(bounds), "--starts", "1",
                     "--out", str(tmp_path / "fit.txt")]) == 1
        assert f"bounds of {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,10,1", "inf,10,1", "-1,10,1", "2.0,10,1",
                                     "0.01,10,1,5", "0.01,abc,1", "0.01,10,-1",
                                     "0.01,10,nan", "0.01,inf,1"])
    def test_impossible_dataset_row_is_usage_error(self, tmp_path, capsys, row):
        f = tmp_path / "bad.csv"
        f.write_text(f"p1,g12,g12_se\n0.02,20,1\n{row}\n")
        assert main(["fit", str(f), "--starts", "1", "--out", str(tmp_path / "fit.txt")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_repeated_column_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "twice.csv"
        f.write_text("p1,g12,g12_se,g12\n0.01,10,1,99\n0.02,5,1,98\n")
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--starts", "1", "--out", str(out)]) == 1
        assert "g12" in capsys.readouterr().err and not out.exists()

    def test_under_determined_warns_exit_zero(self, tmp_path, capsys):
        from dlczsim.model_fit import DataPoint, Dataset, dataset_to_csv
        f = tmp_path / "one.csv"
        f.write_text(dataset_to_csv(Dataset([DataPoint(p1=1e-3, g12=100, g12_se=5)])))
        assert main(["fit", str(f), "--seed", "1", "--starts", "2",
                     "--out", str(tmp_path / "fit.txt")]) == 0
        assert "under-determined" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "fit.txt.manifest.json").read_text())
        assert "under-determined" in manifest["warnings"]
        assert manifest["warnings"] == manifest["config"]["flags"]

    @pytest.mark.parametrize("text", ["p1,g12,g12_se\n0.01,,\n0.02,,\n", "p1\n0.01\n0.02\n",
                                      "p1,g12,qc\n0.01,10,0.5\n"])
    def test_no_usable_observable_is_usage_error(self, tmp_path, capsys, text):
        f = tmp_path / "empty.csv"
        f.write_text(text)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(f), "--starts", "2", "--out", str(out)]) == 1
        assert "no observable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column, cell", [(7, "1e308"), (2, "1e-310")], ids=["p12_se", "g12"])
    def test_observable_whose_scale_overflows_is_dropped(self, tmp_path, capsys, column, cell):
        # its SE against its value overflows: the fit weighs it as it would a blank SE
        f, _ = self._dataset_csv(tmp_path)
        rows = [line.split(",") for line in f.read_text().splitlines()]
        rows[1][column] = cell
        f.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "fit.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit", str(f), "--seed", "1", "--starts", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert parse_keyvalues(out.read_text())["n_residuals"] == str(8 * 4 - 1)

    def test_notrap_rows_fit_an_alternate_background(self, tmp_path):
        # the default free names gain bg1_incoherent_alt when a row is flagged `notrap`
        from dlczsim.model_fit import DEFAULT_FREE, DataPoint, Dataset, dataset_to_csv
        from dlczsim.photon_model import p1_of_chi
        true = ModelParams(bg1_coherent=2e-3, bg2_coherent=5e-3, bg1_incoherent=1e-5,
                           bg2_incoherent=1e-5, chi_ref=0.01, retrieval_eff=0.5)
        alt = 3e-4
        pts = []
        for i, chi in enumerate(np.geomspace(1e-3, 0.2, 8)):
            p = true.with_chi(float(chi))
            p = dataclasses.replace(p, bg1_incoherent=alt) if i in (1, 4) else p
            m = full_metrics(p)
            pts.append(DataPoint(p1=float(p1_of_chi(p, p.chi)), g12=m.g12, g12_se=0.02 * m.g12,
                                 qc=m.qc, qc_se=0.01, p12=m.p12, p12_se=0.02 * m.p12,
                                 w=m.w, w_se=0.01, flags="notrap" if i in (1, 4) else ""))
        f, out = tmp_path / "notrap.csv", tmp_path / "fit.txt"
        f.write_text(dataset_to_csv(Dataset(pts)))
        assert main(["fit", str(f), "--seed", "1", "--starts", "2", "--out", str(out)]) == 0
        kv = parse_keyvalues(out.read_text())
        assert abs(float(kv["bg1_incoherent_alt"]) - alt) < 3 * float(kv["bg1_incoherent_alt_se"])
        cov = (tmp_path / "fit.txt.cov.csv").read_text().splitlines()
        assert cov[0].split(",")[1:] == [*DEFAULT_FREE, "bg1_incoherent_alt"]
        assert [len(row.split(",")) for row in cov[1:]] == [7] * 6

    def test_manifest_degrees_of_freedom(self, tmp_path):
        from dlczsim.model_fit import dataset_to_csv
        from test_model_fit import PAPER_REGIME, benchmark_style_dataset, exact_dataset
        for name, ds in (("bench", benchmark_style_dataset()),
                         ("one", exact_dataset(PAPER_REGIME, [1e-2]))):
            f, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            f.write_text(dataset_to_csv(ds))
            assert main(["fit", str(f), "--seed", "1", "--starts", "2", "--out", str(out)]) == 0
            kv = parse_keyvalues(out.read_text())
            manifest = json.loads((tmp_path / f"{name}.txt.manifest.json").read_text())
            dof = int(kv["n_residuals"]) - 5
            assert manifest["dof"] == dof
            if name == "bench":
                assert dof == 41 - 5
                assert manifest["chi2_per_dof"] == float(kv["objective"]) / dof
            else:
                assert dof == 4 - 5 and manifest["chi2_per_dof"] is None


@pytest.mark.parametrize("command", ["analyze", "sweep", "fit"])
def test_side_files_only_beside_a_regular_out(tmp_path, params_file, command):
    # --out names the null device through a link: the report goes there, and no
    # <out>.manifest.json, .cov.csv or .overlay.csv lands beside the link
    if command == "analyze":
        assert main(["simulate", "--params", params_file, "--trials", "2000",
                     "--out", str(tmp_path / "r.pdr")]) == 0
        argv = ["analyze", str(tmp_path / "r.pdr")]
    elif command == "sweep":
        argv = ["sweep", "--params", params_file, "--points", "3"]
    else:
        argv = ["fit", str(TestFitCmd()._dataset_csv(tmp_path)[0]), "--starts", "1"]
    link = tmp_path / "out"
    link.symlink_to(os.devnull)
    assert main(argv + ["--out", str(link)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("out")) == ["out"]


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("params", OVERFLOWING_PARAMS, ids=["chi_ref", "bg1_coherent"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_overflowing_background_is_usage_error(tmp_path, capsys, command, params):
    pf, out = tmp_path / "p.txt", tmp_path / "out"
    pf.write_bytes(params)
    assert main([command, "--params", str(pf), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid params file {pf}: ")
    assert not out.exists()


@pytest.mark.parametrize("command, files, error", [
    (["fit", "dataset.csv", "--bounds", "bb.txt"], {"bb.txt": "bogus_max = 1\n"},
     "error: invalid bounds file bb.txt: bad key 'bogus_max' (expect <param>_min / <param>_max)"),
    (["fit", "dataset.csv", "--bounds", "bc.txt"], {"bc.txt": "bg1_coherent_max = abc\n"},
     "error: invalid bounds file bc.txt: could not convert string to float: 'abc'"),
    (["analyze", "bad.csv"], {"bad.csv": "trial_index,detector,offset_ns\n0,D9,0\n"},
     "error: cannot read bad.csv: bad CSV record '0,D9,0' (byte offset 31)"),
    (["fit", "bad.csv"], {"bad.csv": "trial_index,detector,offset_ns\n0,D9,0\n"},
     "error: invalid dataset bad.csv: unknown dataset column 'trial_index'"),
    (["fit", "empty.csv"], {"empty.csv": ""},
     "error: invalid dataset empty.csv: empty dataset file"),
    (["fit", "neg.csv"], {"neg.csv": "p1,g12,g12_se\n0.01,-1,1\n"},
     "error: invalid dataset neg.csv: dataset line 2, column g12: '-1' is not a finite number > 0"),
    (["sweep", "--params", "noeq.txt"], {"noeq.txt": "chi 0.1\n"},
     "error: invalid params file noeq.txt: line 1: expected 'key = value', got 'chi 0.1'"),
    (["simulate", "--params", "zero.txt", "--trials", "10"],
     {"zero.txt": "trials_per_window = 0\n"},
     "error: invalid params file zero.txt: schedule values must be positive"),
], ids=["bounds-key", "bounds-value", "record-file", "dataset", "empty-dataset", "negative-g12",
        "params-line", "params-schedule"])
def test_input_errors_name_their_file(tmp_path, capsys, monkeypatch, command, files, error):
    # each input error names its file and leaves no output; a malformed record file is an I/O
    # error (exit 2)
    monkeypatch.chdir(tmp_path)
    TestFitCmd()._dataset_csv(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    assert main([*command, "--out", "out"]) == (2 if command[0] == "analyze" else 1)
    assert capsys.readouterr().err == error + "\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("argv", [["fit", "records.csv", "--starts", "1"],
                                  ["sweep", "--params", "records.csv"]])
def test_failed_fit_and_sweep_load_no_records_io(tmp_path, argv):
    # a record file given to them is invalid input (exit 1), judged without the record reader
    (tmp_path / "records.csv").write_text("trial_index,detector,offset_ns\n0,D1,0\n")
    argv = [str(tmp_path / a) if a == "records.csv" else a for a in argv]
    code = f"from dlczsim.cli import main; assert main({[*argv, '--out', str(tmp_path / 'o')]!r}) == 1"
    assert "dlczsim.records_io" not in modules_after(code, "dlczsim")


def printed_after(code: str, value: str):
    """The JSON of the expression `value` after running `code` in a fresh interpreter."""
    import dlczsim
    src = str(Path(dlczsim.__file__).resolve().parents[1])
    code = f"import json, sys\n{code}\nprint(json.dumps({value}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


def modules_after(code: str, package: str) -> list[str]:
    """The modules of `package` loaded after running `code` in a fresh interpreter."""
    return printed_after(code, f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r})")


@pytest.mark.parametrize("code", [
    pytest.param("import dlczsim", id="dlczsim"),
    pytest.param("import dlczsim.cli", id="dlczsim.cli"),
    pytest.param("from dlczsim import DetectionConfig, ModelParams, brute_force_statistics; "
                 "brute_force_statistics(ModelParams(chi=0.1), DetectionConfig())",
                 id="brute_force_statistics")])
def test_import_leaves_scipy_unloaded(code):
    # the package needs numpy alone, oracle included
    assert modules_after(code, "scipy") == []


def test_fit_loads_no_scipy(tmp_path):
    # the starts are a numpy Latin hypercube and the solver is numpy's
    f, _ = TestFitCmd()._dataset_csv(tmp_path)
    out = tmp_path / "fit.txt"
    loaded = modules_after("from dlczsim.cli import main; main(['fit', "
                           f"{str(f)!r}, '--starts', '1', '--out', {str(out)!r}])", "scipy")
    assert loaded == []


# a command run with `cpus` CPUs; each of its stages notes the modules that first load in it
STAGE_PROBE = """
import os
from contextlib import contextmanager
from dlczsim import cli
loaded, stage = {{}}, cli._stage
os.sched_getaffinity = lambda pid: set(range({cpus}))

@contextmanager
def probed(stages, name):
    before = set(sys.modules)
    with stage(stages, name) as entry:
        yield entry
    loaded[name] = sorted(set(sys.modules) - before)

cli._stage = probed
assert cli.main({argv!r}) == 0
"""


def test_stages_time_only_their_own_work(tmp_path, params_file):
    # every module a stage needs is loaded before the stages open, as start-up: simulate
    # with one sampling thread and with two, analyze with each error method, and fit
    dataset, _ = TestFitCmd()._dataset_csv(tmp_path)
    csv, pdr = str(tmp_path / "r.csv"), str(tmp_path / "r.pdr")
    out = lambda name: ["--out", str(tmp_path / name)]
    runs = {"simulate-1": (1, ["simulate", "--params", params_file, "--trials", "40000",
                               "--format", "csv", *out("r.csv")]),
            "simulate-2": (2, ["simulate", "--params", params_file, "--trials", "40000",
                               *out("r.pdr")]),
            "analyze-delta": (1, ["analyze", csv, *out("delta.txt")]),
            "analyze-bootstrap": (1, ["analyze", pdr, "--error-method", "bootstrap",
                                      *out("boot.txt")]),
            "fit": (1, ["fit", str(dataset), "--starts", "1", *out("fit.txt")])}
    loaded = {run: printed_after(STAGE_PROBE.format(cpus=cpus, argv=argv), "loaded")
              for run, (cpus, argv) in runs.items()}
    assert all(loaded.values())
    assert {f"{run} {name}": modules for run, stages in loaded.items()
            for name, modules in stages.items() if modules} == {}
    assert json.loads(Path(pdr + ".manifest.json").read_text())["config"]["workers"] == 2


def test_public_names_load_on_first_use():
    import dlczsim
    assert modules_after("import dlczsim", "dlczsim") == ["dlczsim"]
    assert modules_after("from dlczsim import CountTable", "dlczsim") == [
        "dlczsim", "dlczsim.correlator", "dlczsim.params", "dlczsim.photon_model"]
    star = {}
    exec("from dlczsim import *", star)
    assert set(star) - {"__builtins__"} == set(dlczsim.__all__) <= set(dir(dlczsim))
    for name in dlczsim.__all__:
        value = getattr(dlczsim, name)
        assert value is star[name] is getattr(sys.modules[value.__module__], name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        dlczsim.no_such_name
    with pytest.raises(ImportError):
        exec("from dlczsim import no_such_name", {})


COMMON = ["dlczsim", "dlczsim.cli", "dlczsim.params"]


@pytest.mark.parametrize("command, loaded", [
    ("simulate", ["dlczsim.event_sim", "dlczsim.records_io"]),
    ("analyze", ["dlczsim.correlator", "dlczsim.photon_model", "dlczsim.records_io"]),
    ("sweep", ["dlczsim.model_fit", "dlczsim.photon_model"]),
    ("fit", ["dlczsim.model_fit", "dlczsim.photon_model"])])
def test_command_loads_only_its_modules(tmp_path, params_file, command, loaded):
    records, out = tmp_path / "records.csv", str(tmp_path / "out.txt")
    assert main(["simulate", "--params", params_file, "--trials", "1000", "--format", "csv",
                 "--out", str(records)]) == 0
    argv = {"simulate": ["simulate", "--params", params_file, "--trials", "1000", "--out", out],
            "analyze": ["analyze", str(records), "--out", out],
            "sweep": ["sweep", "--params", params_file, "--points", "2", "--out", out],
            "fit": ["fit", str(TestFitCmd()._dataset_csv(tmp_path)[0]), "--starts", "1",
                    "--out", out]}[command]
    code = f"from dlczsim.cli import main; assert main({argv!r}) == 0"
    assert modules_after(code, "dlczsim") == sorted(COMMON + loaded)


# Inputs at the edges of what each command reads, run through `main` in process: integers
# at the int64, uint64 and uint32 limits, non-finite and huge floats, empty cells and bytes
# that are not UTF-8.  Every outcome is an exit code with one `error:` line, never an
# exception.  Trial, point and start counts stay small, so that no example runs long.
EDGE = [b"-1", b"0", b"-0.0", b"2", b"0.5", b"4294967296", b"9223372036854775808",
        b"18446744073709551616", str(2 ** 128).encode(), b"nan", b"inf", b"1e308", b"1e-308",
        b"5e-324", b"", b"\xff\xfe"]
edge = st.sampled_from(EDGE)
edge_arg = st.sampled_from([v.decode(errors="surrogateescape") for v in EDGE])   # as in argv


def count_arg(most):
    """A count argument whose work grows with it: at most `most`, or not an integer."""
    return st.integers(-1, most).map(str) | st.sampled_from(["nan", "0.5", ""])


def key_values(keys):
    """A key-value file of edge values under the given keys, a key possibly repeated."""
    return st.lists(st.tuples(st.sampled_from(keys), edge), max_size=4).map(
        lambda kv: b"".join(k.encode() + b" = " + v + b"\n" for k, v in kv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The valid dataset of `TestFitCmd`."""
    return TestFitCmd()._dataset_csv(tmp_path_factory.mktemp("dataset"))[0].read_bytes()


def dataset_text(dataset, edits):
    """A dataset with (row, column, edge value) cells replaced."""
    lines = [line.split(b",") for line in dataset.splitlines()]
    for row, column, value in edits:
        lines[row % len(lines)][column % len(lines[0])] = value
    return b"\n".join(b",".join(line) for line in lines) + b"\n"


def record_file(v2, mode, n_trials, seed, rows, cut):
    """A CSV record file (v2 header or v1) of edge-valued rows, cut to `cut` bytes."""
    head = b"# dlczsim records v2 n_trials=%s mode=%s seed=%s\n" % (n_trials, mode, seed)
    head = head if v2 else b""
    body = b"".join(b"%s,%s,%s\n" % row for row in rows)
    return (head + b"trial_index,detector,offset_ns\n" + body)[:cut]


def pdr2_file(n_trials, mode, records, cut):
    """PDR2 bytes of (trial, detector id, offset) records under a header of `n_trials` and
    mode byte `mode`, cut to `cut` bytes."""
    sink = io.BytesIO()
    columns = [np.array(c, dtype) for c, dtype in
               zip(zip(*records) if records else ((), (), ()), (np.uint64, np.uint8, np.uint32))]
    records_io.write_chunks([columns], sink, records_io.BINARY, n_trials,
                            [DetectionMode.SINGLE, DetectionMode.SPLIT][mode], 7)
    return sink.getvalue()[:cut]


cut = st.one_of(st.none(), st.integers(0, 120))
records_bytes = st.one_of(
    st.builds(record_file, st.booleans(), st.sampled_from([b"single", b"split"]), edge, edge,
              st.lists(st.tuples(edge, st.sampled_from([b"D1", b"D2", b"D2a", b"D2b", b"D9", b""]),
                                 edge), max_size=5), cut),
    st.builds(pdr2_file, st.sampled_from([0, 2, 2 ** 32, 2 ** 63, 2 ** 64, 2 ** 128 - 1]),
              st.integers(0, 1),
              st.lists(st.tuples(st.sampled_from([0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]),
                                 st.integers(0, 5), st.sampled_from([0, 300, 2 ** 32 - 1])),
                       max_size=5), cut))
PARAM_KEYS = [*ModelParams.__dataclass_fields__, *TrialSchedule.__dataclass_fields__, "bogus"]
BOUND_KEYS = [f"{name}_{end}" for name in ("bg1_coherent", "retrieval_eff", "chi")
              for end in ("min", "max")]


def run_edge_case(files: dict, argv: list[str]):
    """Write the files into a fresh directory and run `main`: it returns 0, 1 or 2, warns
    nothing, and writes one `error:` line to stderr exactly when it returns 1 or 2."""
    with tempfile.TemporaryDirectory() as work:
        for name, data in files.items():
            Path(work, name).write_bytes(data)
        argv = [str(Path(work, a)) if a in files else a for a in argv]
        argv += ["--out", str(Path(work, "out"))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)   # numpy's overflow, say
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (code != 0), (argv, err.getvalue())


@settings(max_examples=200, deadline=None)
@example(params=b"write_offset_ns = -100\nread_delay_ns = 300\n", trials="10", seed="0",
         mode="single", fmt="bin")
@example(params=OVERFLOWING_PARAMS[0], trials="10", seed="0", mode="single", fmt="bin")
@given(params=key_values(PARAM_KEYS), trials=count_arg(3000),
       seed=edge_arg, mode=st.sampled_from(["single", "split"]),
       fmt=st.sampled_from(["bin", "csv"]))
def test_simulate_edge_inputs(params, trials, seed, mode, fmt):
    run_edge_case({"params.txt": params}, ["simulate", "--params", "params.txt", "--trials",
                                           trials, "--seed", seed, "--mode", mode, "--format", fmt])


@settings(max_examples=200, deadline=None)
@example(records=record_file(False, b"", b"", b"", [(b"0", b"D2a", b"0")], None),
         flags=[("--trials", "10000000000000000000")], method="delta")
@example(records=pdr2_file(2 ** 64, 1, [(0, 2, 0)], None), flags=[], method="bootstrap")
@given(records=records_bytes, flags=st.lists(st.tuples(
           st.sampled_from(["--trials", "--eta2", "--seed"]), edge_arg), max_size=3),
       method=st.sampled_from(["delta", "bootstrap"]))
def test_analyze_edge_inputs(records, flags, method):
    run_edge_case({"records": records}, ["analyze", "records", "--error-method", method,
                                         *(a for flag in flags for a in flag)])


@settings(max_examples=200, deadline=None)
@example(params=OVERFLOWING_PARAMS[0], chi_min="1e-3", chi_max="0.3", points="5")
@example(params=OVERFLOWING_PARAMS[1], chi_min="1e-3", chi_max="0.3", points="5")
@example(params=b"eta2_path = 0\n", chi_min="1e-3", chi_max="0.3", points="1")   # qc is NaN
@example(params=b"bg2_incoherent = 2\n", chi_min="1e-308", chi_max="0.3", points="1")  # p2 / p1
@given(params=key_values(PARAM_KEYS), chi_min=edge_arg | st.just("1e-3"),
       chi_max=edge_arg | st.just("0.3"), points=count_arg(200))
def test_sweep_edge_inputs(params, chi_min, chi_max, points):
    run_edge_case({"params.txt": params}, ["sweep", "--params", "params.txt", "--chi-min",
                                           chi_min, "--chi-max", chi_max, "--points", points])


@settings(max_examples=200, deadline=None)
@example(edits=[(1, 7, b"1e308")], params=None, bounds=None, starts="2", seed="0")   # p12_se
@example(edits=[(1, 2, b"1e-310")], params=None, bounds=None, starts="2", seed="0")  # g12
@example(edits=[(1, 9, b"1e-308")], params=None, bounds=None, starts="2", seed="0")  # w_se
@example(edits=[(1, 9, b"1e-60")], params=None, bounds=None, starts="2", seed="0")  # w_se
@example(edits=[(1, 5, b"1e-60")], params=None, bounds=None, starts="2", seed="0")  # qc_se
@example(edits=[(1, 3, b"1e-60")], params=None, bounds=None, starts="2", seed="0")  # g12_se
@example(edits=[(1, 7, b"1e-60")], params=None, bounds=None, starts="2", seed="0")  # p12_se
@example(edits=[(6, 3, b"1.8e-50")], params=None, bounds=None, starts="2", seed="7")  # g12_se
@example(edits=[], params=None, bounds=b"bg1_coherent_max = 1e308\n", starts="2", seed="0")
@example(edits=[], params=b"eta1 = 0\n", bounds=None, starts="2", seed="0")   # p1 constant
@example(edits=[], params=b"eta1 = 5e-324\n", bounds=None, starts="2", seed="0")
@example(edits=[], params=b"eta2_path = 1e-100\n", bounds=None, starts="2", seed="0")  # qc ~ 1e100
@example(edits=[], params=b"eta_apd = 1e-300\n", bounds=None, starts="2", seed="0")
@given(edits=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 10), edge), max_size=3),
       params=st.none() | key_values(PARAM_KEYS), bounds=st.none() | key_values(BOUND_KEYS),
       starts=count_arg(2), seed=edge_arg)
def test_fit_edge_inputs(dataset, edits, params, bounds, starts, seed):
    files = {"dataset.csv": dataset_text(dataset, edits)}
    argv = ["fit", "dataset.csv", "--starts", starts, "--seed", seed]
    for name, flag, data in (("params.txt", "--params", params), ("bounds.txt", "--bounds", bounds)):
        if data is not None:
            files[name] = data
            argv += [flag, name]
    run_edge_case(files, argv)


def cli_process(argv, cwd, buffered=True, **kwargs):
    """Run `python -m dlczsim.cli` in a fresh interpreter.  Buffered, its stdout is a pipe's
    default block buffer, so what `main` leaves there reaches the pipe only when flushed."""
    import dlczsim
    env = {**os.environ, "PYTHONPATH": str(Path(dlczsim.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "dlczsim.cli", *argv], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, **kwargs)


def test_process_writes_its_report_to_stdout(tmp_path, params_file):
    assert main(["simulate", "--params", params_file, "--trials", "20000", "--out",
                 str(tmp_path / "r.pdr")]) == 0
    done = cli_process(["analyze", "r.pdr", "--out", "report.txt"], tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (tmp_path / "report.txt").read_bytes() != b""


@pytest.mark.parametrize("argv, code, stdout, error", [
    (["--version"], 0, b"0.2.0\n", None),
    (["frobnicate"], 1, b"", b"dlczsim: error: argument command: invalid choice"),
    (["fit", "missing.csv", "--out", "x"], 2, b"", b"error: cannot read dataset missing.csv"),
], ids=["version", "usage-error", "io-error"])
def test_process_exit_status_and_streams(tmp_path, argv, code, stdout, error):
    done = cli_process(argv, tmp_path)
    assert (done.returncode, done.stdout) == (code, stdout)
    errors = [line for line in done.stderr.splitlines() if b"error:" in line]
    assert len(errors) == (error is not None)
    assert error is None or errors[0].startswith(error)


def test_long_bad_row_is_quoted_in_short(tmp_path):
    # a bad row of 32 MiB: the error line quotes its first 80 characters
    (tmp_path / "long.csv").write_bytes(b"# dlczsim records v2 n_trials=5 mode=split seed=0\n"
                                        b"trial_index,detector,offset_ns\n" + b"x" * (32 << 20))
    done = cli_process(["analyze", "long.csv"], tmp_path)
    errors = [line for line in done.stderr.splitlines() if b"error:" in line]
    assert (done.returncode, len(errors)) == (2, 1), done.stderr[:400]
    assert len(errors[0]) < 200 and errors[0].endswith(b"... (byte offset 81)"), errors[0][:400]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_process_stdout_pipe_closed(tmp_path, params_file, command, buffered):
    # unbuffered, the write fails inside the command (an I/O error); buffered, the flush at
    # exit fails, and the interpreter reports it with its own exit status, 120
    assert main(["simulate", "--params", params_file, "--trials", "1000", "--out",
                 str(tmp_path / "r.pdr")]) == 0
    argv = {"simulate": ["simulate", "--params", params_file, "--trials", "1000", "--out", "s.pdr"],
            "analyze": ["analyze", "r.pdr"]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = cli_process(argv, tmp_path, buffered, stdout=write_end)
    finally:
        os.close(write_end)
    if buffered:
        assert done.returncode == 120
        assert done.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert done.stderr.endswith(b"\nBrokenPipeError: [Errno 32] Broken pipe\n")
    else:
        assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def test_simulate_error_shuts_the_sampler_pool(tmp_path, params_file, monkeypatch, capsys):
    # the output fails mid-session with sampling threads at work; they are joined before
    # `main` returns, on this path as on success
    import threading
    from dlczsim import event_sim
    monkeypatch.setattr(event_sim, "sampler_workers", lambda n_trials: 2)
    threads = threading.active_count()
    assert main(["simulate", "--params", params_file, "--trials", "200000", "--mode", "split",
                 "--out", "/dev/full"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert threading.active_count() == threads
