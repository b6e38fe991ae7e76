#!/usr/bin/env bash
# Checks of the installed package: the `dlczsim` on PATH, and the `dlczsim` that python
# imports, run in a fresh directory outside the checkout.  Stops at the first failing check
# and names its line.  Takes no argument.  README's "Install and test" runs it from a source
# checkout, without installing.
set -Eeuo pipefail
perfbench="$(cd "$(dirname "$0")/../perfbench" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
trap 'echo "package check failed, line $LINENO: $BASH_COMMAND" >&2' ERR
cd "$work"

die() {   # the line of the check that called the caller
    echo "package check failed, line ${BASH_LINENO[1]}: $1" >&2
    sed 's/^/  stderr: /' err.txt >&2
    exit 1
}
quiet() {   # quiet CMD...: CMD exits 0 with nothing on stderr
    "$@" 2> err.txt || die "exit $? from $*"
    [ ! -s err.txt ] || die "stderr from $*"
}
fails() {   # fails CODE PATTERN CMD...: CMD exits CODE with one stderr line, matching PATTERN
    local want=$1 pattern=$2 code=0
    shift 2
    "$@" 2> err.txt || code=$?
    [ "$code" -eq "$want" ] && [ "$(wc -l < err.txt)" -eq 1 ] && grep -q -- "$pattern" err.txt ||
        die "exit $code, not $want with one stderr line matching '$pattern', from $*"
}
dataset() {   # dataset SRC ROW COL VALUE OUT: dataset SRC with COL of data row ROW (from 0) = VALUE
    python - "$@" <<'EOF'
import csv, sys
src, row, col, value, out = sys.argv[1:]
rows = list(csv.reader(open(src)))
rows[int(row) + 1][rows[0].index(col)] = value
csv.writer(open(out, "w", newline=""), lineterminator="\n").writerows(rows)
EOF
}

# console script and import
dlczsim --version
python -c "import dlczsim"

# fit with numpy alone, of a dataset that the installed package writes, from Python floats
# (dataset.csv) and from numpy scalars (numpy.csv)
python - <<'EOF'
import numpy as np
from dlczsim import DataPoint, Dataset, ModelParams, dataset_to_csv, full_metrics
from dlczsim.photon_model import p1_of_chi
true = ModelParams(bg1_coherent=2e-3, bg2_coherent=1.3e-2, bg1_incoherent=1e-5,
                   bg2_incoherent=1e-5, chi_ref=0.01)
points = []
for chi in (1e-3, 1e-2, 1e-1):
    m = full_metrics(true.with_chi(chi))
    points.append(dict(p1=p1_of_chi(true, chi), g12=m.g12, g12_se=0.02 * m.g12, qc=m.qc,
                       qc_se=0.01, p12=m.p12, p12_se=0.02 * m.p12))
for out, number in (("dataset.csv", float), ("numpy.csv", np.float64)):
    dataset = Dataset([DataPoint(**{k: number(v) for k, v in pt.items()}) for pt in points])
    open(out, "w").write(dataset_to_csv(dataset))
EOF
dlczsim fit dataset.csv --starts 2 --seed 1 --out fit.txt
grep -q "^converged = True" fit.txt
# the default 16 starts, in lock-step: each took part in some model passes
dlczsim fit dataset.csv --seed 1 --out fit16.txt
python -c "import json; s = json.load(open('fit16.txt.manifest.json'))['starts']; assert len(s) == 16 and all(x['nfev'] > 0 for x in s), s"
# a dataset with no usable observable is a usage error
printf 'p1\n0.01\n0.02\n' > p1only.csv
fails 1 '^error:' dlczsim fit p1only.csv --out p1only.txt

# simulate (split mode, CSV) and analyze
printf 'chi = 0.3\nbg1_incoherent = 1e-4\nbg2_incoherent = 1e-4\n' > params.txt
dlczsim simulate --params params.txt --trials 100000 --seed 3 --mode split --format csv --out records.csv
dlczsim analyze records.csv --error-method bootstrap --seed 3 --out report.txt
grep -q "^mode = split" report.txt
grep -q '^n_trials = 100000$' report.txt

# the console script flushes its report to stdout and keeps its exit codes
dlczsim analyze records.csv --error-method bootstrap --seed 3 --out r.txt > o.txt
cmp o.txt r.txt
fails 2 '^error:.*missing.csv' dlczsim fit missing.csv --out x

# 1 / chi_ref overflows: a usage error with one line that names the params file
printf 'chi = 0.9\nchi_ref = 5e-324\nbg2_coherent = 1\n' > tiny-ref.txt
fails 1 '^error:.*tiny-ref.txt' dlczsim sweep --params tiny-ref.txt --out tiny.csv
test ! -e tiny.csv
# p2 / p1 overflows at a subnormal p1: the metric reads inf, with nothing on stderr
printf 'bg2_incoherent = 2\n' > loud-bg.txt
quiet dlczsim sweep --params loud-bg.txt --chi-min 1e-308 --chi-max 0.3 --points 1 --out loud.csv
# an SE whose scale overflows drops that observable, with nothing on stderr
dataset dataset.csv 0 p12_se 1e308 huge-se.csv
quiet dlczsim fit huge-se.csv --starts 2 --seed 1 --out huge-se.txt

# the benchmark's dataset; the fit takes the log of g12: a g12 below 0 is a usage error
# with one line that names the file
PYTHONPATH="$perfbench${PYTHONPATH:+:$PYTHONPATH}" python -c "import workloads; open('bench.csv', 'w').write(workloads.fit_dataset_csv(1))"
dataset bench.csv 0 g12 -1 neg-g12.csv
fails 1 '^error:.*neg-g12.csv' dlczsim fit neg-g12.csv --starts 2 --seed 1 --out neg-g12.txt
test ! -e neg-g12.txt

# SEs below their value's resolution: exit 1, one error line that names the column.  That
# is 2.2e-16 for a w of at most 1, 2.5e-15 for data row 0's g12 of 6.18, and 5.8e-14 for
# data row 2's g12 of 63.0
for se in 1e-308 1e-60 1e-100 1e-150; do
    dataset bench.csv 0 w_se $se w-se-$se.csv
    fails 1 '^error:.*w_se' dlczsim fit w-se-$se.csv --starts 2 --seed 1 --out tiny-se.txt
done
dataset bench.csv 0 g12_se 1e-50 g12-se-row-0.csv
fails 1 '^error:.*g12_se' dlczsim fit g12-se-row-0.csv --starts 2 --seed 1 --out tiny-se.txt
dataset bench.csv 2 g12_se 5.1e-49 g12-se-row-2.csv
fails 1 '^error:.*g12_se' dlczsim fit g12-se-row-2.csv --starts 2 --seed 3 --out tiny-se.txt

# predictions far from the data, or no p1 of the data within the model's range (p1 constant
# in chi at eta1 = 0, at most 1.0e-8 at eta1 = 1e-20), are the residual PENALTY: exit 0
# with nothing on stderr
printf 'eta2_path = 1e-100\n' > eta2-path.txt
printf 'eta1 = 0\n' > eta1-zero.txt
printf 'eta1 = 1e-20\n' > eta1-tiny.txt
for base in eta2-path eta1-zero eta1-tiny; do
    quiet dlczsim fit bench.csv --params $base.txt --starts 2 --seed 1 --out $base-fit.txt
done
grep -q '^objective = 41000000.0$' eta1-tiny-fit.txt   # PENALTY on all 41 residuals

# the dataset of numpy scalars reads and fits as its floats
quiet dlczsim fit numpy.csv --starts 2 --seed 1 --out numpy.txt
cmp numpy.txt fit.txt

# analyze into /dev/null writes no manifest beside it
dlczsim analyze records.csv --error-method bootstrap --seed 3 --out /dev/null
test ! -e /dev/null.manifest.json

# a CSV whose line after its first is 128 MB without an LF reads in linear time: exit 2 with
# one error line in about a second, where a buffer rescanned at each read took ~40 s
{ printf '# dlczsim records v2 n_trials=10 mode=split seed=1\n'; head -c $((128 << 20)) /dev/zero | tr '\0' x; } > long-line.csv
fails 2 '^error:.*long-line.csv' timeout 12 dlczsim analyze long-line.csv --out long-line.txt
rm long-line.csv

# the same records reversed, as CSV v1 (the unsorted-file path), and from a pipe, which
# that path cannot rewind
{ sed -n 2p records.csv; tail -n +3 records.csv | tac; } > reversed.csv
dlczsim analyze reversed.csv --trials 100000 --error-method bootstrap --seed 3 --out reversed.txt
diff reversed.txt report.txt
cat reversed.csv | dlczsim analyze /dev/stdin --trials 100000 --error-method bootstrap --seed 3 --out piped.txt
diff piped.txt report.txt

# simulate, analyze, sweep and fit load only the modules they run, each in a fresh
# interpreter: the package's modules it loaded, and numpy.random if it loaded that (not
# sweep, not a delta analyze)
cat > loads.py <<'EOF'
import sys
from dlczsim.cli import main
expected, argv = sys.argv[1].split(), sys.argv[2:]
assert main(argv) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "dlczsim" or m == "numpy.random")
assert loaded == sorted(expected), (argv, loaded)
EOF
python loads.py "dlczsim dlczsim.cli dlczsim.event_sim dlczsim.params dlczsim.records_io numpy.random" simulate --params params.txt --trials 1000 --out modules.pdr
python loads.py "dlczsim dlczsim.cli dlczsim.correlator dlczsim.params dlczsim.photon_model dlczsim.records_io" analyze records.csv --error-method delta --out modules-report.txt
python loads.py "dlczsim dlczsim.cli dlczsim.model_fit dlczsim.params dlczsim.photon_model" sweep --params params.txt --points 3 --out modules-sweep.csv
python loads.py "dlczsim dlczsim.cli dlczsim.model_fit dlczsim.params dlczsim.photon_model numpy.random" fit dataset.csv --starts 1 --out modules-fit.txt

# simulate pinned (inline) and unpinned (thread pool): the same bytes
taskset -c 0 dlczsim simulate --params params.txt --trials 1000000 --seed 5 --mode split --format csv --out pinned.csv
dlczsim simulate --params params.txt --trials 1000000 --seed 5 --mode split --format csv --out unpinned.csv
grep -q '"workers": 1$' pinned.csv.manifest.json
python -c "import json, os; w = json.load(open('unpinned.csv.manifest.json'))['config']['workers']; assert w == len(os.sched_getaffinity(0)) >= 2, w"
cmp pinned.csv unpinned.csv
# single mode, binary: 1000003 trials end in a short chunk, inline and in the pool
taskset -c 0 dlczsim simulate --params params.txt --trials 1000003 --seed 5 --out pinned.pdr
dlczsim simulate --params params.txt --trials 1000003 --seed 5 --out unpinned.pdr
cmp pinned.pdr unpinned.pdr

# simulate and analyze a session with no click (binary), from the file and from a pipe,
# which analyze copies to disk and reads as the file
printf 'chi = 0.01\n' > quiet.txt
dlczsim simulate --params quiet.txt --trials 10 --format bin --out quiet.pdr
dlczsim analyze quiet.pdr --out quiet-report.txt
grep -q '^n_trials = 10$' quiet-report.txt
cat quiet.pdr | dlczsim analyze /dev/stdin > piped-quiet.txt
cmp piped-quiet.txt quiet-report.txt
echo "package checks passed"
