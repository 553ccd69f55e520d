#!/usr/bin/env bash
# Reports that must not depend on what a process met before them. Run from
# the root of a checkout; scratch files go to $RUNNER_TEMP, or to a new
# temporary directory, removed on exit, when it is unset.
#
# The process-wide memos (the plans of term-pair integrals per raw factor
# tuples and axis rules, the programs of records and flux steps per leaf
# forms, slice times and axis rules, the flux bases per box and size and
# their Grams per basis, box and rule)
# fill in the order a process first meets their keys: fresh processes that
# hash strings differently, processes that ran something else first, and a
# process whose plan and program memos restart many times, must still write
# the same bytes.
set -euo pipefail
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi

echo "Default suite repeats across processes"
for seed in 0 4242; do
  PYTHONHASHSEED=$seed python -m errbounds.cli suite --out "$tmp/suite-$seed"
done
cmp "$tmp/suite-0/report.json" "$tmp/suite-4242/report.json"

echo "Grid-path reports repeat across processes"
# the default suite's cases on the unit square, with solutions that do not
# split into 1-D factors (_unsplit_suite_config of tests/test_tracer.py,
# imported, so the two cannot drift apart): every norm is taken on the grid
for seed in 0 4242; do
  PYTHONHASHSEED=$seed python -c '
import sys
sys.path.insert(0, "tests")
from test_tracer import _unsplit_suite_config
from errbounds import runner
runner.emit(runner.run(_unsplit_suite_config()), ["json"], sys.argv[1])
' "$tmp/unsplit-$seed"
done
cmp "$tmp/unsplit-0/report.json" "$tmp/unsplit-4242/report.json"

echo "Default suite after other runs in the same process"
# the suite's 1-D boxes share an axis rule with the 3-D box, so its norms
# meet tables that the 3-D records filled first; the suite at another
# quadrature order first meets every raw form of the suite on other rules
cat > "$tmp/rd3.json" <<'JSON'
{"cases": [
   {"kind": "RD", "solution": "sin(pi*x)*sin(pi*y/2)*sin(2*pi*z)",
    "label": "rd-box3", "lower": [0.0, 0.0, 0.0], "upper": [1.0, 2.0, 0.5]}],
 "approximations": [
   {"level": "conforming_mixed", "epsilon": 0.1, "seed": 3}],
 "estimators": [{"name": "rd_equality"}]}
JSON
python - "$tmp" <<'PY'
import contextlib, io, sys
from errbounds.cli import main
tmp = sys.argv[1]
assert main(["verify-equality", "--config", f"{tmp}/rd3.json",
             "--out", f"{tmp}/rd3"]) == 0
# records fail at this coarse order; only the forms it meets matter
with contextlib.redirect_stderr(io.StringIO()):
    main(["suite", "--quad-order", "4", "--out", f"{tmp}/suite-order-4"])
assert main(["suite", "--out", f"{tmp}/suite-after"]) == 0
PY
cmp "$tmp/suite-0/report.json" "$tmp/suite-after/report.json"

echo "Reports repeat at every conformity level"
# RD and Poisson at all five levels, with every estimator that admits them
# and the coarse and basis free fields: the second run in one process meets
# the free fields the first one kept, and the forms built for them, and
# must write what the first run and a fresh process write
cat > "$tmp/levels.json" <<'JSON'
{"cases": [
   {"kind": "RD", "solution": "sin(pi*x)*sin(pi*y/2)", "label": "rd",
    "lower": [0.0, 0.0], "upper": [1.0, 2.0]},
   {"kind": "Poisson", "solution": "sin(pi*x) + sin(2*pi*x)/4",
    "label": "poisson", "lower": [0.0], "upper": [1.0]}],
 "approximations": [
   {"level": "very_conforming", "epsilon": 0.3, "seed": 2},
   {"level": "conforming_mixed", "epsilon": 0.3, "seed": 2},
   {"level": "semi_conforming_primal", "epsilon": 0.3, "seed": 2},
   {"level": "semi_conforming_dual", "epsilon": 0.3, "seed": 2},
   {"level": "non_conforming", "epsilon": 0.3, "seed": 2},
   {"level": "non_conforming", "epsilon": 1.0, "seed": 5}],
 "estimators": [
   {"name": "rd_very_conforming_equality"},
   {"name": "poisson_very_conforming_equality"},
   {"name": "rd_equality"},
   {"name": "poisson_two_sided"},
   {"name": "rd_semiconforming_bounds", "free_strategy": "coarse"},
   {"name": "rd_semiconforming_bounds", "free_strategy": "basis"},
   {"name": "rd_nonconforming_bounds", "which": "i", "free_strategy": "coarse"},
   {"name": "rd_nonconforming_bounds", "which": "ii", "free_strategy": "basis"},
   {"name": "rd_nonconforming_bounds", "which": "iii", "free_strategy": "coarse"},
   {"name": "rd_nonconforming_bounds", "which": "iii", "free_strategy": "basis"},
   {"name": "poisson_nonconforming", "which": "i", "free_strategy": "coarse"},
   {"name": "poisson_nonconforming", "which": "ii", "free_strategy": "basis"},
   {"name": "poisson_nonconforming", "which": "mixed-i", "free_strategy": "coarse"},
   {"name": "poisson_nonconforming", "which": "mixed-ii", "free_strategy": "basis"}]}
JSON
for seed in 0 4242; do
  PYTHONHASHSEED=$seed python - "$tmp" "$seed" <<'PY'
import sys
from errbounds import emit, parse_config, run
tmp, seed = sys.argv[1:]
config = parse_config(open(f"{tmp}/levels.json").read())
names = ("levels-first", "levels-warm") if seed == "0" else ("levels-fresh",)
for name in names:
    report = run(config)
    assert {r["level"] for r in report.records} == {
        a.level for a in config.approximations}
    emit(report, ["json"], f"{tmp}/{name}")
PY
done
cmp "$tmp/levels-first/report.json" "$tmp/levels-warm/report.json"
cmp "$tmp/levels-first/report.json" "$tmp/levels-fresh/report.json"

echo "Reports are the canonical JSON encoding"
# report.json is written by the C encoder with sentinel separators expanded
# afterwards; it must be what json.dumps(doc, indent=2) writes, also for
# records whose error strings hold quotes, a NUL, a newline and non-ASCII
canonical() {
  python -c 'import json, sys
doc = json.load(open(sys.argv[1]))
open(sys.argv[2], "w").write(json.dumps(doc, indent=2) + "\n")' "$1" "$2"
}
canonical "$tmp/suite-0/report.json" "$tmp/suite-canonical.json"
cmp "$tmp/suite-0/report.json" "$tmp/suite-canonical.json"
python - "$tmp" <<'PY'
import sys
from errbounds import emit, parse_config, run
from errbounds.runner import ESTIMATORS

def fail(case, spec, approx, rule):
    raise RuntimeError('a "quoted" \x00 NUL\nand a newline in L\u00f6sung')

ESTIMATORS["rd_equality"] = ESTIMATORS["rd_equality"]._replace(record=fail)
report = run(parse_config("""{"cases": [{"kind": "RD", "lower": [0.0],
  "upper": [1.0], "solution": "sin(pi*x)"}], "approximations": [
  {"level": "conforming_mixed", "epsilon": 0.1, "seed": 0}],
  "estimators": [{"name": "rd_equality"}]}"""))
assert [r["status"] for r in report.records] == ["error"]
emit(report, ["json"], f"{sys.argv[1]}/errors")
PY
canonical "$tmp/errors/report.json" "$tmp/errors-canonical.json"
cmp "$tmp/errors/report.json" "$tmp/errors-canonical.json"

echo "Majorant runs repeat across processes"
# each basis size on the box has its own fields and Grams, whose terms meet
# the plans that the sizes before it left, and must write what fresh
# processes that hash strings differently write
cat > "$tmp/majorant.json" <<'JSON'
{"cases": [
   {"kind": "RD", "solution": "sin(pi*x)*sin(pi*y)", "label": "rd",
    "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
   {"kind": "Poisson", "solution": "sin(pi*x)*sin(2*pi*y)",
    "label": "poisson", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}],
 "approximations": [
   {"level": "conforming_mixed", "epsilon": 0.1, "seed": 3}],
 "estimators": [
   {"name": "optimize_majorant", "basis_size": 36},
   {"name": "optimize_majorant", "basis_size": 4},
   {"name": "optimize_majorant", "basis_size": 16}]}
JSON
for seed in 0 4242; do
  PYTHONHASHSEED=$seed python -m errbounds.cli optimize-majorant \
    --config "$tmp/majorant.json" --out "$tmp/majorant-$seed"
done
cmp "$tmp/majorant-0/report.json" "$tmp/majorant-4242/report.json"
# the same config in ascending size order: the plans each size meets were
# left by smaller sizes, not larger ones, and every record must equal the
# descending run's
python - "$tmp/majorant.json" "$tmp/ascending.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["estimators"].sort(key=lambda e: e["basis_size"])
json.dump(doc, open(sys.argv[2], "w"))
PY
python -m errbounds.cli optimize-majorant \
  --config "$tmp/ascending.json" --out "$tmp/majorant-ascending"
python - "$tmp/majorant-0/report.json" \
  "$tmp/majorant-ascending/report.json" <<'PY'
import json, sys
descending, ascending = (
    {(r["case"], r["basis_size"]): r
     for r in json.load(open(path))["records"]}
    for path in sys.argv[1:])
assert len(descending) == 6, sorted(descending)
assert ascending == descending, "records depend on the size order"
PY

echo "Reports repeat when the plan memo restarts"
# a bound of 8 restarts the plan memo and the program memo, which shares it,
# many times, dropping plans and the programs of records and of flux steps
# (whose pieces are grouped); every plan is built again from its own pairs
# and every program from its plans, so the bytes must not move
python - "$tmp" <<'PY'
import contextlib, io, sys
from errbounds import quadrature
from errbounds.cli import main
tmp = sys.argv[1]
# restarts of the plan and record-plan memos, and programs of each kind that
# a restart dropped
restarts = {"plans": 0, "record plans": 0, "record programs": 0,
            "flux-step programs": 0}

class Memo(dict):
    def __init__(self, kind):
        self.kind = kind

    def clear(self):
        if self.kind != "programs":
            restarts[self.kind] += 1
        for key in self if self.kind == "programs" else ():
            grouped = any(sizes is not None for *_, sizes in key)
            restarts[("record programs", "flux-step programs")[grouped]] += 1
        super().clear()

quadrature.PLAN_MEMO = 8
quadrature._PLANS, quadrature._PROGRAMS, quadrature._RECORDS = (
    Memo("plans"), Memo("programs"), Memo("record plans"))
with contextlib.redirect_stdout(io.StringIO()):
    # the programs of a majorant run fit the bound; the suite run after it
    # drops them, and the next majorant run builds them again
    while min(restarts.values()) <= 10:
        assert main(["suite", "--out", f"{tmp}/suite-restarts"]) == 0
        assert main(["optimize-majorant", "--config", f"{tmp}/majorant.json",
                     "--out", f"{tmp}/majorant-restarts"]) == 0
assert min(restarts.values()) > 10, restarts
PY
cmp "$tmp/suite-0/report.json" "$tmp/suite-restarts/report.json"
cmp "$tmp/majorant-0/report.json" "$tmp/majorant-restarts/report.json"

echo "Reports repeat when the flux-basis memos are cleared"
# new field objects for the same basis meet the same plans through their
# interned factors, so a process that drops its bases and Grams and runs
# again must write what a fresh process writes
python - "$tmp" <<'PY'
import contextlib, io, sys
from errbounds import manufactured, optimize
from errbounds.cli import main
tmp = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    for run in ("first", "cleared"):
        assert main(["optimize-majorant", "--config", f"{tmp}/majorant.json",
                     "--out", f"{tmp}/majorant-{run}"]) == 0
        manufactured._flux_fields.cache_clear()
        optimize._basis_grams.cache_clear()
PY
cmp "$tmp/majorant-0/report.json" "$tmp/majorant-first/report.json"
cmp "$tmp/majorant-0/report.json" "$tmp/majorant-cleared/report.json"

echo "Reports repeat when the norm programs are cleared"
# a program, a record's or a flux step's, holds slots and H, never
# multipliers, and a record plan its program and multiplier recipe, never
# coefficients, so a process that drops its programs and record plans and
# runs again builds them from its plans and must write what a fresh process
# writes
python - "$tmp" <<'PY'
import contextlib, io, sys
from errbounds import quadrature
from errbounds.cli import main
tmp = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    for run in ("first", "cleared"):
        assert main(["suite", "--out", f"{tmp}/suite-programs-{run}"]) == 0
        assert main(["optimize-majorant", "--config", f"{tmp}/majorant.json",
                     "--out", f"{tmp}/majorant-programs-{run}"]) == 0
        # the memo holds the programs of records and of flux steps
        assert {any(sizes is not None for *_, sizes in key)
                for key in quadrature._PROGRAMS} == {False, True}
        assert quadrature._RECORDS
        quadrature._PROGRAMS.clear()
        quadrature._RECORDS.clear()
PY
for run in first cleared; do
  cmp "$tmp/suite-0/report.json" "$tmp/suite-programs-$run/report.json"
  cmp "$tmp/majorant-0/report.json" "$tmp/majorant-programs-$run/report.json"
done

echo "Runs clean with warnings as errors"
# no path of the default suite, the majorant config or the grid-path
# suite may warn (an overflow, an invalid value, a deprecation)
python -W error -m errbounds.cli suite --out "$tmp/suite-werror" > /dev/null
python -W error -m errbounds.cli optimize-majorant \
  --config "$tmp/majorant.json" --out "$tmp/majorant-werror" > /dev/null
python -W error -c '
import sys
sys.path.insert(0, "tests")
from test_tracer import _unsplit_suite_config
from errbounds import runner
runner.emit(runner.run(_unsplit_suite_config()), ["json"], sys.argv[1])
' "$tmp/unsplit-werror"
cmp "$tmp/suite-0/report.json" "$tmp/suite-werror/report.json"
cmp "$tmp/majorant-0/report.json" "$tmp/majorant-werror/report.json"
cmp "$tmp/unsplit-0/report.json" "$tmp/unsplit-werror/report.json"
