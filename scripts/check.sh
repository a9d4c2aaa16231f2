#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it merges.
#
#   scripts/check.sh           # full suite + lint
#   scripts/check.sh --fast    # skip the slow integration/golden suites
#
# Order: the determinism linter first (it is seconds and catches whole
# classes of nondeterminism before any simulation runs), then the test
# suite, whose golden-figure and differential batteries byte-compare
# simulator output against the committed snapshots under tests/golden/.
#
# The lint step runs the full analyzer -- per-file rules over src/ and
# the auxiliary targets (tests/, benchmarks/, examples/), plus the
# whole-program passes (taint flow, REPRO009/REPRO010) -- emitting the
# canonical JSON report.  Exit status 1 means a finding not grandfathered
# in lint-baseline.json; run `python -m repro.lint` locally for the
# human-readable version, or `python -m repro.lint --changed-only` for a
# quick diff-scoped pass while iterating.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== repro.lint (whole-program analyzer, --format json) =="
python -m repro.lint --format json > /tmp/repro-lint-report.json || {
    status=$?
    cat /tmp/repro-lint-report.json
    echo "repro-lint: non-baselined findings (full report above)" >&2
    exit "$status"
}
python - <<'EOF'
import json
doc = json.load(open("/tmp/repro-lint-report.json"))
s = doc["summary"]
print(f"repro-lint: clean ({doc['files']} files, "
      f"{s['grandfathered']} grandfathered)")
EOF

echo "== backend throughput gate (benchmarks/bench_engine.py --json) =="
# Fails (exit 1) if the columnar backend's speedup over the scalar
# reference drops below 5x on the instruction-fetch gate cell; the full
# cell matrix lands in benchmarks/results/BENCH_engine.json.
mkdir -p benchmarks/results
python benchmarks/bench_engine.py --json \
    --out benchmarks/results/BENCH_engine.json

echo "== fleet smoke gate (benchmarks/bench_fleet.py --json) =="
# Simulates a small region across two arrival mixes with Jukebox off/on;
# fails if the geomean capacity uplift is not positive or any region
# violates arrival conservation (arrivals != served + dropped).
python benchmarks/bench_fleet.py --json \
    --out benchmarks/results/BENCH_fleet.json

echo "== chaos smoke (scripts/chaos_smoke.py) =="
# End-to-end failure drill: injected worker kills/hangs (reaped by the
# deadline guard), torn cache writes and ENOSPC (quarantine + degrade),
# an fsck repair pass, and a SIGKILLed driver resuming from the
# incremental cache -- every scenario must reproduce the undisturbed
# baseline byte-for-byte.
python scripts/chaos_smoke.py

if [[ "${1:-}" == "--fast" ]]; then
    echo "== pytest (fast: unit suites only) =="
    python -m pytest -q \
        --ignore=tests/integration \
        --ignore=tests/test_golden_figures.py
else
    echo "== pytest (full tier-1 suite, incl. golden-trace comparator) =="
    python -m pytest -q
fi

echo "== benchmark harness tests (perfbench/tests) =="
# The end-to-end benchmark's own checks (committed result digests, span
# install/restore); they live outside pytest's testpaths.
python3 -m pytest perfbench/tests -q

echo "== coverage gate (scripts/coverage_gate.py) =="
# Branch-coverage ratchet against the floor in coverage-baseline.json.
# Skips cleanly (exit 0) where the 'coverage' package is not installed;
# when skipped the pytest run above has already gated correctness.
if [[ "${1:-}" == "--fast" ]]; then
    python scripts/coverage_gate.py --fast
else
    python scripts/coverage_gate.py
fi

echo "OK: lint + tests passed"
