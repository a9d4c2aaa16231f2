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
# whole-program passes (taint flow, REPRO010).  It prints every finding
# and exits 1 on any of them, warnings included.
#
# Everything the gate writes goes to one temp directory, removed on
# exit, so a passing run leaves the checkout as it found it; the last step
# checks that promise against `git status`.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

# The checkout's status (tracked edits and untracked files, ignored ones
# aside) as the gate found it; compared again at the end.  Outside a git
# work tree there is nothing to compare.
tree_before=""
in_work_tree=""
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    in_work_tree=1
    tree_before="$(git status --porcelain --untracked-files=all)"
fi

echo "== repro.lint (whole-program analyzer) =="
python -m repro.lint

echo "== backend throughput gate (benchmarks/bench_engine.py --json) =="
# Fails (exit 1) if the columnar backend's speedup over the scalar
# reference drops below 5x on the instruction-fetch gate cell.
python benchmarks/bench_engine.py --json --out "$work_dir/BENCH_engine.json"

echo "== fleet smoke gate (benchmarks/bench_fleet.py --json) =="
# Simulates a small region across two arrival mixes with Jukebox off/on;
# fails if the geomean capacity uplift is not positive or any region
# violates arrival conservation (arrivals != served + dropped).
python benchmarks/bench_fleet.py --json --out "$work_dir/BENCH_fleet.json"

echo "== chaos smoke (scripts/chaos_smoke.py) =="
# End-to-end failure drill: injected worker kills/hangs (reaped by the
# deadline guard), torn cache writes and ENOSPC (quarantine + degrade),
# an fsck repair pass, and a SIGKILLed driver resuming from the
# incremental cache -- every scenario must reproduce the undisturbed
# baseline byte-for-byte.
python scripts/chaos_smoke.py

echo "== trace summaries of real runs (python -m repro.obs summarize) =="
# Traces spectrum-pool's command (a two-worker pool, ~2 s) and the fast
# fleet region (~1 s), then summarizes each trace; summarize exits 1
# when a record breaks the schema or the counted events disagree with
# the sweep.end totals.
python -m repro.experiments.runner spectrum --fast --jobs 2 \
    --functions ProdL-G --no-cache --trace "$work_dir/spectrum.jsonl" \
    > /dev/null
python -m repro.experiments.runner fleet --fast --no-cache \
    --trace "$work_dir/fleet.jsonl" > /dev/null
python -m repro.obs summarize "$work_dir/spectrum.jsonl" --slowest 1
python -m repro.obs summarize "$work_dir/fleet.jsonl" --slowest 1

echo "== fsck of a cache a real run wrote (python -m repro.engine fsck) =="
# table3's fast Fib-G cells (about 2 s) fill a fresh cache; fsck then
# audits every entry's frame, digest and placement, and exits 1 on any
# defect.
python -m repro.experiments.runner table3 --fast --functions Fib-G \
    --cache-dir "$work_dir/cache" > /dev/null
python -m repro.engine fsck "$work_dir/cache"

# The suite runs with HOME and XDG_CACHE_HOME pointed at an empty
# directory and fails if anything lands there: a test that opens the
# default result cache must get tests/conftest.py's per-test directory,
# never the user's ~/.cache.
home_dir="$work_dir/home"
mkdir "$home_dir"
if [[ "${1:-}" == "--fast" ]]; then
    echo "== pytest (fast: unit suites only) =="
    HOME="$home_dir" XDG_CACHE_HOME="$home_dir" python -m pytest -q \
        --ignore=tests/integration \
        --ignore=tests/test_golden_figures.py
else
    echo "== pytest (full tier-1 suite, incl. golden-trace comparator) =="
    # Also the examples smoke: tests/integration/test_examples.py runs
    # every examples/*.py script and fails on a non-zero exit.
    # --full-trace-matrix runs the walk-plan differential over both
    # scales of the 160-trace digest matrix (about 15 s instead of 6 s).
    HOME="$home_dir" XDG_CACHE_HOME="$home_dir" python -m pytest -q \
        --full-trace-matrix
fi
leftovers="$(find "$home_dir" -mindepth 1 | head -n 20)"
if [[ -n "$leftovers" ]]; then
    echo "the test suite wrote into HOME/XDG_CACHE_HOME:" >&2
    echo "$leftovers" >&2
    exit 1
fi

echo "== benchmark harness tests (perfbench/tests) =="
# The end-to-end benchmark's own checks (committed result digests, span
# install/restore); they live outside pytest's testpaths.
python3 -m pytest perfbench/tests -q

echo "== benchmark correctness (perfbench/run.py spectrum-pool, fig10-cold, fig10-warm, fleet-region) =="
# One real command per workload on seed 1 (about 3 s, 3.5 s and 3.5 s): each
# exits 1 when its result digest differs from the one committed in
# perfbench/digests.json or a seeded-random cell's scalar re-simulation
# disagrees with the cached columnar result.  spectrum-pool runs again on
# the held-out seed 4242 (about 3 s): its pool workers build their IR
# from each trace's walk plan, as fig10-cold's single process does.
# fig10-cold runs baseline, jukebox and perfect cells over a Python, a
# Node and a Go function, and runs again on the held-out seed 4242, whose
# traces are drawn from other random words.  The seed picks the
# re-simulated cell: Fib-P/perfect on seed 1, ProdL-G/baseline on 4242
# and Fib-N/jukebox on 5, so each config's bulk walk classes meet the
# scalar oracle on real traces.
# fig10-warm fills a cache, then re-runs the command in a fresh process
# that keys its cells from the same sources: every cell must be a cache
# hit, the report byte-equal to the fill's and the cache unchanged, so an
# unstable key or a config registered only by an eager import fails
# here; it also runs on the held-out seed 4242 (about 3.5 s), whose
# warm-path digest is committed too.  fleet-region (about 2 s each) runs
# the full-scale region serial and uncached on seed 1 and the held-out
# seed 4242; its digest hashes every region result, config echo
# included, and every node must conserve arrivals (arrivals == served +
# dropped).
python3 perfbench/run.py --workload spectrum-pool --seconds 0
python3 perfbench/run.py --workload spectrum-pool --seed 4242 --seconds 0
python3 perfbench/run.py --workload fig10-cold --seconds 0
python3 perfbench/run.py --workload fig10-cold --seed 4242 --seconds 0
python3 perfbench/run.py --workload fig10-cold --seed 5 --seconds 0
python3 perfbench/run.py --workload fig10-warm --seconds 0
python3 perfbench/run.py --workload fig10-warm --seed 4242 --seconds 0
python3 perfbench/run.py --workload fleet-region --seconds 0
python3 perfbench/run.py --workload fleet-region --seed 4242 --seconds 0

echo "== coverage gate (scripts/coverage_gate.py) =="
# Branch-coverage ratchet against the floor in coverage-baseline.json.
# Skips cleanly (exit 0) where the 'coverage' package is not installed;
# when skipped the pytest run above has already gated correctness.
if [[ "${1:-}" == "--fast" ]]; then
    python scripts/coverage_gate.py --fast
else
    python scripts/coverage_gate.py
fi

echo "== the checkout is as the gate found it (git status) =="
# A step that writes into the checkout (a bench gate rewriting a tracked
# render, a stray cache directory) fails here; fix the writer.
if [[ -n "$in_work_tree" ]]; then
    tree_after="$(git status --porcelain --untracked-files=all)"
    if [[ "$tree_after" != "$tree_before" ]]; then
        echo "the gate changed the checkout (< before, > after):" >&2
        diff <(printf '%s\n' "$tree_before") \
            <(printf '%s\n' "$tree_after") >&2 || true
        exit 1
    fi
    echo "unchanged"
else
    echo "skipped: not a git work tree"
fi

echo "OK: lint + tests passed"
