#!/usr/bin/env sh
# Offline verification pipeline, runnable whole or in slices:
#
#   scripts/ci.sh             # everything (the full pre-merge gate)
#   scripts/ci.sh --quick     # tier-1 only: fmt -> build -> cargo test -q
#   scripts/ci.sh fast-gate   # fmt + clippy + rustdoc + JSON documents
#   scripts/ci.sh tests       # test suites incl. VC_THREADS=2 determinism,
#                             # fault and fleet-splice suites, and the
#                             # walkthrough examples
#   scripts/ci.sh gates       # release gates: bench baseline, trace and
#                             # Table 1 reports, supervised chaos soak + merge
#                             # cross-checks, serve service soak, vcbench
#                             # build + self-test under --locked
#
# The three named stages are exactly the three parallel CI jobs
# (.github/workflows/ci.yml), so a local stage run reproduces a CI lane.
# Run from anywhere; works fully offline (deps are vendored, see README).
# Each step prints its wall time so CI logs show where the minutes go.
set -eu

cd "$(dirname "$0")/.."

# step <label> <cmd...>: run a command, fail-fast, print elapsed seconds.
step() {
    _label=$1
    shift
    echo "==> $_label"
    _t0=$(date +%s)
    "$@"
    _t1=$(date +%s)
    echo "    ($_label: $((_t1 - _t0))s)"
}

# ---------------------------------------------------------------------------
# fast-gate: formatting, clippy, rustdoc and the committed baseline —
# everything that fails in seconds-to-a-few-minutes without running a sweep.
# ---------------------------------------------------------------------------
run_fast_gate() {
    step "cargo fmt --check" cargo fmt --check

    # Clippy is also the gate of the determinism rules (DESIGN.md §13):
    # clippy.toml, the crates' [lints.clippy] tables and scoped deny
    # attributes make any VC0xx violation a clippy error. The rules clippy
    # cannot express are checked by xtask's repo_is_clean test.
    step "cargo clippy --all-targets -- -D warnings" \
        cargo clippy --all-targets -- -D warnings

    # `#![deny(missing_docs)]` does not see a dangling or private
    # intra-doc link; rustdoc with warnings denied does.
    step "cargo doc (warnings denied)" \
        env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

    step "xtask check-json BENCH_engine.json" \
        cargo run -p xtask -- check-json BENCH_engine.json
}

# ---------------------------------------------------------------------------
# tests: the full test pyramid, then the determinism-sensitive suites
# again under the VC_THREADS=2 env override production sweeps use.
# ---------------------------------------------------------------------------
run_tests() {
    step "cargo build --release" cargo build --release

    step "cargo test -q" cargo test -q

    # The plain test run above already exercises the engine at 1/2/8
    # workers; re-running the determinism-sensitive suites with
    # VC_THREADS=2 additionally covers the env override that production
    # sweeps use. fleet_splice is in this set: partition splicing must be
    # byte-identical at every worker thread count.
    step "VC_THREADS=2 determinism suites" \
        env VC_THREADS=2 cargo test -q -p vc-bench \
        --test engine_determinism \
        --test lower_bounds \
        --test pipeline_hybrid_hh \
        --test trace_determinism \
        --test checkpoint_identity \
        --test ident_canonical \
        --test fleet_splice

    # Fault suite (DESIGN.md §11), under the same forced two-worker engine:
    # an injected chunk panic must leave a recovered sweep whose merged
    # counts are identical to the clean run of the surviving chunks; a
    # checkpoint killed mid-sweep and resumed must be byte-identical to an
    # unbroken run; and every Table-1 solver must honor the degradation
    # contract under refusal/crash/corruption/squeeze plans.
    step "VC_THREADS=2 fault suite (engine robustness)" \
        env VC_THREADS=2 cargo test -q -p vc-engine -p vc-faults

    step "VC_THREADS=2 fault suite (injection contracts)" \
        env VC_THREADS=2 cargo test -q -p vc-bench \
        --test fault_transparency \
        --test fault_degradation

    step "VC_THREADS=2 fault suite (audited faulty replay)" \
        env VC_THREADS=2 cargo test -q -p vc-audit --test faulty_replay

    # End-to-end demonstration: a faulted sweep degrades loudly, then a
    # checkpointed sweep killed after two chunks resumes to a
    # byte-identical result (asserted inside the example).
    step "VC_THREADS=2 fault sweep example" \
        env VC_THREADS=2 cargo run --release --example fault_sweep

    # The two walkthroughs no other step runs: README quotes quickstart's
    # output, and adversary_trace prints the Prop. 5.20 duel trace. Both
    # must exit 0.
    step "walkthrough examples" \
        sh -c "cargo run --release --example quickstart && \
        cargo run --release --example adversary_trace"
}

# ---------------------------------------------------------------------------
# gates: release-mode regression gates — the bench baseline diff, the
# trace and Table 1 documents, and the fleet execution drill.
# ---------------------------------------------------------------------------
run_gates() {
    step "cargo build --release" cargo build --release

    # Bench regression gate: regenerate the engine baseline on this
    # machine and diff it against the committed one. Count fields (n,
    # runs, incomplete, total_queries, max_volume, max_distance) and the
    # content-addressed instance_id must match exactly — drift means a
    # semantic regression, or a case silently measuring a different
    # instance. Throughput fields are advisory within 25%.
    FRESH_BASELINE=target/BENCH_engine.fresh.json
    step "regenerate engine baseline" \
        cargo run --release --example engine_baseline "$FRESH_BASELINE"

    step "xtask compare-bench" \
        cargo run -p xtask -- compare-bench BENCH_engine.json "$FRESH_BASELINE" --tol-pct 25

    # Trace report: generate the vc-trace-report/v1 document with tracing
    # enabled and check it is well-formed JSON.
    TRACE_REPORT=target/TRACE_report.json
    step "generate trace report" \
        cargo run --release --example trace_report "$TRACE_REPORT"

    step "xtask check-json trace report" \
        cargo run -p xtask -- check-json "$TRACE_REPORT"

    # Table 1 gate: measure every cell of the paper's Table 1, the Figure
    # 1-5 and 8 checks, Observations 7.4-7.5, Example 7.6 and ablations
    # A1-A2, each curve once, and fit them. The example exits nonzero when
    # a cell's fit leaves its claimed family (polynomial exponents within
    # 0.07 of 1/k), when any checker violation or failed adversary
    # certificate turns up, when a check outside the table misses (the
    # Figure 4 pseudo-tree query bound, the CONGEST round fits and the
    # falling rounds of §7.3, the way-point and randomness ablations of
    # §7.4), or when the large-n contracts drift (store round-trip,
    # 1/2/8-thread identity and checkpoint resume at n = 262 143). The
    # vc-table1-report/v2 document is then checked for well-formedness,
    # and its markdown rendering must equal the generated block in
    # EXPERIMENTS.md byte for byte.
    TABLE1_REPORT=target/TABLE1_report.json
    step "generate Table 1 report" \
        cargo run --release --example table1_report "$TABLE1_REPORT"

    step "xtask check-json Table 1 report" \
        cargo run -p xtask -- check-json "$TABLE1_REPORT"

    step "EXPERIMENTS.md block equals the Table 1 report" \
        sh -c "sed -n '/<!-- table1-report:begin -->/,/<!-- table1-report:end -->/p' \
        EXPERIMENTS.md | sed '1d;\$d' > target/TABLE1_block.md && \
        cmp target/TABLE1_block.md target/TABLE1_report.md"

    # Chaos soak (DESIGN.md §15–16): the vc-fleet supervisor runs four
    # worker *processes* over disjoint VC_CHUNKS slices — once healthy,
    # then once per seeded KillPlan in the chaos matrix, with victims
    # dying by clean exit or mid-sweep stall. The example asserts, per
    # drill, that the supervisor converges without manual intervention,
    # that every injected death is accounted in the FleetReport, and that
    # the merged checkpoint is byte-identical to the serial run. The
    # aggregate vc-fleet-drill/v1 document and the partial checkpoints
    # stay in target/fleet/ as CI artifacts.
    step "VC_THREADS=2 supervised chaos soak" \
        env VC_THREADS=2 cargo run --release --example fleet_sweep

    step "xtask check-json fleet drill report" \
        cargo run -p xtask -- check-json target/fleet/FLEET_report.json

    # Cross-check the standalone merge tool against the healthy drill's
    # partials: the spliced file it writes must be byte-identical to the
    # serial checkpoint the drill produced.
    step "xtask merge-checkpoints cross-check" \
        cargo run -p xtask -- merge-checkpoints target/fleet/merged_xtask.json \
        target/fleet/part0.json target/fleet/part1.json \
        target/fleet/part2.json target/fleet/part3.json

    step "fleet merge byte-identity" \
        cmp target/fleet/merged_xtask.json target/fleet/serial.json

    # Partial-merge cross-check: drop one part, merge with --partial, and
    # validate the machine-readable vc-fleet-missing/v1 gap document the
    # tool prints on stdout.
    step "xtask merge-checkpoints --partial cross-check" \
        sh -c "cargo run -p xtask -- merge-checkpoints --partial \
        target/fleet/merged_partial.json \
        target/fleet/part0.json target/fleet/part1.json \
        target/fleet/part3.json > target/fleet/MISSING_partial.json"

    step "xtask check-json partial-merge missing document" \
        cargo run -p xtask -- check-json target/fleet/MISSING_partial.json

    # Serve soak (DESIGN.md §17): the vc-serve drill exercises the
    # content-addressed sweep service at 1/2/8 worker threads —
    # hit-after-miss byte-identity, duplicate-submission dedup,
    # interactive preemption with a byte-identical resumed checkpoint —
    # plus the FIFO-eviction and Unix-socket protocol drills. The
    # vc-serve-report/v1 document stays in target/serve/ as an artifact.
    step "serve service soak" \
        cargo run --release --example serve_drill

    step "xtask check-json serve report" \
        cargo run -p xtask -- check-json target/serve/SERVE_report.json

    # Every entry the drill stored is a sealed vc-engine-checkpoint/v4
    # file. A one-part merge decodes it under its seal and re-encodes it
    # canonically, and `cmp` fails on any entry whose bytes the engine
    # would not write: real service output, not only unit fixtures. A
    # glob that matches nothing fails the step.
    step "xtask merge-checkpoints re-encodes serve store entries" \
        sh -c 'for f in target/serve/t*/store/*.json; do
            cargo run -q -p xtask -- merge-checkpoints target/serve/entry.json "$f" &&
                cmp target/serve/entry.json "$f" || exit 1
        done'

    # Benchmark build gate: vcbench/ is a workspace of its own that builds
    # the repository's crates by path. Building and self-testing it with
    # --locked fails here, rather than in a benchmark run, when a change
    # breaks an API vcbench calls, or adds or removes a dependency edge
    # among the crates it builds (cargo would have to rewrite
    # vcbench/Cargo.lock).
    step "vcbench build + self-test (--locked)" \
        env CARGO_TARGET_DIR=target/vcbench cargo test --release --offline --locked \
        --manifest-path vcbench/Cargo.toml
}

MODE=${1:-all}
case "$MODE" in
--quick)
    # Tier-1 only (ROADMAP.md): the fastest signal that the tree builds
    # and the suites pass. No clippy, no release gates.
    step "cargo fmt --check" cargo fmt --check
    step "cargo build" cargo build
    step "cargo test -q" cargo test -q
    echo "CI OK (quick)"
    exit 0
    ;;
fast-gate)
    run_fast_gate
    ;;
tests)
    run_tests
    ;;
gates)
    run_gates
    ;;
all)
    run_fast_gate
    run_tests
    run_gates
    ;;
*)
    echo "usage: scripts/ci.sh [--quick | fast-gate | tests | gates]" >&2
    exit 2
    ;;
esac

echo "CI OK ($MODE)"
