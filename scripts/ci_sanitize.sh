#!/usr/bin/env bash
# Tier-1 test suite under AddressSanitizer + UBSanitizer.
#
# Mirrors the plain tier-1 job (`cmake -B build && ctest`) but with
# VEGA_SANITIZE=ON, so memory and UB bugs in the fault-tolerance paths
# (journal parsing, campaign quarantine, escalation ladder) fail CI instead
# of shipping. Usage:
#
#   scripts/ci_sanitize.sh [extra ctest args...]
#
# Configures with explicit -D flags rather than CMake presets, so any
# CMake the project builds with can run it. The flags match the
# `sanitize` and `tsan` presets in CMakePresets.json, and the TSan pass
# at the end uses the same test filter as the `tsan` test preset; keep
# the two filters equal.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-sanitize"
jobs="$(nproc 2>/dev/null || echo 4)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVEGA_SANITIZE=ON
cmake --build "$build" -j "$jobs"
# The observability layer, the fleet simulator, and the sharded
# journal/aggregator stack are the most concurrency- and
# integrity-critical code in the tree (sharded counters, trace rings,
# the FIFO thread pool, the chunked device fan-out, checksummed
# crash-safe journals); run their focused tests first so a data race
# or torn-write bug there fails fast and readably. The JSON writer's
# golden-bytes and escaping tests ride along: every report, manifest
# and metrics snapshot goes through its string and number code.
ctest --test-dir "$build" --output-on-failure \
    -R 'Obs|ThreadPool|Fleet|Shard|Crc32c|Journal|JsonGolden|JsonEscape' \
    -j "$jobs"
# Memory-path substrate next: the decoder netlist, wrong-address fault
# lifting, the faulty-memory ISS backend, and the march-test engine
# lean hard on index arithmetic and bit manipulation — exactly what
# ASan/UBSan catch. The `mem` label covers vega_mem_tests plus the
# mem_substrate bench smoke (decoder aging -> march detection).
ctest --test-dir "$build" --output-on-failure -L mem -j "$jobs"
# The one tape interpreter: every gate-level consumer (SP profiling,
# test replay, waves, fuzzing) runs on BatchSimulator's plane
# arithmetic, lazy and input-only settles and save/restore buffers, so
# check it, its lane-by-lane reference lockstep, and the SP profile
# built on it before the full suite, where a failure would read less
# clearly.
ctest --test-dir "$build" --output-on-failure \
    -R 'EvalTape|BatchSimulator|SpProfiler|SpActivity|AgingAnalysis' \
    -j "$jobs"
# The one gate-level FU protocol: BatchNetlistEngine lanes against the
# golden models and, on fault banks with fm_rand faults, against the
# scalar reference lane by lane (RandomFaultLanesMatchReferenceFu),
# the ISS that waves and the test reference share (its decode,
# Iss::peek_fu_issue, and its page-grown data memory, whose loads and
# stores may straddle the grown end), the scalar reference protocol
# itself (tests/reference_fu.h), and the wave checks built on the two.
# Every Table 6/7 number and campaign verdict flows through this
# per-lane plane arithmetic and its next-state peeks, so run it focused
# before the full suite, where a failure would read less clearly.
fu_gate='Iss\.|BatchNetlistEngine\.|ReferenceFu\.'
fu_gate+='|WaveCampaign\.FaultBankDisabledLanesArePassThrough'
fu_gate+='|WaveCampaign\.CharacterizeWaveMatchesScalarVerdicts'
fu_gate+='|WaveCampaign\.ProbeWaveSettlesOncePerCommittedEdge'
fu_gate+='|WaveCampaign\.AluJobsMatchReferenceAtAnyThreadCount'
ctest --test-dir "$build" --output-on-failure -R "$fu_gate" -j "$jobs"
# Bench smoke: runs bench/sim_throughput --smoke (lockstep-checks
# BatchSimulator lane 0 against the pre-tape legacy replica under the
# sanitizers),
# bench/bmc_throughput --smoke (cross-checks one-target check_cover
# calls against one batched CoverBatch suite, target by target),
# bench/campaign_scaling --smoke (thread-count byte-identity of the
# campaign engine), bench/mem_substrate --smoke (decoder lifting and
# march detection), and tools/vega_fleet --smoke (a tiny end-to-end
# mission-mode run), then validates every emitted BENCH_*.smoke.json
# with vega_json_check. Smoke artifacts live beside — never over — the
# pinned BENCH_*.json.
ctest --test-dir "$build" --output-on-failure -L bench-smoke -j "$jobs"

# Cover-solving determinism gate: the CoverBatch and CheckCover corpus
# tests assert that batched cover solving and one-target check_cover
# return byte-identical results (status, frames, induction depth,
# witness waveforms) across seeded target-order permutations, against
# the fresh-instance reference in tests/reference_bmc.cpp. Batch shape
# and target order must never leak into verdicts; run the gate focused
# so a divergence fails readably before the full suite.
ctest --test-dir "$build" --output-on-failure \
    -R 'CoverBatch|CheckCover|SatSolver' -j "$jobs"
echo "ci_sanitize: cover-solving determinism gate clean"

# Thread-scaling gate: the campaign engine must actually scale where
# the hardware can scale. campaign_scaling --smoke adds an 8-thread
# run whenever the box has >= 8 hardware threads; on smaller runners
# (including 1-core containers) an 8-thread speedup is physically
# meaningless, so the gate reports and skips instead of lying.
scaling_dir="$build/ci-scaling"
rm -rf "$scaling_dir"
mkdir -p "$scaling_dir"
(cd "$scaling_dir" && "$build/bench/campaign_scaling" --smoke)
scaling_json="$scaling_dir/BENCH_campaign.smoke.json"
hw="$(sed -n 's/.*"hardware_concurrency":\([0-9]*\).*/\1/p' "$scaling_json")"
if [ "${hw:-0}" -ge 8 ]; then
    speedup8="$(sed -n 's/.*"threads":8,[^}]*"speedup":\([0-9.]*\).*/\1/p' \
        "$scaling_json")"
    if ! awk -v s="${speedup8:-0}" 'BEGIN { exit !(s >= 3.0) }'; then
        echo "ci_sanitize: 8-thread campaign speedup ${speedup8:-?}x < 3x" >&2
        exit 1
    fi
    echo "ci_sanitize: 8-thread campaign speedup ${speedup8}x >= 3x"
else
    echo "ci_sanitize: ${hw:-0} hardware threads; skipping 8-thread speedup gate"
fi

# Sharded kill-and-resume end-to-end, with a real SIGKILL: run the same
# small campaign (a) single-process and (b) as 4 shard processes where
# shard 1 is SIGKILLed mid-run (--kill-after raises SIGKILL from inside
# the worker) and then resumed. The aggregated report must be
# byte-identical to the single-process one, and the aggregator must
# refuse the fleet while the killed shard's journal lacks its trailer.
# It runs twice: on the ALU, where shard 1's 6 jobs share one wave, and
# on the memory decoder, where shard 1 owns 150 of 600 jobs in 64-job
# march batches, so its kill after 100 jobs lands mid-batch, after a
# full batch.
campaign="$build/examples/vega_campaign"
sharded_kill_resume() { # <name> <kill-after> <campaign args...>
    local name="$1" kill_after="$2"
    shift 2
    local common_args=("$@" --quiet --no-timing)
    local fleet_dir="$build/ci-fleet-$name"
    rm -rf "$fleet_dir"
    mkdir -p "$fleet_dir"
    "$campaign" "${common_args[@]}" --out "$fleet_dir/single.json"
    for k in 0 2 3; do
        "$campaign" "${common_args[@]}" --shards 4 --shard-id "$k" \
            --journal-dir "$fleet_dir/shards" --out "$fleet_dir/shard$k.json"
    done
    # Shard 1: flush every record, SIGKILL after kill_after completed jobs.
    "$campaign" "${common_args[@]}" --shards 4 --shard-id 1 \
        --journal-dir "$fleet_dir/shards" --journal-flush-every 1 \
        --kill-after "$kill_after" --out "$fleet_dir/shard1.json" && {
        echo "ci_sanitize: $name shard 1 survived its SIGKILL" >&2
        exit 1
    }
    # The aggregator must refuse the incomplete fleet...
    if "$campaign" --aggregate "$fleet_dir/shards" \
        --out "$fleet_dir/premature.json"; then
        echo "ci_sanitize: aggregator merged an incomplete $name shard" >&2
        exit 1
    fi
    # ...until the killed shard is resumed.
    "$campaign" "${common_args[@]}" --shards 4 --shard-id 1 \
        --journal-dir "$fleet_dir/shards" --resume \
        --out "$fleet_dir/shard1.json"
    "$campaign" --aggregate "$fleet_dir/shards" \
        --out "$fleet_dir/aggregated.json"
    diff "$fleet_dir/single.json" "$fleet_dir/aggregated.json"
    "$build/tools/vega_json_check" \
        "$fleet_dir/aggregated.json.manifest.json" \
        --require integrity --require shards
    echo "ci_sanitize: $name sharded kill-and-resume aggregate is byte-identical"
}
sharded_kill_resume alu 3 --module alu --jobs 24 --seed 7 --max-pairs 2
sharded_kill_resume mem 100 --module mem --jobs 600 --seed 7 --max-pairs 2

# Output pins: the bytes a refactor must hold still. OutputPin.* takes
# CRC32Cs of every failure-model product as exported Verilog (failing
# netlist, shadow instrumentation, fault bank, shadow bank; ALU pairs
# and adder2 same-flop paths) and of the lifted ALU, MDU and FPU suites
# with their compiled blocks and lifting outcomes. output_pin_* compares
# vega_campaign reports (alu, mem, mdu at 1 and 4 threads), vega_fleet
# --smoke's bench record and the full mem_substrate run, which must
# regenerate the committed BENCH_mem.json, against pinned bytes, and
# reruns campaign_scaling and bmc_throughput in full, whose verdicts
# and counts must equal those in the committed BENCH_campaign.json and
# BENCH_bmc.json, and sim_throughput --smoke, whose module and tape
# sizes must equal BENCH_sim.json's (tests/pin_fields.cmake). Run them
# focused so an output that moves under the sanitizers fails readably
# before the full suite.
ctest --test-dir "$build" --output-on-failure -R 'OutputPin|output_pin' \
    -j "$jobs"
echo "ci_sanitize: output pins hold"

ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"

# Concurrency pass under ThreadSanitizer (its own tree: TSan cannot
# share a process with ASan). Focused on the code where a missed lock
# becomes silent corruption — the campaign engine's wave and march
# batch dispatch, the journal's concurrent recorders and their
# leader/follower group commit, the fleet fault matrix's wave and
# march tasks (which write into shared per-class slots; MemCampaign
# and MemFleet live in vega_mem_tests, so that binary is built too),
# the fleet device pass (whose pool workers write per-chunk partial
# reports and per-device overheads), the thread pool's one queue, the
# sharded aggregator, and the observability counters/rings. The
# CoverBatch and CheckCover entries run the cover-solving corpus tests
# (seeded target-order permutations against tests/reference_bmc.cpp);
# cover solving spawns no threads of its own, so they run on one thread.
tsan="$repo/build-tsan"
cmake -S "$repo" -B "$tsan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVEGA_TSAN=ON
cmake --build "$tsan" -j "$jobs" --target vega_tests vega_mem_tests
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
    ctest --test-dir "$tsan" --output-on-failure \
    -R 'Campaign|WaveCampaign|FleetMatrix|FleetSim|MemFleet|ThreadPool|ShardFleet|Obs|CoverBatch|CheckCover|Journal' \
    -j "$jobs"
echo "ci_sanitize: ThreadSanitizer campaign/journal/fleet/pool/cover-batch pass clean"
