#!/usr/bin/env bash
# CI gate: vet, build, then the full test suite under the race detector.
# Run from the repo root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

# run_guard NAMES [go test flags and packages]: runs the tests named in the
# '|'-separated list and fails unless every one of them ran and passed. A
# plain `go test -run REGEX` passes when the regex matches nothing, so a
# renamed or deleted guard would otherwise keep its CI block green.
run_guard() {
  local names=$1 out n
  shift
  if ! out=$(go test -v -run "^(${names})\$" "$@" 2>&1); then
    echo "$out" | grep -v '^=== ' | tail -60
    return 1
  fi
  for n in ${names//|/ }; do
    if ! grep -q -- "^--- PASS: ${n} " <<<"$out"; then
      echo "ci: guard ${n} did not run in: go test $* (renamed or deleted?)" >&2
      return 1
    fi
  done
  grep -E '^(--- PASS|ok|PASS)|bench_test.go' <<<"$out"
}

# fuzz_smoke TARGET PKG: ten seconds of fuzzing. `go test -fuzz` only warns
# when the pattern matches no target, so first require that TARGET exists.
fuzz_smoke() {
  local target=$1 pkg=$2 listed
  echo "==> fuzz smoke (${target}, 10s)"
  listed=$(go test -list "^${target}\$" "$pkg")
  if ! grep -qx "$target" <<<"$listed"; then
    echo "ci: fuzz target ${target} not found in ${pkg} (renamed or deleted?)" >&2
    return 1
  fi
  go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s "$pkg"
}

# coverage_floor LABEL REGEX FLOOR: statement coverage, summed over the
# files of /tmp/lemur-cover.out whose path matches REGEX, must reach FLOOR
# percent — and REGEX must match something, so a floor cannot go quiet
# because its files were renamed.
coverage_floor() {
  local label=$1 regex=$2 floor=$3 pct
  pct=$(awk -v re="$regex" '$1 ~ re { total += $2; if ($3 > 0) covered += $2 }
    END { if (total > 0) printf "%.1f", 100 * covered / total; else print "none" }' /tmp/lemur-cover.out)
  echo "    ${label} coverage: ${pct}%"
  if [ "$pct" = none ]; then
    echo "ci: ${label} coverage floor matches no file" >&2
    return 1
  fi
  awk -v t="$pct" -v f="$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || {
    echo "ci: ${label} coverage ${pct}% fell below the ${floor}% floor" >&2
    return 1
  }
}

# one_definition LABEL WANT REGEX DIR...: the non-test Go lines under the
# DIRs that match REGEX (extended, case-insensitive) must number exactly
# WANT — so a second copy fails the guard, and so does losing the one place
# it allows (a guard that could match nothing would pass vacuously).
one_definition() {
  local label=$1 want=$2 regex=$3 hits n
  shift 3
  hits=$(grep -rniE --include='*.go' -- "$regex" "$@" | grep -v '_test\.go:' || true)
  n=$(grep -c . <<<"$hits" || true)
  if [ "$n" -ne "$want" ]; then
    echo "ci: ${label}: want ${want} non-test match(es) of /${regex}/, found ${n}:" >&2
    echo "$hits" >&2
    return 1
  fi
}

echo "==> go vet ./..."
go vet ./...

# Docs gates: README, ARCHITECTURE, OPERATIONS, EXPERIMENTS and DESIGN must
# not reference dead flags, symbols, or tests; every exported symbol in the
# audited packages must carry a doc comment (units + determinism policy, see
# ARCHITECTURE.md).
echo "==> docs gate (scripts/check_docs.sh)"
./scripts/check_docs.sh

echo "==> godoc coverage (tools/doccheck)"
go run ./tools/doccheck ./internal/placer ./internal/metacompiler ./internal/runtime ./internal/daemon ./internal/experiments .

# No production code that only tests call: an exported identifier under
# internal/ that no non-test file of the module or of bench/ uses must be
# gone or listed, with its reason, in tools/doccheck/testonly.txt; a listed
# identifier that is gone or now used fails too.
echo "==> test-only exported identifiers (tools/doccheck -testonly)"
go run ./tools/doccheck -testonly

echo "==> go build ./..."
go build ./...

# The evaluation has one renderer and two goldens that hold every section it
# prints: lemur-bench -paper all must print the golden TestPaperGolden holds
# it to, byte for byte, -paper beyond the one TestBeyondGolden holds the
# sweeps beyond the paper to (serially too, with three simulator shards),
# and an unknown section must fail. It prints no wall-clock line.
echo "==> lemur-bench -paper all/beyond against paper.golden/beyond.golden"
go run ./cmd/lemur-bench -paper all | cmp - internal/experiments/testdata/paper.golden
go run ./cmd/lemur-bench -paper beyond | cmp - internal/experiments/testdata/beyond.golden
go run ./cmd/lemur-bench -paper beyond -parallel 1 -sim-workers 3 | cmp - internal/experiments/testdata/beyond.golden
if go run ./cmd/lemur-bench -paper nosuch 2>/dev/null; then
  echo "ci: lemur-bench -paper nosuch exited 0" >&2
  exit 1
fi

# Deletion guards. The evaluation harness lost its process-global defaults,
# the NF package its table-backend switch and the devices their frame
# counters (InFrames/DroppedFrames, which nothing but tests read); none may
# come back outside a test file, and the map-backed reference tables (nf.*Ref,
# test-only since they moved to reference_test.go) must not be linked into
# any command.
echo "==> deleted-globals guard"
if grep -rn 'DefaultParallel\|DefaultVerifyPackets\|nf\.Impl\|TableReference\|InFrames\|DroppedFrames' --include='*.go' internal cmd *.go | grep -v '_test\.go:'; then
  echo "ci: a deleted process-global switch or device frame counter is back in non-test code" >&2
  exit 1
fi
echo "==> NF-table oracle stays out of the binaries (go tool nm)"
for cmd in lemur lemurd lemur-bench; do
  go build -o "/tmp/lemur-ci-$cmd" "./cmd/$cmd"
  syms=$(go tool nm "/tmp/lemur-ci-$cmd")
  if ! grep -q 'lemur/internal/nf\.(\*NAT)' <<<"$syms"; then
    echo "ci: go tool nm shows no NF symbols in $cmd (guard would pass vacuously)" >&2
    exit 1
  fi
  if grep 'lemur/internal/nf\..*Ref)' <<<"$syms"; then
    echo "ci: $cmd links a reference NF table" >&2
    exit 1
  fi
done

# One back half, one path model, one registry path. evalScratch.finish is the
# only sequencing of the placer's checks: no caller may pick its own subset
# again (the varargs ev.check is gone), so each check has exactly one call
# site — finish — and stageCheck two (finish and evictUntilFits' probe). The
# switch-pipeline latency and the hop predicate are declared once, in
# internal/placer, for the placer, the runtime and the metacompiler. The
# simulator records into the default registry only. Verify and the simulator
# walk a frame through one hop function (Testbed.hop), the one place the
# runtime switches over the switch's forward to a device.
echo "==> one-exit, one-path-model and one-registry guards"
if grep -rn --include='*.go' -e 'ev\.check(' -e ') check(' internal/placer | grep -v '_test\.go:'; then
  echo "ci: the caller-chosen check list (evalScratch.check) is back in internal/placer" >&2
  exit 1
fi
one_definition 'checkLatency call sites' 1 '\.checkLatency\(\)' internal/placer
one_definition 'solveRates call sites' 1 '\.solveRates\(\)' internal/placer
one_definition 'checkTailLatency call sites' 1 '\.checkTailLatency\(\)' internal/placer
one_definition 'stageCheck call sites' 2 '\.stageCheck\(\)' internal/placer
one_definition 'switch-pipeline latency constant' 1 'pipeline[a-z]* *= *1e-6' \
  internal/placer internal/runtime internal/metacompiler
one_definition 'spelled-out hop predicate' 1 'platform != prev' \
  internal/placer internal/runtime internal/metacompiler
one_definition 'simulator handles on the default registry' 1 'obs\.H\("lemur_sim_queue_depth"' internal/runtime
one_definition 'device switch in the runtime' 1 'case pisa\.ToNIC' internal/runtime
if [ -e internal/obs/merge.go ] || grep -rn --include='*.go' -e 'regForOwner' -e 'sh\.reg\b' internal; then
  echo "ci: the simulator's private-registry path (obs merge, regForOwner, simShard.reg) is back" >&2
  exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# The parallel placement engine, experiment runner (incl. the parallel sim,
# failover, churn and flow-scale sweeps), batched simulator, the
# reconfiguration stack (one chaos plan for faults and churn, incremental
# rewire), and the million-flow state layer (sharded NF tables, arena flow
# schedules) get an extra race pass with their property tests un-shortened
# (the ./... run above may cache).
echo "==> go test -race -count=1 ./internal/placer ./internal/experiments ./internal/runtime ./internal/chaos ./internal/metacompiler ./internal/nf ./internal/trafficgen ./internal/daemon"
go test -race -count=1 ./internal/placer ./internal/experiments ./internal/runtime ./internal/chaos ./internal/metacompiler ./internal/nf ./internal/trafficgen ./internal/daemon

# Control-plane guards: the daemon's reconcile properties (idempotence,
# convergence over random op sequences, rejected-spec isolation, snapshot
# round-trip, a replay that reconciles where the live daemon did, an op log
# torn at every byte of its last line or rolled back
# after a failed append, a corrupt line refused, the headroom gauge's
# one-pass total equal to the status table's; a restart from the log's
# checkpoint equal to the daemon that never stopped after every prefix of
# seeded scripts, a fault at each compaction step, replay bounded by live
# state over 1 200 ops, byte-identical logs from identical ops, a log from
# before checkpoints replayed) and the end-to-end daemon
# scenario (fake clock, unix-socket
# API, chaos crash, Prometheus endpoint) get a named race pass so the
# lemurd path cannot be skipped by test caching.
echo "==> control-plane daemon guards (race)"
run_guard 'TestReconcileIdempotent|TestConvergenceRandomSequences|TestRejectedSpecIsolation|TestSnapshotRoundTrip|TestReplayMatchesLiveReconcilePoints|TestSnapshotTornTail|TestSnapshotFailedAppendRollsBack|TestSnapshotCorruptionRejected|TestEndToEndDaemon|TestOneDeltaPerTick|TestAdmissionAfterFailureLandsOnce|TestStatusPredictedP99AfterAdmission|TestStatusFailsClosed|TestTailViolatingAdmissionRefused|TestFreeCoresMatchHeadroom|TestRestartEquivalence|TestRestartKeepsBackoff|TestCompactionCrashPoints|TestReplayBounded|TestSnapshotDeterministic|TestLegacyLogReplays|TestSnapshotErrorOutlivesReconcile' \
  -race -count=1 ./internal/daemon
run_guard 'TestRestoreMatchesApplied|TestRestoreRefusesBadOrder' -race -count=1 ./internal/metacompiler
run_guard 'TestRecordRoundTrip|TestRecordRefuses' -race -count=1 ./internal/placer
run_guard 'TestReconcileSweepDeterministic' -race -count=1 ./internal/experiments

# The evaluation harness's one cell runner: bounded workers, every index
# once, inline at one worker, and errors reduced by index like results — so
# a sweep with two failing cells names the lower one on every schedule — and
# the simulation fan-out on top of it, the same at any -parallel and
# -sim-workers.
echo "==> experiment cell runner (race)"
run_guard 'TestForEach|TestFailoverSweepErrorDeterministic|TestSimulateCellsIdenticalAcrossWorkers|TestSimSweepParallelMatchesSerial|TestFailoverSweepParallelIdentical|TestLatencySweepParallelIdentical' -race -count=1 ./internal/experiments

# Sharded/reference table identity: the sharded arena tables against the
# map-backed references that now live only in internal/nf's test files — NF
# by NF, and through the whole simulator over 50+ random stateful topologies.
# A table allocates what it holds: filling one to its cap costs at most 1.35x
# its final arena and slot index (the arena's segments are never copied),
# and evict-then-insert at the cap nothing. An entry is its value and key,
# no stored hash (8, 20, 8 and 48 B for Dedup, LB, NAT and Monitor), and
# Dedup's slot IDs, derived from a fingerprint's age in the ring, equal the
# reference's across the uint32 wrap.
echo "==> sharded/reference NF table identity, table allocation bound and entry layout (race)"
run_guard 'TestShardedMatchesReference|TestShardedTablesMatchReference|TestFlowTableAllocBound|TestFlowTableEntryLayout|TestDedupCacheWraparound' -race -count=1 ./internal/nf
# nf.Meta.ReadsPayload: every class without it gives the same verdicts,
# headers and table counts for frames that differ only in payload (what lets
# the simulator leave its chains' payloads unwritten), and every class with
# it has a frame pair whose outputs show the payload read.
echo "==> payload-blind NF classes (race)"
run_guard 'TestPayloadBlindClasses|TestPayloadReadingClasses' -race -count=1 ./internal/nf

# The ACL holds its synthetic /24 allows as a count: its verdicts and
# NumRules must be the materialised rule list's (reference_test.go) at counts
# around 1 024 and 65 536 and on every /24 up to past 2^24 rules (without the
# race detector, which makes the list's scan take a minute). A Dedup chunk
# shorter than its 8-byte shim is refused by both implementations and by
# Compile, not spun on or sliced out of range.
echo "==> ACL synthetic range, NF parameter rejects"
run_guard 'TestACLMatchesMaterialised|TestDedupRejectsShortChunk' -count=1 ./internal/nf
run_guard 'TestCompileRefusesShortDedupChunk|TestP4TablesMangled' -count=1 ./internal/metacompiler

# Fuzz smoke: ten seconds of FuzzReplace exercises the incremental door's
# invariants (pinning, no-failure identity, combined retire/admit/fail
# deltas) beyond the seed corpus; FuzzPlan the one schedule grammar's
# parse/render round-trip and finite times and factors; FuzzFlowSchedule the arena flow-schedule
# round-trip (regeneration determinism, birth-order/hash consistency,
# replay-window equality against a brute-force liveness scan).
fuzz_smoke FuzzReplace ./internal/placer
fuzz_smoke FuzzPlan ./internal/chaos
# A NaN or infinite time or factor is refused by the grammar and by Simulate
# (a NaN time is never due, and the run loop would look for its step forever).
echo "==> non-finite schedule values"
run_guard 'TestParseErrors' -count=1 ./internal/chaos
run_guard 'TestSimulateRejectsNonFinitePlan' -count=1 ./internal/runtime
fuzz_smoke FuzzFlowSchedule ./internal/trafficgen
# The one-arena schedule: the frames ScheduleGen emits are held to a digest
# taken before Schedule lost its hash and birth-time arenas, BornAt is bit
# for bit the birth time it used to store, and a negative flow count or
# arrival rate, or a churn pool below one flow, is an error, not a panic or a
# loop without end. A generator rebuilt by NewInto (Verify's one per walk)
# emits a fresh New's frames byte for byte, and a rejected config leaves it
# as it was. The unrolled payload kernel writes the word loop's bytes; a
# headers-only frame has NextInto's length, headers and rng draws, so the
# frames after it are NextInto's whatever the interleaving; and a
# payload-writing frame overwrites a recycled buffer's every byte.
echo "==> flow-schedule shape (emitted-frame digest, BornAt, rejected configs, reused generator, headers-only frames)"
run_guard 'TestScheduleGenDigest|TestBornAtMatchesStored|TestScheduleIntoRejects|TestNewIntoMatchesNew|TestFillRandomMatchesByteLoop|TestHeadersIntoMatchesNextInto|TestHeadersIntoKeepsDrawOrder|TestNextIntoOverwritesGarbage' -count=1 ./internal/trafficgen
# FuzzVLANInPlace: the in-place VLAN push/pop against the allocating
# reference kept in the test file, on arbitrary frames and capacities.
fuzz_smoke FuzzVLANInPlace ./internal/nf
# FuzzNSHInPlace: the in-place NSH quartet (EncapInPlace, DecapInPlace,
# DecapShift, EncapShift) against Encap and the copying decap kept in the
# test file, on arbitrary frames and capacities.
fuzz_smoke FuzzNSHInPlace ./internal/nsh
# FuzzFlowTable: arbitrary insert/get/evict sequences on the insertion-order
# arena against a map plus a queue, at caps 0-31 under a colliding hash.
fuzz_smoke FuzzFlowTable ./internal/nf
# FuzzACL: the ACL's synthetic range against the materialised rule list on
# arbitrary rule counts, parameters, destinations and frames.
fuzz_smoke FuzzACL ./internal/nf

# Coverage gate: total statement coverage must not regress below the
# recorded baseline (80.0% when this gate was added; the floor leaves a small
# margin for counter noise).
echo "==> coverage gate"
go test -coverprofile=/tmp/lemur-cover.out ./... > /dev/null
total=$(go tool cover -func=/tmp/lemur-cover.out | awk '/^total:/ {gsub(/%/, "", $NF); print $NF}')
echo "    total coverage: ${total}%"
awk -v t="$total" 'BEGIN { exit (t+0 < 79.0) ? 1 : 0 }' || {
  echo "ci: coverage ${total}% fell below the 79.0% floor" >&2
  exit 1
}

# Per-stack floors, so that a path cannot silently lose its tests. The
# reconfiguration stack is listed file by file: the schedule grammar, the
# incremental door (placer.Reconfigure, Deployment.Apply and the wrappers
# bench/ still calls), the churn sweep and the simulator's control plane.
coverage_floor reconfiguration \
  'internal/chaos/chaos\.go|internal/placer/(reconfigure|legacy)\.go|internal/metacompiler/(apply|legacy)\.go|internal/experiments/churnsweep\.go|internal/runtime/(churnctx|simctl|reconf)\.go' 75.0
# The million-flow state layer: sharded NF tables, arena flow schedules,
# FlowScale plumbing, the scale section's grid and NF state harvest.
coverage_floor scale \
  'internal/nf/(flowtab|nat|monitor|dedup|lb)\.go|internal/trafficgen/|internal/runtime/flowscale\.go|internal/experiments/flowscale\.go' 75.0
# The deadline-scheduling path: EDF scheduler trees, metacompiler slacks,
# p99 admission, simulator drain order + quantiles, the deadline section's
# chain.
coverage_floor deadline \
  'internal/bess/scheduler\.go|internal/metacompiler/deadline\.go|internal/placer/p99\.go|internal/runtime/(simedf|quantile)\.go|internal/experiments/deadline\.go' 75.0
# The control-plane daemon: spec validation, reconcile loop, snapshot, watch
# dir, status/API surface.
coverage_floor daemon 'internal/daemon/' 75.0

# Frame-buffer contract: every device has one frame path, the in-place hop,
# and it gives the bytes of the copying oracle kept in the package's test
# files (processCopy) across stateful NFs and NFs that change the frame's
# length (VLAN push and pop, tagged arrivals, with and without tail room)
# and stays in the caller's buffer; Verify's walk equals a walk that runs
# every hop on a private copy; a Tunnel -> Limiter -> Detunnel server hop and
# the eBPF interpreter allocate nothing.
echo "==> frame-buffer contract: device equivalence across VLAN push/pop"
run_guard 'TestProcessFrameInPlaceMatches|TestVLANInPlaceMatches|TestVLANHopAllocFree' -count=1 ./internal/bess
run_guard 'TestNICProcessFrameInPlaceMatches|TestNICVLANInPlaceMatches|TestRunAllocFree' -count=1 ./internal/smartnic
run_guard 'TestSwitchProcessFrameInPlaceMatches|TestSwitchVLANInPlaceMatches|TestRemoveSPIRangeClearsEntries' -count=1 ./internal/pisa
# The switch rewrites headers only after an NF ran: without one, Decode then
# SyncHeaders must be the identity, on generator frames, after NSH encap and
# decap, and after each NF class.
run_guard 'TestDecodeSyncIdentity' -count=1 ./internal/packet
run_guard 'TestVerifyInPlaceMatchesAllocating' -count=1 ./internal/runtime
# The fast engine against the reference, which writes every payload: each
# property test must have run payload-blind chains, which the fast engine
# emits headers only.
run_guard 'TestSimulateMatchesReference|TestFlowScaleEnginesAgree' -count=1 ./internal/runtime
# Measure's link enforcement scales each chain by its worst device's factor,
# whatever order the devices are met in.
run_guard 'TestEnforceLinksOrderFree' -count=1 ./internal/runtime

# Allocation-regression guard: what one more simulated packet allocates (a
# run against one twice as long, so per-run set-up cancels) must be no heap
# object and under 1 byte (0.07-0.09 measured; raw delay samples were 8),
# across server- and switch-resident VLAN hops at Workers 1 and 2; the
# buffer pool must not outgrow the packets in flight, run after run on one
# Testbed, nor a warm run add to it; a warm run at 200 K flows a chain must
# stay under 0.02 objects and 4 bytes per packet (~1.0 measured; the
# schedules and the parked buffers are the Testbed's, not the run's); and the
# million-flow smoke must hold under 0.18 allocs/packet. What keeps a run's
# memory to what it holds is held to its oracles: the bounded delay tail to
# the sorted raw samples and the raw-sample deadline compliance (an
# undersized bound must be an error), the dispatch index to the pipelines'
# demux, and a growing ring to a slice FIFO.
echo "==> simulator allocation guard (marginal cost per packet, pool bound, warm run)"
run_guard 'TestSimulateAllocBudget|TestSimulatePoolBound|TestSimulateWarmAllocBudget' -count=1 ./internal/runtime
run_guard 'TestDelayTailMatchesSort|TestSimIndexLookupMatchesDemux|TestPacketRingGrowsToOccupancy' -race -count=1 ./internal/runtime

echo "==> million-flow allocation guard"
run_guard 'TestMillionFlowAllocBudget' -count=1 ./internal/runtime

# Sharded-simulation guards: a multi-shard run must stay byte-identical to
# the one-shard run under the race detector at worker counts up to 8 —
# across random topologies, mid-run failover, and churn re-partitions —
# and the CLI-facing worker/flow validation must keep rejecting bad input.
# The golden matrix (testdata/sim.golden, generated before the three
# drivers became one run loop) pins SimResult and metrics at Workers
# 1/2/4/8, and the epoch contract pins where that loop barriers.
# testdata/flowscale.golden (generated before a Testbed kept anything but
# its index between runs) pins FlowScale runs one, two and three on one
# Testbed at Workers 1/2, and the stale-slot guard holds a warm Testbed to a
# fresh one's result for every input of a kept flow schedule. Then the
# sharded path holds its own allocs-per-packet budget (< 0.25 at workers=4
# on a multi-shard deployment, < 0.13 at workers=2 under a fault plan, where
# allocations must also not grow with the step count). A steering loop is an
# error on one shard, on two and in the reference, as in Verify, and so is
# steering at a server pipeline or SmartNIC the deployment does not hold,
# named in each walk's error.
echo "==> sharded simulation byte-identity, golden matrix, epoch contract (race, workers up to 8)"
run_guard 'TestSimulateParallelMatchesReference|TestSimulateParallelFailoverByteIdentity|TestSimulateParallelChurnByteIdentity|TestSimulateWorkersValidation|TestBuildSimPartitionInvariants|TestSimulateGolden|TestFlowScaleGolden|TestWarmScheduleInvalidates|TestSimulateEpochContract|TestSimulateStepCount|TestSimulateSteeringLoopIsError|TestWalksNameMissingDevice' \
  -race -count=1 ./internal/runtime

echo "==> sharded simulation allocation guard"
run_guard 'TestSimulateParallelAllocBudget' -count=1 ./internal/runtime

# Deadline-scheduling guards: the EDF scheduler-tree builder and its
# Deadline node get a named race pass; the simulator's deadline-free
# byte-identity (50+ random topologies × policies × workers), the
# deadline-bearing fast-vs-reference identity, and the quantile-select
# property tests run un-cached alongside it.
echo "==> deadline scheduling (bess scheduler race pass + simulator identity)"
run_guard 'TestSchedulerTrees|TestSchedulerTreesEDF' -race -count=1 ./internal/bess
run_guard 'TestDeadlineFreePolicyByteIdentity|TestSimulateDeadlineMatchesReference|TestSchedPolicyValidation|TestQuantileSelect|TestQuantileSelectTiny|TestQuantileSelectAdversarial' \
  -race -count=1 ./internal/runtime

# Ten seconds of FuzzChainSpec exercises the nfspec grammar — the slo block
# (tmin/tmax/dmax/d_max_p99 with unit suffixes and bad-value rejection),
# aggregates, NF args, and edges — beyond the seed corpus.
fuzz_smoke FuzzChainSpec ./internal/nfspec

# Branch-and-bound soundness: the Optimal placer's pruning/symmetry property
# tests (byte-identity vs the exhaustive reference, budget semantics,
# prune-order-independent reasons, agreement with the raw search on the
# place-scale grid's tractable sets) and the place-scale sweep get a named
# race pass so the search invariants cannot be skipped by test caching.
echo "==> branch-and-bound soundness (race)"
run_guard 'TestBranchAndBoundMatchesExhaustiveProperty|TestBudgetCappedNeverBeatsExhaustive|TestOptimalSearchStatsDeterministic|TestSymmetryCollapseInvariant|TestFirstReasonPruneOrderIndependent|TestOptimalTruncationFlag|TestOptimalMatchesRawSearchOnPlaceScaleGrid' \
  -race -count=1 ./internal/placer
run_guard 'TestPlaceScaleSweepDeterministic|TestPlaceScaleSweepBudgetPropagates|TestPlaceScaleSweepRejectsBadPoint' \
  -race -count=1 ./internal/experiments

# Placement byte-identity and ownership: the golden placement matrix (five
# chain sets x three deltas x two fleets x the six schemes and three
# ablations, at Parallel 1/3/4/8)
# must render to testdata/placements.golden byte for byte; a returned Result
# must share no memory with the evaluation scratch, nor a Reconfigure Result
# with the scratch its prep family keeps across calls; the core-overflow reason
# must not depend on map order; the reconfiguration matrix (Replace, Admit,
# Retire and their rewires over 32 racks) must render to
# testdata/reconfig.golden; the incremental door must keep pinned chains'
# *Subgroup pointers, kind by kind and for a combined retire/admit/fail
# delta; the door and ReEvaluate must enforce d_max_p99 and fill the
# prediction like Place; Place and Reconfigure must refuse a negative
# HeadroomCores; the arena lowering must give the allocating
# reference's tables on random assignments over the canonical chains, a
# chain template's slab the reference's subgroups, and the compile cache's
# verdict-only probe Compile's verdicts; the rate LP over live slots must
# give the full-width program's rates bit for bit with one pivot fewer per
# retired slot, and a chain prep derived in its family (admissions, sibling
# admissions, retries, compactions) must deep-equal a fresh build and place
# like one; a call after a refused admission, two goroutines reconfiguring
# one family at once, and every scheme placing on a family scratch carried
# from the call before, must answer as on fresh inputs. Then,
# without the race detector (it makes sync.Pool drop the LP tableau), a warm
# candidate evaluation must allocate nothing, a stage-memo miss on a warm
# compile cache nothing but the memo's own entry, an admission or a retried
# admission at 261 slots no more objects than at 5 and at most 40 KB, and a
# retirement at most 47 objects and 16 KB.
echo "==> placement golden matrix + Result ownership (race)"
run_guard 'TestGoldenPlacements|TestGoldenReconfigure|TestResultSharesNoScratchMemory|TestCoreOverflowReasonDeterministic|TestAdmitPinningInvariant|TestReplacePinningInvariant|TestRetirePinningInvariant|TestReconfigureCombinedDelta|TestPinHistogramCountsCarriedSubgroups|TestReconfigureEnforcesTailLatency|TestNegativeHeadroomRefused|TestSwitchTablesMatchReference|TestTemplateSubgroupsMatchReference|TestRateLPMatchesFullWidth|TestChainPrepExtensionMatchesFresh|TestReconfigureAfterInfeasibleMatchesFresh|TestConcurrentReconfigureInOneFamily|TestFamilyScratchAcrossSchemes' \
  -race -count=1 ./internal/placer
run_guard 'TestCompileCachedMatchesCold|TestCompileCacheProbeMatchesCompile' -race -count=1 ./internal/pisa
run_guard 'TestEvaluateCandidateSteadyStateAllocs|TestStageCheckMissAllocs|TestReconfigureCostFlatInRetiredSlots' -count=1 ./internal/placer

# One install path: Compile is Apply's install half run onto an empty
# deployment. Over chains 1-5 at three deltas on 4, 16 and 64 servers and the
# SmartNIC rack, by every scheme, it must stand up what the separate install
# sequence it replaced stood up (compile_reference_test.go), at no more
# allocations than it (1 % slack); a result with a retired slot must compile
# and verify; and every lemur Deploy must compile once, into fresh state,
# after refusing a negative admission headroom.
echo "==> one install path (compile oracle, allocation guard, retired slot, one compile per Deploy)"
run_guard 'TestCompileMatchesReference|TestCompileAllocsNoWorse' -count=1 ./internal/metacompiler
run_guard 'TestCompileRetiredSlot' -count=1 ./internal/runtime
run_guard 'TestDeployCompilesOncePerCall|TestNegativeHeadroomRefused' -count=1 .

# An operator op costs what it changes. lemurd parses a desired-state
# document chain block by chain block and keeps the previous document's
# parse of every unchanged block: the verdict on every FuzzChainSpec seed and
# its mutations must be the whole-document parse's (testdata/
# seed_errors.golden) with a warm cache and a cold one, a block-by-block
# parse must never accept what Parse rejects, and no chain graph may run in
# two slots. Compile and Apply render no code: artifacts render on request
# from the live deployment. After random admit/retire/fail sequences the
# render must be testdata/artifacts.golden's (recorded from the incremental
# renderer it replaced), two renders and four concurrent ones must be
# deep-equal, a render before a run must not change it, `lemur -emit` must
# print the same report twice, in file-name order, and Compile and Apply
# must still refuse what a render could not emit before they write. A
# one-chain admission must cost SetSpec, and Apply, within ten objects at 5
# and at 60 live chains.
echo "==> per-chain reuse (parse cache, artifacts on request, live-chain cost)"
run_guard 'TestSetSpecErrorsWarmMatchCold|TestSetSpecReusesUnchangedChains|TestNoGraphInTwoSlots' -race -count=1 ./internal/daemon
run_guard 'TestBlocksSplit|TestParseByBlocksMatchesParse' -race -count=1 ./internal/nfspec
run_guard 'TestApplyArtifactsGolden|TestArtifactsReadOnly|TestCompileRefusesWhatCannotRender|TestApplyRefusesWhatCannotRender' -race -count=1 ./internal/metacompiler
run_guard 'TestSimulateIgnoresArtifacts' -count=1 ./internal/runtime
run_guard 'TestEmitDeterministic' -count=1 ./cmd/lemur
run_guard 'TestSetSpecAdmitCostFlatInLiveChains' -count=1 ./internal/daemon
run_guard 'TestApplyAdmitCostFlatInLiveChains' -count=1 ./internal/metacompiler
fuzz_smoke FuzzParseBlocks ./internal/nfspec

# Placement cost guard: the Optimal solve on the benchmark fixture must stay
# under its alloc ceilings — per solve and per evaluated combo — and its
# wall-clock ceiling (~2x headroom over baseline), so a pruning, binder or
# evaluation-scratch regression fails here instead of doubling solve time.
echo "==> optimal placement cost guard"
run_guard 'TestPlaceOptimalCostGuard' -count=1 .

# The evaluation: every §5 table and figure rendered by
# experiments.Runner.WritePaper to internal/experiments/testdata/paper.golden,
# and every sweep beyond the paper to beyond.golden, byte for byte, whole at
# Parallel 1 and section by section at 4; every section WritePaper accepts
# belongs to one of the two; and profiling refuses a run count below one
# (profile and Table 4).
echo "==> paper and beyond goldens, profiling run count"
run_guard 'TestPaperGolden|TestBeyondGolden|TestEverySectionPinned|TestTable4RejectsNonPositiveRuns' -count=1 ./internal/experiments
run_guard 'TestProfileRejectsNonPositiveRuns' -count=1 ./internal/profile

# Benchmark smoke: one iteration of the candidate-evaluation
# micro-benchmark proves it still compiles and runs.
echo "==> benchmark smoke"
go test -run '^$' -bench 'BenchmarkEvaluateCandidate' -benchtime 1x -benchmem ./internal/placer

# The repository benchmark (bench/, a module of its own that root ./... does
# not reach): vet and test it against this tree, then run every workload
# BENCHMARK.json declares for one second. The last line of a run is its JSON
# result; it must report every output checked and no failed operation. Host
# times are advisory on a shared box and are not compared; allocations per
# packet on sim_frame_path repeat to a fraction of a percent, so that count
# is held below 0.02 (0.0020 measured; one buffer per VLAN packet is 0.09),
# and its heap bytes per packet below 2 (0.33 measured; raw delay samples
# pre-sized at 8 B a packet, a dispatch table over the whole SPI<<8|SI key
# space and a QueueCap-long ring per subgroup were 10.4). Heap bytes per
# packet on sim_stateful_hit repeat to four digits and are held below 6
# (1.45 measured; the raw delay samples are 15.3, regenerating the warm
# deployment's flow schedules on every run 380). Heap objects per cell on ctl_place_fleet
# repeat to five digits and are held below 1600 (1346 measured; a scratch
# per candidate slot is 1729, a candidate's dependency lists as heap slices
# of their own 8458). Heap bytes per op on ctl_reconcile are held below
# 65000 (55.7 K measured; a text render per Compile and Apply is 75.7 K, a
# chain prep copied and an evaluation scratch built per placer call 124 K,
# a whole-document parse and a full artifact render per op on top of them
# 295 K, and a rate LP with a column per slot ever admitted 508 K). Heap
# bytes per cell on ctl_place_fleet are held below 225000 (201 K measured; a
# hash stored per flow-table entry and a generator built per verified chain
# are 239 K, a text render per Compile 288 K, an evaluation scratch per
# candidate slot, warmed per variant, 376 K, and on top of it a flow-table
# arena that doubles and copies, an ACL that materialises its 1 024
# synthetic rules and a P4 render that clones each library program 474 K),
# heap bytes per packet on sim_failover_steps below 38 (33.8 measured; a
# hash stored per flow-table entry is 42.4, the raw delay samples 63.2, with
# the doubling arena 79.7), and on sim_stateful_churn below 290 (268.8
# measured; a hash stored per flow-table entry is 304.8).
# counted_below WORKLOAD METRIC LIMIT HINT LAST: the metric in a run's JSON
# result line must be present and below LIMIT.
counted_below() {
  local w=$1 metric=$2 limit=$3 hint=$4 v
  v=$(sed -n 's/.*"'"$metric"'":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$5")
  if [ -z "$v" ] || ! awk -v v="$v" -v l="$limit" 'BEGIN { exit !(v < l) }'; then
    echo "ci: $w $metric = '${v}', want < ${limit} (${hint})" >&2
    return 1
  fi
  echo "$w $metric ${v} (< ${limit})"
}

echo "==> benchmark module (cd bench && go vet . && go test .)"
(cd bench && go vet . && go test .)
workloads=$(awk '/"workloads"/ { on = 1 }
  on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
  on && /\]/ { exit }' BENCHMARK.json)
if [ -z "$workloads" ]; then
  echo "ci: BENCHMARK.json declares no workloads" >&2
  exit 1
fi
for w in $workloads; do
  echo "==> benchmark smoke: $w (seed 1, 1 s)"
  last=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  if ! grep -q '"correct":true' <<<"$last" || ! grep -q '"failed":0[,}]' <<<"$last"; then
    echo "ci: benchmark workload $w did not finish correct with failed=0:" >&2
    echo "$last" | cut -c1-400 >&2
    exit 1
  fi
  case $w in
    sim_frame_path)
      counted_below "$w" allocs_per_work 0.02 'a per-packet allocation on the frame path?' "$last"
      counted_below "$w" alloc_bytes_per_work 2 'delay samples per packet, a key-space dispatch table or QueueCap rings up front again?' "$last"
      ;;
    sim_stateful_hit) counted_below "$w" alloc_bytes_per_work 6 'a warm run rebuilding its flow schedules or frame buffers, or raw delay samples again?' "$last" ;;
    sim_stateful_churn) counted_below "$w" alloc_bytes_per_work 290 'a hash stored per table entry again?' "$last" ;;
    sim_failover_steps) counted_below "$w" alloc_bytes_per_work 38 'a hash stored per table entry again, a flow-table arena that copies itself to grow, or raw delay samples?' "$last" ;;
    ctl_place_fleet)
      counted_below "$w" allocs_per_work 1600 'a scratch per candidate slot, or per-candidate dependency lists back on the heap?' "$last"
      counted_below "$w" alloc_bytes_per_work 225000 'a hash stored per table entry or a generator per verified chain again, or a text render per Compile/Apply?' "$last"
      ;;
    ctl_reconcile) counted_below "$w" alloc_bytes_per_work 65000 'a text render per Compile/Apply again?' "$last" ;;
  esac
done

echo "ci: all checks passed"
