#!/usr/bin/env bash
# CI gate: vet, the docs gates, build, then the full test suite twice (under
# the race detector, and with coverage), held to the guard manifest, then
# fuzz and benchmark smokes. Run from the repo root. Any failure fails the
# script.
set -euo pipefail
cd "$(dirname "$0")"

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

# No production code that only tests call, no surface that no other package
# uses, and no state that nothing reads: a package-level name under
# internal/ or in the root package, exported or not, that no non-test file
# of the module or of bench/ uses; an exported one under internal/ that no
# non-test file of another package uses (an interface method, and a type
# named in the type of something another package uses, are exempt); and a
# struct field under internal/ that no non-test file reads must be gone,
# unexported or listed, with its reason, in tools/doccheck/testonly.txt. A
# listed name that is gone or no longer a finding fails too.
echo "==> test-only identifiers and unread fields (tools/doccheck -testonly)"
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

# Deletion guards. The evaluation harness lost its process-global defaults
# and the NF package its table-backend switch; none may come back outside a
# test file (a re-added frame counter that nothing reads is -testonly's to
# catch), and the map-backed reference tables (nf.*Ref, test-only since
# they moved to reference_test.go) must not be linked into any command.
echo "==> deleted-globals guard"
if grep -rn 'DefaultParallel\|DefaultVerifyPackets\|nf\.Impl\|TableReference' --include='*.go' internal cmd *.go | grep -v '_test\.go:'; then
  echo "ci: a deleted process-global switch is back in non-test code" >&2
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

# The test suite runs twice, uncached: every package under the race
# detector, then every package without it for coverage — where the
# allocation and wall-clock guards run, since the race detector changes what
# they measure (some skip under it). Both passes write test2json streams and
# keep their exit status, so that the guard check below prints every
# failure before the script fails. tools/doccheck/guards.txt names the guard
# tests, each with the pass it must have passed in: a guard renamed,
# deleted, skipped or failed fails the check.
echo "==> go test -race -count=1 -json ./..."
race_status=0
go test -race -count=1 -json ./... > /tmp/lemur-race.json || race_status=$?
echo "==> go test -count=1 -json -coverprofile ./..."
cover_status=0
go test -count=1 -json -coverprofile=/tmp/lemur-cover.out ./... > /tmp/lemur-cover.json || cover_status=$?
echo "==> guard tests (tools/doccheck -guards)"
go run ./tools/doccheck -guards tools/doccheck/guards.txt /tmp/lemur-race.json /tmp/lemur-cover.json
if [ "$race_status" -ne 0 ] || [ "$cover_status" -ne 0 ]; then
  echo "ci: go test exited ${race_status} under -race and ${cover_status} with -coverprofile" >&2
  exit 1
fi

# Coverage gate: total statement coverage must not regress below the
# recorded baseline (80.0% when this gate was added; the floor leaves a small
# margin for counter noise).
echo "==> coverage gate"
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

# Fuzz smoke: ten seconds of FuzzReplace exercises the incremental door's
# invariants (pinning, no-failure identity, combined retire/admit/fail
# deltas) beyond the seed corpus; FuzzPlan the one schedule grammar's
# parse/render round-trip and finite times and factors; FuzzFlowSchedule the arena flow-schedule
# round-trip (regeneration determinism, birth-order/hash consistency,
# replay-window equality against a brute-force liveness scan).
fuzz_smoke FuzzReplace ./internal/placer
fuzz_smoke FuzzPlan ./internal/chaos
fuzz_smoke FuzzFlowSchedule ./internal/trafficgen
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
# Ten seconds of FuzzChainSpec exercises the nfspec grammar — the slo block
# (tmin/tmax/dmax/d_max_p99 with unit suffixes and bad-value rejection),
# aggregates, NF args, and edges — beyond the seed corpus.
fuzz_smoke FuzzChainSpec ./internal/nfspec
# FuzzParseBlocks: lemurd's block-by-block parse against Parse on arbitrary
# documents.
fuzz_smoke FuzzParseBlocks ./internal/nfspec

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