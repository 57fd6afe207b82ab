#!/usr/bin/env bash
# Docs gate: fail if README.md, ARCHITECTURE.md, OPERATIONS.md, EXPERIMENTS.md
# or DESIGN.md reference a CLI flag, a package symbol, or a test name that no
# longer exists in the tree. Grep-based on purpose — no build step, runs in ci.sh before the
# tests.
set -u
cd "$(dirname "$0")/.."

docs="README.md ARCHITECTURE.md OPERATIONS.md EXPERIMENTS.md DESIGN.md"
fail=0

# --- CLI flags -------------------------------------------------------------
# Every `-flag` token on a doc line invoking `cmd/<tool>`, and every
# backticked `` `-flag` `` mention, must be defined via the flag package in
# some cmd/ tool. Both the global flag.String style and the subcommand
# fs.String-on-a-FlagSet style (cmd/lemurd) count as definitions.
all_defined=$(grep -hoE '(flag|fs)\.[A-Za-z]+\("[a-z0-9-]+"' cmd/*/*.go |
	sed -E 's/.*"([a-z0-9-]+)"/\1/' | sort -u)

for tool in lemur lemur-bench lemur-profile lemurd; do
	defined=$(grep -hoE '(flag|fs)\.[A-Za-z]+\("[a-z0-9-]+"' cmd/$tool/*.go |
		sed -E 's/.*"([a-z0-9-]+)"/\1/' | sort -u)
	# "cmd/$tool " (trailing space) keeps cmd/lemur from matching lemur-bench.
	used=$(grep -hoE "cmd/$tool [^\`]*" $docs |
		grep -oE '(^| )-[a-z][a-z0-9-]*' | sed -E 's/^ ?-//' | sort -u)
	for f in $used; do
		if ! printf '%s\n' "$defined" | grep -qx "$f"; then
			echo "docs gate: flag -$f used with cmd/$tool in docs but not defined there"
			fail=1
		fi
	done
done

inline=$(grep -hoE '`-[a-z][a-z0-9-]*`' $docs | tr -d '`' | sed 's/^-//' | sort -u)
for f in $inline; do
	if ! printf '%s\n' "$all_defined" | grep -qx "$f"; then
		echo "docs gate: flag -$f mentioned in docs but defined by no cmd/ tool"
		fail=1
	fi
done

# --- Package symbols -------------------------------------------------------
# Backticked dotted references like `placer.Admit`, `pisa.ConservativeEstimate`
# or `metacompiler.Deployment.Rewire`: the identifier after the package name
# must appear in that package's sources. Unknown package prefixes (URLs,
# file names, field paths like rep.Churn) are skipped.
syms=$(grep -hoE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9]*(\.[A-Za-z0-9]+)*' $docs |
	tr -d '`' | sort -u)
for s in $syms; do
	pkg=${s%%.*}
	sym=$(printf '%s' "$s" | cut -d. -f2)
	if [ "$pkg" = lemur ]; then
		dir="."
	elif [ -d "internal/$pkg" ]; then
		dir="internal/$pkg"
	else
		continue
	fi
	if ! grep -qrE "(func|type|var|const)[^(]*[( ]$sym\b|func \([^)]*\) $sym\(|$sym [A-Za-z[*]|$sym\(\) " \
		--include='*.go' "$dir" && ! grep -qr "$sym" --include='*.go' "$dir"; then
		echo "docs gate: symbol $s referenced in docs but $sym not found in $dir"
		fail=1
	fi
done

# --- Test names ------------------------------------------------------------
# Backticked `TestXxx`/`FuzzXxx`/`BenchmarkXxx` references must exist (the
# capital after the prefix keeps `Testbed.Simulate` out).
tests=$(grep -hoE '`(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' $docs | tr -d '`' | sort -u)
for t in $tests; do
	if ! grep -qr "func $t(" --include='*_test.go' .; then
		echo "docs gate: test $t referenced in docs but no such function exists"
		fail=1
	fi
done

# --- CHANGES.md entry size -------------------------------------------------
# From PR 22 on, a PR's CHANGES.md entry (one line) stays under 4 096 bytes:
# the record says what changed and where to look, not the whole measurement.
long=$(LC_ALL=C awk 'match($0, /^- PR [0-9]+/) {
	n = substr($0, 6, RLENGTH - 5) + 0
	if (n >= 22 && length($0) > 4096) printf "PR %d (%d bytes) ", n, length($0)
}' CHANGES.md)
if [ -n "$long" ]; then
	echo "docs gate: CHANGES.md entries over 4096 bytes: $long"
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "docs gate: FAILED"
	exit 1
fi
echo "docs gate: OK"
