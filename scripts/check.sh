#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, and the full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast when the toolchain predates the module's go directive — without
# this the run dies later with a cryptic parse or vet error instead of
# naming the real problem.
mod_go=$(awk '/^go /{print $2; exit}' go.mod)
tool_go=$(go env GOVERSION | sed 's/^go//')
if [[ "$(printf '%s\n%s\n' "$mod_go" "$tool_go" | sort -V | head -1)" != "$mod_go" ]]; then
    echo "go toolchain $tool_go predates go.mod's required go $mod_go" >&2
    exit 1
fi

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...

# The benchmark is a nested module, so `go test ./...` above skips it. Vet
# and test it here: a change to the internal API it compiles against
# (opt.PassStats, pipeline.Config.CompileObserved, core.Compilation) must
# fail this gate, not the next benchmark run.
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test -short ./...)

# The campaign layer is the only concurrent code: re-run the scheduler,
# harness, and corpus suites under the race detector (the metrics registry
# and event log are exercised by the corpus suite's resume test), plus the
# monitoring server, run-history, and service-mode job-engine layers that
# read campaign state while it mutates.
go test -race ./internal/sched ./internal/harness ./internal/corpus \
    ./internal/metrics ./internal/monitor ./internal/history \
    ./internal/service ./internal/span ./internal/remark ./internal/seqlog

# Resume fuzz smoke: arbitrary prior bytes through both sequenced streams'
# resume path (the event log and the span trace). The committed seed corpus
# (internal/seqlog/testdata/fuzz/FuzzResume) already runs in `go test`
# above; this bounded run explores beyond it.
go test -run '^$' -fuzz '^FuzzResume$' -fuzztime 10s ./internal/seqlog

# Service smoke gate: build dce-serve and drive it with the load-test
# client — concurrent submissions against a tiny queue must produce 429s
# with Retry-After, every accepted job must report byte-identically to an
# in-process campaign (zero lost findings), and SIGTERM must drain to a
# clean exit 0.
serve_bin=$(mktemp -d)/dce-serve
trap 'rm -rf "$(dirname "$serve_bin")"' EXIT
go build -o "$serve_bin" ./cmd/dce-serve
go run ./scripts/loadtest.go -bin "$serve_bin"

# Telemetry overhead smokes: each sink's instrumented arm ("on") must stay
# near its uninstrumented arm ("off"). Each row names the benchmark, the
# sink, its nominal cost, and its gate (the on/off wall-time ratio). The
# gates are lenient because shared CI machines add noise that dwarfs the
# real cost; each sink is still run, reported, and gated on its own.
#   metrics: a live registry threaded through every layer of the unit.
#   monitor: a campaign with the live HTTP server bound and polled, against
#            the server-less metered unit.
#   span:    a campaign recording its full span timeline.
#   remark:  a campaign with -remarks (every pass emitting applied/missed
#            remarks, the collector reducing them to chains) costs ~10% on
#            this small fixture; the gate bounds drift on top of that. The
#            remarks-off case is the real zero-cost claim: it shares the
#            "off" arm with the bare pipeline, and the emission seam there is
#            one pointer comparison per decision.
overhead_gates=(
    "BenchmarkMetricsOverhead|metrics|budget ~5%|1.25"
    "BenchmarkMonitorOverhead|monitor|budget ~5%|1.25"
    "BenchmarkSpanOverhead|span|budget ~3%|1.25"
    "BenchmarkRemarkOverhead|remark|nominal ~10%|1.35"
)
for row in "${overhead_gates[@]}"; do
    IFS='|' read -r bench sink budget gate <<<"$row"
    go test -run '^$' -bench "$bench" -benchtime 2s . | awk -v bench="$bench" -v sink="$sink" -v budget="$budget" -v gate="$gate" '
        index($1, bench "/off") == 1 { off = $3 }
        index($1, bench "/on") == 1  { on = $3 }
        END {
            if (off == 0 || on == 0) { print sink " overhead bench did not run" > "/dev/stderr"; exit 1 }
            ratio = on / off
            printf "%s overhead: %.1f%% (%s, gate %.0f%%)\n", sink, (ratio - 1) * 100, budget, (gate - 1) * 100
            if (ratio > gate) { print sink " overhead exceeds the gate" > "/dev/stderr"; exit 1 }
        }'
done

# Allocation-regression gate: allocs/op and B/op of the standard compile
# unit must each stay within 10% of the recorded baseline
# (scripts/alloc-baseline.txt). Unlike wall time, allocation counts and
# bytes are deterministic for the fixed benchmark seed, so this catches
# churn regressions (a pass reintroducing per-function table allocation
# instead of taking the pipeline's scratch, say) that timing gates would
# hide in noise. Bytes are gated as well as counts because bytes are what
# drive the collector's work.
allocs_base=$(awk '$1 == "allocs/op" { print $2 }' scripts/alloc-baseline.txt)
bytes_base=$(awk '$1 == "B/op" { print $2 }' scripts/alloc-baseline.txt)
go test -run '^$' -bench 'BenchmarkUnitCompile$' -benchmem -benchtime 5x . | awk -v abase="$allocs_base" -v bbase="$bytes_base" '
    /BenchmarkUnitCompile/ {
        for (i = 1; i < NF; i++) {
            if ($(i+1) == "allocs/op") allocs = $i
            if ($(i+1) == "B/op") bytes = $i
        }
    }
    END {
        if (allocs == 0 || bytes == 0) { print "unit compile bench did not run" > "/dev/stderr"; exit 1 }
        if (abase == 0 || bbase == 0) { print "scripts/alloc-baseline.txt lacks an allocs/op or B/op line" > "/dev/stderr"; exit 1 }
        printf "unit compile allocations: %d/op (baseline %d, gate +10%%)\n", allocs, abase
        printf "unit compile bytes: %d B/op (baseline %d, gate +10%%)\n", bytes, bbase
        bad = 0
        if (allocs / abase > 1.10) { print "allocs/op regressed beyond the gate" > "/dev/stderr"; bad = 1 }
        if (bytes / bbase > 1.10) { print "B/op regressed beyond the gate" > "/dev/stderr"; bad = 1 }
        if (bad) { print "if intentional, re-record scripts/alloc-baseline.txt" > "/dev/stderr"; exit 1 }
    }'

# Parallel scaling gate: the scheduler must buy real throughput, not just
# pass the determinism tests. Requires ≥4 CPUs — with fewer, the workers
# time-slice the same cores and no wall-clock speedup is physically
# possible, so the gate is skipped (the determinism and race suites above
# still exercise the parallel paths).
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [[ "$ncpu" -ge 4 ]]; then
    go test -run '^$' -bench 'BenchmarkCampaignParallel/(j1|j4)$' -benchtime 3x . | awk '
        /BenchmarkCampaignParallel\/j1/ { j1 = $3 }
        /BenchmarkCampaignParallel\/j4/ { j4 = $3 }
        END {
            if (j1 == 0 || j4 == 0) { print "parallel campaign bench did not run" > "/dev/stderr"; exit 1 }
            speedup = j1 / j4
            printf "campaign -j 4 speedup: %.2fx (gate 1.5x)\n", speedup
            if (speedup < 1.5) { print "parallel campaign speedup below the gate" > "/dev/stderr"; exit 1 }
        }'
else
    echo "campaign -j 4 speedup gate skipped: only $ncpu CPU(s) available (need >= 4)"
fi
