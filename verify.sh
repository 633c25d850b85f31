#!/bin/sh
# One-shot verification gate: static checks, full build, full test suite,
# and a race-detector pass over the concurrent layers.
#
#   ./verify.sh            run the full gate
#   ./verify.sh covreport  run only the coverage ratchet (scripts/cover.sh)
set -eux

if [ "${1:-}" = "covreport" ]; then
	exec sh scripts/cover.sh
fi

# Formatting is part of the gate: gofmt must list no file.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify.sh: gofmt -l lists: $unformatted" >&2
	exit 1
fi
go vet ./...
# The slow-tagged differential sweep drives Run and RunMutation; vet it so
# it keeps compiling although plain `go test` never builds it.
go vet -tags slow ./internal/difftest/
go build ./...
# The service is built over a store and knows no layout: it must not reach
# the remote store's package.
if go list -deps ./internal/service | grep -qx 'prague/internal/rpcstore'; then
	echo "verify.sh: internal/service depends on internal/rpcstore" >&2
	exit 1
fi
go test ./...
go test -race ./internal/service/ ./internal/core/ ./internal/candcache/ ./internal/clock/ ./internal/difftest/ ./internal/trace/ ./internal/ops/ ./internal/metrics/ ./internal/workpool/ ./internal/faultinject/ ./internal/chaostest/ ./internal/store/ ./internal/graph/ ./internal/spig/ ./internal/intset/ ./internal/slo/ ./internal/rpcstore/ ./internal/prefilter/
go test -race -run 'TestMutationStressUnderRace|TestMutationChaos' ./internal/store/ ./internal/chaostest/
# Allocation budgets on the hot paths (the pool hand-off, pooled VF2,
# canonical codes, step connectivity, SPIG scratch, bitset intersection,
# the prefilter count check, the similarity step, the sharded probe, the wire
# codec, the latency histogram every step and Run observes into) — must run
# WITHOUT -race: the detector's shadow allocations would trip the pinned
# budgets, so these tests self-skip there.
go test -run 'AllocBudget' ./internal/workpool/ ./internal/graph/ ./internal/query/ ./internal/spig/ ./internal/intset/ ./internal/prefilter/ ./internal/core/ ./internal/rpcstore/ ./internal/metrics/
sh scripts/cover.sh
# Nothing above may write into the tree: a dirty checkout after the gate
# means a test recorded something.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	test -z "$(git status --porcelain)"
fi
# No benchmark binary, shard server or CLI (scripts/rpcsmoke.sh starts one)
# may outlive the gate: a process left running holds a port and a CPU, and
# skews whatever is measured next.
for p in pragbench shardserver praguecli; do
	if pgrep -x "$p" >/dev/null; then
		echo "verify.sh: a $p process is still running" >&2
		exit 1
	fi
done
