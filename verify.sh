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

go vet ./...
go build ./...
go test ./...
go test -race ./internal/service/ ./internal/core/ ./internal/candcache/ ./internal/clock/ ./internal/difftest/ ./internal/trace/ ./internal/ops/ ./internal/metrics/ ./internal/workpool/ ./internal/faultinject/ ./internal/chaostest/ ./internal/store/ ./internal/graph/ ./internal/spig/ ./internal/intset/ ./internal/slo/ ./internal/fleetsim/ ./internal/rpcstore/
go test -race -run 'TestMutationStressUnderRace|TestMutationChaos' ./internal/store/ ./internal/chaostest/
# Allocation budgets on the verify hot path (pooled VF2, SPIG scratch,
# bitset intersection) — must run WITHOUT -race: the detector's shadow
# allocations would trip the pinned budgets, so these tests self-skip there.
go test -run 'AllocBudget' ./internal/graph/ ./internal/spig/ ./internal/intset/
sh scripts/cover.sh
# Nothing above may write into the tree: a dirty checkout after the gate
# means a test recorded something.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	test -z "$(git status --porcelain)"
fi
