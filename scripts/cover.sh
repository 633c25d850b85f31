#!/bin/sh
# Coverage ratchet: measure total statement coverage (short mode, so the
# long-running chaos and experiment suites stay out of the figure) and fail when
# it regresses more than 2 points below the committed baseline in
# .covbaseline. When coverage grows, raise the baseline in the same change.
set -eu
cd "$(dirname "$0")/.."

profile="${TMPDIR:-/tmp}/prague-cover.$$"
trap 'rm -f "$profile"' EXIT

go test -short -count=1 -coverprofile="$profile" ./... > /dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
baseline=$(cat .covbaseline)

echo "coverage: ${total}% (baseline ${baseline}%, tolerance -2.0)"
awk -v t="$total" -v b="$baseline" 'BEGIN {
	if (t + 2.0 < b) {
		printf "FAIL: coverage %.1f%% regressed more than 2 points below baseline %.1f%%\n", t, b
		exit 1
	}
	if (t > b + 2.0) {
		printf "note: coverage grew well past the baseline; raise .covbaseline to %.1f\n", t
	}
}'
