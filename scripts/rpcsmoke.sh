#!/usr/bin/env bash
# rpcsmoke.sh boots a 2-shard-server topology, drives a scripted praguecli
# session against it over TCP, and greps the golden summary lines — the
# distributed-serving end-to-end smoke (CI: rpc-smoke job).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${RPCSMOKE_PORT1:-7841}
PORT2=${RPCSMOKE_PORT2:-7842}
DBSIZE=120

BIN=$(mktemp -d)
P1=""
P2=""
cleanup() {
  status=$?
  # Nothing outlives the script: SIGTERM the servers, give each up to 5 s to
  # exit, SIGKILL whichever has not, reap both, and fail if a pid survives.
  for p in $P1 $P2; do
    kill "$p" 2>/dev/null || true
  done
  for p in $P1 $P2; do
    for _ in $(seq 1 50); do
      kill -0 "$p" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
  done
  for p in $P1 $P2; do
    if kill -0 "$p" 2>/dev/null; then
      echo "rpcsmoke: FAIL — server pid $p is still running"
      status=1
    fi
  done
  rm -rf "$BIN"
  exit "$status"
}
trap cleanup EXIT

echo "rpcsmoke: building binaries"
go build -o "$BIN/shardserver" ./cmd/shardserver
go build -o "$BIN/praguecli" ./cmd/praguecli

echo "rpcsmoke: booting 2 shard servers (shards 0 and 1 of 2, $DBSIZE graphs each)"
"$BIN/shardserver" -listen "127.0.0.1:$PORT1" -shards 2 -serve 0 -generate $DBSIZE >"$BIN/s1.log" 2>&1 &
P1=$!
"$BIN/shardserver" -listen "127.0.0.1:$PORT2" -shards 2 -serve 1 -generate $DBSIZE >"$BIN/s2.log" 2>&1 &
P2=$!

for port in "$PORT1" "$PORT2"; do
  up=""
  for _ in $(seq 1 150); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- || true
      up=1
      break
    fi
    sleep 0.2
  done
  if [ -z "$up" ]; then
    echo "rpcsmoke: FAIL — server on port $port never came up"
    cat "$BIN"/s*.log
    exit 1
  fi
done
echo "rpcsmoke: servers up"

# A 3-edge path, the suggested-deletion probe batch, a deletion (Modify keeps
# the memoized candidate lists of every fragment class) and a Run. Then the
# session turns to similarity search, grows to 5 edges (σ = 3, so the window
# is levels 4…2 and level 1 rides along with the step's batch) and deletes
# e1: that deletion reads only memoized lists, so the metrics printed around
# it show the same shard_rpc_calls.
out=$(timeout 120 "$BIN/praguecli" -connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2" <<'EOF'
node C
node C
node C
node O
edge 0 1
edge 1 2
edge 2 3
suggest
delete 3
run
sim
edge 2 3
node N
edge 3 4
node C
edge 4 5
metrics
delete 1
metrics
run
shards
quit
EOF
)
echo "$out"

check() {
  if ! echo "$out" | grep -Eq "$1"; then
    echo "rpcsmoke: FAIL — missing golden line: $1"
    cat "$BIN"/s*.log
    exit 1
  fi
}
check "connected: 2 endpoints, 2 shards, $DBSIZE graphs"
check "step [0-9]+: status=(frequent|infrequent|similar)"
check "step 3: status=(frequent|infrequent|similar)"
check "suggestion: delete e[0-9]+ \(yields [0-9]+ exact candidates\)"
check "step 0: status=(frequent|infrequent|similar)"
check "[0-9]+ results \(SRT "
check "shard 0: 1/1 endpoints healthy"
check "shard 1: 1/1 endpoints healthy"

# The two metrics snapshots bracket the similarity-mode deletion.
calls=$(echo "$out" | grep -Eo '"shard_rpc_calls": *[0-9]+' | grep -Eo '[0-9]+$' || true)
if [ "$(echo "$calls" | grep -c .)" -ne 2 ]; then
  echo "rpcsmoke: FAIL — want 2 shard_rpc_calls readings, got: $calls"
  exit 1
fi
if [ "$(echo "$calls" | sort -u | grep -c .)" -ne 1 ]; then
  echo "rpcsmoke: FAIL — the similarity-mode deletion made shard calls:" $calls
  exit 1
fi
if [ "$(echo "$out" | grep -Ec "status=similar")" -lt 4 ]; then
  echo "rpcsmoke: FAIL — the session never reached similarity mode"
  exit 1
fi

echo "rpcsmoke: PASS"
