#!/usr/bin/env bash
# chaos_fleet.sh — the CI fleet self-healing drill: run a 3-process
# fleet (two -worker ranks, rank 1 under -supervise, plus a -frontend),
# put it under loadgen traffic, kill -9 the rank-1 worker process, and
# assert the degraded / recovery contract:
#
#   1. while the rank is dead, distributed queries answer 503 with a
#      Retry-After header;
#   2. the supervisor respawns the rank with a bumped incarnation and
#      catch-up re-replicates every graph byte-identically — including
#      one registered while the rank was dead;
#   3. the identical query then succeeds with the same value, proving
#      the degraded 503 was never cached.
set -euo pipefail

SEED=${SEED:-42}
BIN=${BIN:-$(mktemp -d)}
LOG=${LOG:-$BIN}
mkdir -p "$LOG"

go build -o "$BIN/camcd" ./cmd/camcd
go build -o "$BIN/loadgen" ./cmd/loadgen

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    # A stopped supervisor would hold SIGTERM pending forever.
    kill -CONT "$pid" 2>/dev/null || true
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_status() { # url path want_status
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$1$2")" = "$3" ]; then return 0; fi
    sleep 0.2
  done
  echo "chaos_fleet: $1$2 never answered $3" >&2
  return 1
}

MESH="127.0.0.1:18691,127.0.0.1:18692"
W0=http://127.0.0.1:18693
W1=http://127.0.0.1:18694
FE=http://127.0.0.1:18695

"$BIN/camcd" -worker -rank=0 -peers="$MESH" -epoch=11 -addr=127.0.0.1:18693 -workers=1 >"$LOG/camcd-w0.log" 2>&1 &
pids+=($!)
"$BIN/camcd" -worker -rank=1 -peers="$MESH" -epoch=11 -addr=127.0.0.1:18694 -workers=1 -supervise >"$LOG/camcd-w1.log" 2>&1 &
SUPERVISOR=$!
pids+=($SUPERVISOR)
wait_status "$W0" /readyz 200
wait_status "$W1" /readyz 200
"$BIN/camcd" -frontend -shards=127.0.0.1:18693,127.0.0.1:18694 -addr=127.0.0.1:18695 >"$LOG/camcd-fe.log" 2>&1 &
pids+=($!)
wait_status "$FE" /healthz 200

echo "=== chaos fleet 1/4: baseline distributed query ==="
python3 - <<'EOF' >"$BIN/ring.edges"
print(48, 48)
for i in range(48):
    print(i, (i + 1) % 48, 5)
EOF
curl -fsS -X POST --data-binary @"$BIN/ring.edges" "$FE/v1/graphs?name=chaos-ring" >/dev/null
BASELINE=$(curl -fsS -X POST -d '{"graph":"chaos-ring","algorithm":"mincut","seed":11}' "$FE/v1/query" | python3 -c 'import json,sys; print(json.load(sys.stdin)["value"])')
echo "baseline mincut = $BASELINE"
[ "$BASELINE" = "10" ] || { echo "chaos_fleet: baseline mincut $BASELINE != 10" >&2; exit 1; }

echo "=== chaos fleet 2/4: kill -9 rank 1 under load ==="
# Background traffic spanning the kill window; the dead window's 503s
# are expected, so tolerate up to half the requests failing.
"$BIN/loadgen" -target="$FE" -quick -seed="$SEED" -qps=10 -graphs=2 -graph-n=48 \
  -max-error-frac=0.5 -out="$BIN/BENCH_chaos_load.json" >"$LOG/loadgen.log" 2>&1 &
LOADGEN=$!
pids+=($LOADGEN)
sleep 1
WORKER_PID=$(pgrep -P "$SUPERVISOR" | head -1)
[ -n "$WORKER_PID" ] || { echo "chaos_fleet: no worker child under supervisor" >&2; exit 1; }
# Freeze the supervisor until the missed upload below has landed on the
# leader: its respawn would otherwise race the upload, and an upload
# that lands after the new rank has caught up is never replicated to it.
kill -STOP "$SUPERVISOR"
kill -9 "$WORKER_PID"
echo "killed worker pid $WORKER_PID (supervisor $SUPERVISOR)"

# While the rank is dead the leader fails distributed queries closed:
# 503 with Retry-After, never a cached success. Fresh seeds defeat the
# result cache — a cached success for an old seed is still correct and
# fine to serve degraded.
DEGRADED=0
for i in $(seq 1 100); do
  HDRS=$(curl -s -D - -o /dev/null -X POST -d "{\"graph\":\"chaos-ring\",\"algorithm\":\"mincut\",\"seed\":$((7000 + i))}" "$W0/v1/query")
  CODE=$(printf '%s' "$HDRS" | head -1 | awk '{print $2}')
  if [ "$CODE" = "503" ]; then
    printf '%s' "$HDRS" | grep -qi '^retry-after:' || { echo "chaos_fleet: degraded 503 lacks Retry-After" >&2; exit 1; }
    DEGRADED=1
    break
  fi
  sleep 0.1
done
[ "$DEGRADED" = "1" ] || { echo "chaos_fleet: leader never degraded to 503 after kill -9" >&2; exit 1; }
echo "degraded contract holds: 503 + Retry-After"

echo "=== chaos fleet 3/4: upload while the rank is dead, then recover ==="
python3 - <<'EOF' >"$BIN/missed.edges"
print(32, 32)
for i in range(32):
    print(i, (i + 1) % 32, 2)
EOF
curl -fsS -X POST --data-binary @"$BIN/missed.edges" "$W0/v1/graphs?name=chaos-missed" >/dev/null
kill -CONT "$SUPERVISOR"

wait_status "$W0" /readyz 200
wait_status "$W1" /readyz 200

echo "=== chaos fleet 4/4: verify re-replication + identical answers ==="
curl -fsS "$W0/v1/graphs" >"$BIN/graphs-w0.json"
curl -fsS "$W1/v1/graphs" >"$BIN/graphs-w1.json"
cmp "$BIN/graphs-w0.json" "$BIN/graphs-w1.json" || {
  echo "chaos_fleet: registries differ after catch-up" >&2
  diff "$BIN/graphs-w0.json" "$BIN/graphs-w1.json" >&2 || true
  exit 1
}
AFTER=$(curl -fsS -X POST -d '{"graph":"chaos-ring","algorithm":"mincut","seed":11}' "$FE/v1/query" | python3 -c 'import json,sys; print(json.load(sys.stdin)["value"])')
[ "$AFTER" = "$BASELINE" ] || { echo "chaos_fleet: post-recovery mincut $AFTER != baseline $BASELINE" >&2; exit 1; }
MISSED=$(curl -fsS -X POST -d '{"graph":"chaos-missed","algorithm":"mincut","seed":11}' "$W0/v1/query" | python3 -c 'import json,sys; print(json.load(sys.stdin)["value"])')
[ "$MISSED" = "4" ] || { echo "chaos_fleet: mincut on re-replicated graph $MISSED != 4" >&2; exit 1; }
INC=$(curl -fsS "$W0/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["fleet"]["peers"][0]["incarnation"])')
[ "$INC" -ge 2 ] || { echo "chaos_fleet: respawned rank incarnation $INC < 2" >&2; exit 1; }

wait "$LOADGEN" || { echo "chaos_fleet: loadgen exceeded the tolerated error fraction" >&2; exit 1; }
echo "chaos fleet: OK (baseline=$BASELINE recovered=$AFTER missed=$MISSED incarnation=$INC)"
