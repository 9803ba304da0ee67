#!/usr/bin/env bash
# ring-demo.sh — boots 3 escrow-enabled chronosd replicas in one fleet and
# checks, out of process, what the fleet does:
#   1. every replica plans the requests it receives itself: the same job
#      sent through each replica is answered identically by that replica,
#      and no plan request ever reaches a peer;
#   2. one trace ID spans an escrow lease call: an admit with a caller-chosen
#      X-Chronosd-Trace-Id sent to a replica that does not own the tenant's
#      pool shows up in that replica's log (with its escrow span) and in the
#      pool owner's log of the lease call;
#   3. heartbeat membership: a SIGKILLed replica is evicted by both
#      survivors, which keep serving, and is re-admitted when it restarts;
#   4. lease reclamation: a lease planted at the tenant's pool owner is
#      reclaimed from the WAL when that owner is SIGKILLed and restarted
#      from its data dir.
# Also used as the CI fleet smoke step (make ring-demo).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE="${RING_DEMO_PORT_BASE:-18080}"
BIN="$(mktemp -d)/chronosd"
echo "== building chronosd =="
go build -o "$BIN" ./cmd/chronosd

PORTS=($((PORT_BASE + 1)) $((PORT_BASE + 2)) $((PORT_BASE + 3)))
PEERS=""
for p in "${PORTS[@]}"; do
  PEERS="${PEERS:+$PEERS,}http://127.0.0.1:$p"
done

LOG_DIR="$(mktemp -d)"
DATA_DIR="$(mktemp -d)"
TENANTS="$LOG_DIR/tenants.json"
cat > "$TENANTS" <<'EOF'
{"tenants": [{"name": "demo", "budget": 100000, "theta": 0.0001, "unitPrice": 1}]}
EOF
declare -A PID_OF
cleanup() {
  for p in "${!PID_OF[@]}"; do kill "${PID_OF[$p]}" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$(dirname "$BIN")" "$LOG_DIR" "$DATA_DIR"
}
trap cleanup EXIT

# start_replica <port> <logfile>: one escrow-enabled fleet member with a
# per-port durable data dir. The short lease TTL keeps the reclamation
# demonstration below fast; the fast heartbeat keeps the eviction and
# re-admission demonstration fast.
start_replica() {
  local p="$1" log="$2"
  "$BIN" -addr "127.0.0.1:$p" -self "http://127.0.0.1:$p" -peers "$PEERS" \
    -tenants "$TENANTS" -escrow -data-dir "$DATA_DIR/$p" \
    -escrow-lease-ttl 2s \
    -heartbeat-interval 500ms -suspect-after 3 2>"$log" &
  PID_OF[$p]=$!
}

wait_healthy() {
  local p="$1"
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$p/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: replica on port $p never became healthy"
  exit 1
}

# Each replica's structured JSON logs go to a per-port file so the trace
# propagation check below can grep a specific replica's view of a request.
echo "== starting 3 replicas (ring: $PEERS; logs in $LOG_DIR) =="
for p in "${PORTS[@]}"; do
  start_replica "$p" "$LOG_DIR/$p.log"
done
for p in "${PORTS[@]}"; do
  wait_healthy "$p"
done

BODY='{"job":{"tasks":100,"deadline":3600,"tmin":40,"beta":1.6,"tauEst":300,"tauKill":600},"econ":{"theta":0.0001,"unitPrice":1}}'

# plan_count <port>: the replica's count of answered /v1/plan requests.
plan_count() {
  curl -sf "http://127.0.0.1:$1/metrics" \
    | awk '$1 == "chronosd_requests_total{endpoint=\"/v1/plan\",code=\"200\"}" {print $2}'
}

# wait_log <file> <pattern>: wait up to 10s for a structured log line.
wait_log() {
  for _ in $(seq 1 50); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.2
  done
  echo "FAIL: $(basename "$1") never logged '$2'"
  exit 1
}

# --- 1. every replica plans locally -------------------------------------------
echo "== the same job through every replica, twice =="
PLAN=""
for p in "${PORTS[@]}"; do
  R1="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$BODY" "http://127.0.0.1:$p/v1/plan")"
  R2="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$BODY" "http://127.0.0.1:$p/v1/plan")"
  echo "   :$p $R1"
  grep -q '"cached":false' <<<"$R1" \
    || { echo "FAIL: first plan on :$p came from a cache (it was never asked before)"; exit 1; }
  grep -q '"cached":true' <<<"$R2" \
    || { echo "FAIL: repeat plan on :$p missed its own cache"; exit 1; }
  P="$(grep -o '"plan":{[^}]*}' <<<"$R1")"
  [ -z "$PLAN" ] && PLAN="$P"
  [ "$P" = "$PLAN" ] \
    || { echo "FAIL: :$p planned $P, another replica planned $PLAN"; exit 1; }
done
for p in "${PORTS[@]}"; do
  n="$(plan_count "$p")"
  [ "${n:-0}" = "2" ] \
    || { echo "FAIL: :$p answered ${n:-0} plans, want exactly the 2 sent to it"; exit 1; }
done
echo
echo "OK: every replica planned its own requests, identically, with no peer hop"

# --- 2. one trace ID across an escrow lease call ------------------------------
# The pool owner of tenant 'demo' answers a lease release for an unknown
# holder with 200 (a no-op); every other replica answers 409 not_owner.
PROBE='{"tenant":"demo","holder":"http://ring-demo-probe.invalid:1","release":true}'
POOL_OWNER_PORT=""
for p in "${PORTS[@]}"; do
  code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d "$PROBE" \
    "http://127.0.0.1:$p/v1/escrow/lease")"
  [ "$code" = "200" ] && POOL_OWNER_PORT="$p"
done
[ -n "$POOL_OWNER_PORT" ] \
  || { echo "FAIL: no replica owns tenant 'demo'"; exit 1; }
HOLDER_PORT=""
for p in "${PORTS[@]}"; do
  [ "$p" != "$POOL_OWNER_PORT" ] && { HOLDER_PORT="$p"; break; }
done
TRACE_ID="ring-demo-$$"
ADMIT='{"tenant":"demo","job":{"tasks":100,"deadline":3600,"tmin":40,"beta":1.6,"tauEst":300,"tauKill":600}}'

echo
echo "== traced admit via :$HOLDER_PORT (pool owner :$POOL_OWNER_PORT, trace ID $TRACE_ID) =="
HDRS_T="$(mktemp)"
curl -sf -D "$HDRS_T" -X POST -H 'Content-Type: application/json' \
  -H "X-Chronosd-Trace-Id: $TRACE_ID" -d "$ADMIT" "http://127.0.0.1:$HOLDER_PORT/v1/admit" \
  | grep -q '"admitted":true' || { echo "FAIL: traced admit rejected"; exit 1; }
ECHOED="$(awk -F': ' 'tolower($1)=="x-chronosd-trace-id" {gsub(/\r/,"",$2); print $2}' "$HDRS_T")"
rm -f "$HDRS_T"
[ "$ECHOED" = "$TRACE_ID" ] \
  || { echo "FAIL: response echoed trace ID '$ECHOED', want '$TRACE_ID'"; exit 1; }
for port in "$HOLDER_PORT" "$POOL_OWNER_PORT"; do
  wait_log "$LOG_DIR/$port.log" "\"traceId\":\"$TRACE_ID\""
  echo "   replica :$port logged the trace:"
  grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$port.log" | head -1 | sed 's/^/     /'
done
grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$HOLDER_PORT.log" | grep -q '"escrow"' \
  || { echo "FAIL: the holder's log line has no escrow span"; exit 1; }
grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$POOL_OWNER_PORT.log" | grep -q '"route":"/v1/escrow/lease"' \
  || { echo "FAIL: the pool owner did not log the traced lease call"; exit 1; }
echo
echo "OK: trace $TRACE_ID spans the escrow lease call (:$HOLDER_PORT -> :$POOL_OWNER_PORT)"

# --- 3. eviction and re-admission ---------------------------------------------
# SIGKILL a replica that does not own the pool: both survivors' heartbeat
# monitors evict it within the suspect window and keep planning; restarted
# on its old port, it is re-admitted.
VICTIM_PORT="$HOLDER_PORT"
SURVIVORS=()
for p in "${PORTS[@]}"; do
  [ "$p" != "$VICTIM_PORT" ] && SURVIVORS+=("$p")
done
echo
echo "== SIGKILL :$VICTIM_PORT =="
kill -9 "${PID_OF[$VICTIM_PORT]}"
unset "PID_OF[$VICTIM_PORT]"
for p in "${SURVIVORS[@]}"; do
  wait_log "$LOG_DIR/$p.log" 'ring member suspected, evicting'
  curl -sf -X POST -H 'Content-Type: application/json' -d "$BODY" "http://127.0.0.1:$p/v1/plan" \
    | grep -q '"cached":true' || { echo "FAIL: survivor :$p stopped answering from its cache"; exit 1; }
done
echo "   both survivors evicted :$VICTIM_PORT and kept serving"

echo "== restarting :$VICTIM_PORT =="
start_replica "$VICTIM_PORT" "$LOG_DIR/$VICTIM_PORT.rejoin.log"
wait_healthy "$VICTIM_PORT"
for p in "${SURVIVORS[@]}"; do
  wait_log "$LOG_DIR/$p.log" 'ring member recovered, re-admitting'
done
echo
echo "OK: dead member evicted by both survivors, re-admitted after restart"

# --- 4. escrow: kill the pool owner, assert lease reclamation ----------------
# Real admits flow through the fleet (replicas that do not own the tenant
# lease escrow from the pool owner), then a deterministic lease is planted at
# the owner via the internal escrow API. The owner is then SIGKILLed mid-run
# — no graceful release, no final snapshot — and restarted from its data dir
# after the lease TTL. Boot replays the snapshot+WAL, finds the expired
# lease, and conservatively reclaims it: the log line is the proof.
echo
echo "== escrow: admits across the fleet (tenant 'demo') =="
for i in 1 2 3 4 5 6; do
  port="${PORTS[$((i % 3))]}"
  ADMIT_BODY="{\"tenant\":\"demo\",\"job\":{\"tasks\":$((90 + i)),\"deadline\":3600,\"tmin\":40,\"beta\":1.6,\"tauEst\":300,\"tauKill\":600}}"
  curl -sf -X POST -H 'Content-Type: application/json' -d "$ADMIT_BODY" \
    "http://127.0.0.1:$port/v1/admit" | grep -q '"admitted":true' \
    || { echo "FAIL: admit $i via :$port rejected"; exit 1; }
done

LEASE_BODY='{"tenant":"demo","holder":"http://ring-demo-holder.invalid:1","want":500}'
curl -sf -X POST -H 'Content-Type: application/json' -d "$LEASE_BODY" \
  "http://127.0.0.1:$POOL_OWNER_PORT/v1/escrow/lease" | grep -q '"granted":500' \
  || { echo "FAIL: pool owner :$POOL_OWNER_PORT did not grant the planted lease"; exit 1; }
echo "   planted a 500 machine-second lease at pool owner :$POOL_OWNER_PORT"

echo "== SIGKILL the pool owner (:$POOL_OWNER_PORT), wait out the 2s lease TTL =="
kill -9 "${PID_OF[$POOL_OWNER_PORT]}"
unset "PID_OF[$POOL_OWNER_PORT]"
sleep 3

echo "== restarting the owner from $DATA_DIR/$POOL_OWNER_PORT =="
start_replica "$POOL_OWNER_PORT" "$LOG_DIR/$POOL_OWNER_PORT.restart.log"
wait_healthy "$POOL_OWNER_PORT"

for _ in $(seq 1 20); do
  grep -q 'escrow lease reclaimed at boot' "$LOG_DIR/$POOL_OWNER_PORT.restart.log" && break
  sleep 0.1
done
grep -q 'escrow lease reclaimed at boot' "$LOG_DIR/$POOL_OWNER_PORT.restart.log" \
  || { echo "FAIL: restarted owner never reclaimed the orphaned lease"; exit 1; }
echo "   reclaimed:"
grep 'escrow lease reclaimed at boot' "$LOG_DIR/$POOL_OWNER_PORT.restart.log" \
  | head -3 | sed 's/^/     /'

# The restarted owner's pool must reflect the pre-crash debits (level came
# back from snapshot+WAL, not from the config default).
LEVEL="$(curl -sf "http://127.0.0.1:$POOL_OWNER_PORT/metrics" \
  | awk '$1 == "chronosd_tenant_budget_remaining{tenant=\"demo\"}" {print $2}')"
echo "   restored pool level: ${LEVEL:-?} / 100000 machine-seconds"

echo
echo "OK: owner crash + restart reclaimed the orphaned escrow lease from the WAL"
