#!/bin/sh
# End-to-end serving smoke tests. Phases are selected by SMOKE_PHASES
# (space-separated); host and base port come from SMOKE_HOST/SMOKE_PORT:
#
#   single    train a model, boot sortinghatd, assert /healthz, cached
#             /v1/infer, /metrics, /debug/traces, /debug/pprof
#   degrade   reboot with -fault-spec, assert graceful degradation,
#             breaker trip on /healthz, and recovery after the probe
#   reload    boot with -model-version, POST /admin/reload a canary,
#             assert the swap, the cache purge, and re-warm
#   fleet     boot 2 replicas + 1 sortinghatgw (all with -trace-out),
#             assert sharded routing with disjoint per-replica caches, a
#             full cache-hit repeat batch through the gateway, one
#             gateway trace id shared by every process's trace sink, a
#             populated /debug/flight on gateway and replicas, and a
#             tracecat-stitched fleet timeline
#
# `make smoke` runs "single degrade reload"; `make smoke-fleet` runs
# "fleet" (CI runs them as separate jobs). POSIX sh + curl only.
set -eu

GO=${GO:-go}
HOST=${SMOKE_HOST:-127.0.0.1}
PORT=${SMOKE_PORT:-8099}
PHASES=${SMOKE_PHASES:-single degrade reload}
DIR=$(mktemp -d)
PIDS=""

cleanup() {
    for p in $PIDS; do
        if kill -0 "$p" 2>/dev/null; then
            kill "$p" 2>/dev/null || true
            wait "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

has_phase() {
    case " $PHASES " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
    esac
}

# stop_pid <pid>: graceful shutdown of one background daemon.
stop_pid() {
    kill "$1"
    wait "$1" 2>/dev/null || true
}

# wait_ready <base-url> <out-file>: poll /healthz until it answers.
wait_ready() {
    i=0
    until curl -fsS "$1/healthz" >"$2" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "smoke: FAIL - $1/healthz never came up" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# jint <file> <key>: first integer value of a JSON key, e.g.
# `jint healthz.json cache_entries`.
jint() {
    sed -n 's/.*"'"$2"'":\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

# wait_grep <pattern> <file>: poll until the pattern appears (trace
# sinks are flushed just after the HTTP response, so reads may race).
wait_grep() {
    i=0
    until grep -q "$1" "$2" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "smoke: FAIL - '$1' never appeared in $2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

BASE="http://$HOST:$PORT"
BATCH='{"columns":[
  {"name":"zipcode","values":["92093","92037","92122","92093"]},
  {"name":"salary","values":["51000","62500","48200","70100"]},
  {"name":"hire_date","values":["2019-03-01","2020-11-15","2018-07-09","2021-01-30"]},
  {"name":"homepage","values":["https://a.example.com","https://b.example.org","https://c.example.net","https://d.example.io"]}
]}'

echo "smoke: phases: $PHASES"
echo "smoke: training a small model..."
$GO run ./cmd/sortinghat train -out "$DIR/model.gob" -n 600 -seed 7

echo "smoke: building sortinghatd..."
$GO build -o "$DIR/sortinghatd" ./cmd/sortinghatd
if has_phase fleet; then
    echo "smoke: building sortinghatgw..."
    $GO build -o "$DIR/sortinghatgw" ./cmd/sortinghatgw
fi

# ---------------------------------------------------------------- single
if has_phase single; then
    echo "smoke: [single] starting sortinghatd on :$PORT..."
    "$DIR/sortinghatd" -model "$DIR/model.gob" -addr "$HOST:$PORT" -pprof &
    PID=$!
    PIDS="$PIDS $PID"

    wait_ready "$BASE" "$DIR/healthz.json"
    echo "smoke: [single] healthz: $(cat "$DIR/healthz.json")"
    grep -q '"status":"ok"' "$DIR/healthz.json"
    grep -q '"model":"OurRF"' "$DIR/healthz.json"

    echo "smoke: [single] first /v1/infer batch..."
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/infer1.json"
    echo "smoke: [single] infer: $(cat "$DIR/infer1.json")"
    grep -q '"predictions"' "$DIR/infer1.json"
    grep -q '"zipcode"' "$DIR/infer1.json"
    grep -q '"cache_hits":0' "$DIR/infer1.json"

    echo "smoke: [single] repeated batch must hit the cache..."
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/infer2.json"
    grep -q '"cache_hits":4' "$DIR/infer2.json"

    curl -fsS "$BASE/metrics" >"$DIR/metrics.txt"
    grep -q '^sortinghatd_requests_total 2$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_cache_hits_total 4$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_columns_total 8$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_cache_evictions_total 0$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_cache_capacity ' "$DIR/metrics.txt"
    grep -q '^sortinghatd_forest_split_nodes ' "$DIR/metrics.txt"
    grep -q '^sortinghatd_featurize_seconds_count ' "$DIR/metrics.txt"
    grep -q '^sortinghatd_decode_seconds_count 2$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_hash_seconds_count 8$' "$DIR/metrics.txt"
    grep -q '^sortinghatd_encode_seconds_count 2$' "$DIR/metrics.txt"

    echo "smoke: [single] /debug/traces must hold the recorded request traces..."
    curl -fsS "$BASE/debug/traces" >"$DIR/traces.json"
    grep -q '"name":"infer"' "$DIR/traces.json" || {
        echo "smoke: FAIL - trace ring empty or missing infer spans: $(cat "$DIR/traces.json")" >&2
        exit 1
    }
    grep -q '"name":"featurize"' "$DIR/traces.json"
    grep -q '"request_id"' "$DIR/traces.json"

    echo "smoke: [single] /debug/flight must hold the recorded requests..."
    curl -fsS "$BASE/debug/flight" >"$DIR/flight.json"
    grep -q '"trace_id"' "$DIR/flight.json"
    grep -q '"name":"decode"' "$DIR/flight.json"
    grep -q '"name":"queue"' "$DIR/flight.json"
    grep -q '"name":"hash"' "$DIR/flight.json"
    grep -q '"name":"predict"' "$DIR/flight.json"
    grep -q '"name":"encode"' "$DIR/flight.json"

    echo "smoke: [single] /debug/pprof must be mounted (-pprof)..."
    curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null

    echo "smoke: [single] graceful shutdown..."
    stop_pid "$PID"
fi

# --------------------------------------------------------------- degrade
# Degraded-mode drill. Boot with one worker (deterministic column order)
# and a fault spec that fails the first 3 predictions — exactly enough to
# trip the 3-failure breaker, with nothing left armed for the later
# probe. The 4-column batch must come back degraded (3 injected errors +
# 1 breaker-open skip), /healthz must flip to "degraded", and after the
# 1s probe interval the half-open probe succeeds and health recovers.
if has_phase degrade; then
    echo "smoke: [degrade] starting sortinghatd with injected prediction faults..."
    "$DIR/sortinghatd" -model "$DIR/model.gob" -addr "$HOST:$PORT" -workers 1 \
        -fault-spec 'predict:error:1:x3' -breaker-failures 3 -breaker-probe 1s &
    PID=$!
    PIDS="$PIDS $PID"

    wait_ready "$BASE" "$DIR/healthz-faulted.json"

    echo "smoke: [degrade] batch under injected faults must degrade, not fail..."
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/degraded.json"
    echo "smoke: [degrade] infer: $(cat "$DIR/degraded.json")"
    grep -q '"degraded":true' "$DIR/degraded.json"
    grep -q '"degraded_columns":4' "$DIR/degraded.json"

    curl -fsS "$BASE/healthz" >"$DIR/healthz-degraded.json"
    echo "smoke: [degrade] healthz: $(cat "$DIR/healthz-degraded.json")"
    grep -q '"status":"degraded"' "$DIR/healthz-degraded.json"
    grep -q '"breaker":"open"' "$DIR/healthz-degraded.json"

    curl -fsS "$BASE/metrics" >"$DIR/metrics-degraded.txt"
    grep -q '^sortinghatd_degraded_total 4$' "$DIR/metrics-degraded.txt"
    grep -q '^sortinghatd_breaker_open_total 1$' "$DIR/metrics-degraded.txt"
    grep -q '^sortinghatd_faults_injected_total 3$' "$DIR/metrics-degraded.txt"

    echo "smoke: [degrade] waiting out the breaker probe interval..."
    sleep 1.2
    # A half-open breaker admits exactly one probe, so recover with a
    # single-column batch before asserting a full batch is clean again.
    curl -fsS -X POST "$BASE/v1/infer" \
        -d '{"columns":[{"name":"probe","values":["1","2","3"]}]}' >"$DIR/probe.json"
    grep -q '"degraded_columns":0' "$DIR/probe.json"
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/recovered.json"
    grep -q '"degraded_columns":0' "$DIR/recovered.json"
    curl -fsS "$BASE/healthz" >"$DIR/healthz-recovered.json"
    echo "smoke: [degrade] recovered healthz: $(cat "$DIR/healthz-recovered.json")"
    grep -q '"status":"ok"' "$DIR/healthz-recovered.json"
    grep -q '"breaker":"closed"' "$DIR/healthz-recovered.json"

    echo "smoke: [degrade] graceful shutdown..."
    stop_pid "$PID"
fi

# ---------------------------------------------------------------- reload
# Hot-reload drill: boot with a labeled startup model, warm the cache,
# POST /admin/reload a canary snapshot, and assert the atomic swap — new
# version and seq on /healthz, the whole cache purged (the old entries
# are keyed to the old model), then re-warmed by a repeat batch.
if has_phase reload; then
    echo "smoke: [reload] starting sortinghatd with -model-version v1..."
    "$DIR/sortinghatd" -model "$DIR/model.gob" -addr "$HOST:$PORT" -model-version v1 &
    PID=$!
    PIDS="$PIDS $PID"

    wait_ready "$BASE" "$DIR/healthz-v1.json"
    grep -q '"model_version":"v1"' "$DIR/healthz-v1.json"
    grep -q '"model_seq":1' "$DIR/healthz-v1.json"

    echo "smoke: [reload] warming the cache..."
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/warm.json"
    grep -q '"model_version":"v1"' "$DIR/warm.json"
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/warm2.json"
    grep -q '"cache_hits":4' "$DIR/warm2.json"

    echo "smoke: [reload] hot-swapping a canary model..."
    curl -fsS -X POST "$BASE/admin/reload" \
        -d '{"path":"'"$DIR"'/model.gob","version":"canary"}' >"$DIR/reload.json"
    echo "smoke: [reload] reload: $(cat "$DIR/reload.json")"
    grep -q '"version":"canary"' "$DIR/reload.json"
    grep -q '"previous_version":"v1"' "$DIR/reload.json"
    grep -q '"seq":2' "$DIR/reload.json"
    grep -q '"cache_purged":4' "$DIR/reload.json"

    curl -fsS "$BASE/healthz" >"$DIR/healthz-canary.json"
    echo "smoke: [reload] healthz: $(cat "$DIR/healthz-canary.json")"
    grep -q '"model_version":"canary"' "$DIR/healthz-canary.json"
    grep -q '"model_seq":2' "$DIR/healthz-canary.json"
    grep -q '"cache_entries":0' "$DIR/healthz-canary.json"

    echo "smoke: [reload] the purged cache must re-warm under the new version..."
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/canary1.json"
    grep -q '"cache_hits":0' "$DIR/canary1.json"
    grep -q '"model_version":"canary"' "$DIR/canary1.json"
    curl -fsS -X POST "$BASE/v1/infer" -d "$BATCH" >"$DIR/canary2.json"
    grep -q '"cache_hits":4' "$DIR/canary2.json"

    curl -fsS "$BASE/metrics" >"$DIR/metrics-reload.txt"
    grep -q '^sortinghatd_model_reloads_total 1$' "$DIR/metrics-reload.txt"
    grep -q '^sortinghatd_model_reload_errors_total 0$' "$DIR/metrics-reload.txt"
    grep -q '^sortinghatd_model_seq 2$' "$DIR/metrics-reload.txt"

    echo "smoke: [reload] graceful shutdown..."
    stop_pid "$PID"
fi

# ----------------------------------------------------------------- fleet
# Fleet drill: 2 replicas + 1 gateway. The gateway shards each batch's
# columns across the replicas on the content-hash ring, so the replicas'
# caches must stay disjoint: every distinct column cached on exactly one
# replica, and a repeated batch through the gateway all cache hits.
if has_phase fleet; then
    R1PORT=$((PORT + 1))
    R2PORT=$((PORT + 2))
    GWPORT=$((PORT + 3))
    R1BASE="http://$HOST:$R1PORT"
    R2BASE="http://$HOST:$R2PORT"
    GWBASE="http://$HOST:$GWPORT"
    # 12 distinct columns so both shards are (overwhelmingly likely)
    # non-empty regardless of the port-dependent ring layout.
    FLEETBATCH='{"columns":[
      {"name":"zipcode","values":["92093","92037","92122","92093"]},
      {"name":"salary","values":["51000","62500","48200","70100"]},
      {"name":"hire_date","values":["2019-03-01","2020-11-15","2018-07-09","2021-01-30"]},
      {"name":"homepage","values":["https://a.example.com","https://b.example.org","https://c.example.net","https://d.example.io"]},
      {"name":"email","values":["ada@example.com","bob@example.org","carol@example.net","dan@example.io"]},
      {"name":"phone","values":["858-555-0001","858-555-0002","858-555-0003","858-555-0004"]},
      {"name":"latitude","values":["32.8801","32.8723","32.8656","32.8790"]},
      {"name":"city","values":["La Jolla","San Diego","Del Mar","Encinitas"]},
      {"name":"usage_pct","values":["0.12","0.98","0.45","0.33"]},
      {"name":"device_id","values":["dev-00017","dev-00442","dev-01893","dev-00017"]},
      {"name":"comments","values":["works as intended","needs a retry","flaky on mondays","ok"]},
      {"name":"is_active","values":["true","false","true","true"]}
    ]}'

    echo "smoke: [fleet] starting 2 replicas (:$R1PORT m0, :$R2PORT m1)..."
    "$DIR/sortinghatd" -model "$DIR/model.gob" -addr "$HOST:$R1PORT" -model-version m0 \
        -trace-out "$DIR/r1-traces.jsonl" &
    R1PID=$!
    PIDS="$PIDS $R1PID"
    "$DIR/sortinghatd" -model "$DIR/model.gob" -addr "$HOST:$R2PORT" -model-version m1 \
        -trace-out "$DIR/r2-traces.jsonl" &
    R2PID=$!
    PIDS="$PIDS $R2PID"
    wait_ready "$R1BASE" "$DIR/r1-healthz.json"
    wait_ready "$R2BASE" "$DIR/r2-healthz.json"

    echo "smoke: [fleet] starting sortinghatgw on :$GWPORT..."
    "$DIR/sortinghatgw" -replicas "$R1BASE,$R2BASE" -addr "$HOST:$GWPORT" \
        -probe-interval 500ms -trace-out "$DIR/gw-traces.jsonl" &
    GWPID=$!
    PIDS="$PIDS $GWPID"
    wait_ready "$GWBASE" "$DIR/gw-healthz.json"
    echo "smoke: [fleet] gateway healthz: $(cat "$DIR/gw-healthz.json")"
    grep -q '"status":"ok"' "$DIR/gw-healthz.json"
    # Both replicas must probe healthy: no degraded/down entries.
    if grep -q '"health":"degraded"\|"health":"down"' "$DIR/gw-healthz.json"; then
        echo "smoke: FAIL - a replica is not healthy at fleet start" >&2
        exit 1
    fi

    echo "smoke: [fleet] first sharded batch through the gateway..."
    curl -fsS -X POST "$GWBASE/v1/infer" -d "$FLEETBATCH" >"$DIR/gw-infer1.json"
    echo "smoke: [fleet] infer: $(cat "$DIR/gw-infer1.json")"
    grep -q '"predictions"' "$DIR/gw-infer1.json"
    grep -q '"cache_hits":0' "$DIR/gw-infer1.json"
    grep -q '"degraded_columns":0' "$DIR/gw-infer1.json"
    grep -q '"rerouted_columns":0' "$DIR/gw-infer1.json"
    grep -q '"shards":2' "$DIR/gw-infer1.json"
    # Replicas run distinct model labels, so the version-skew accounting
    # must show columns answered by both.
    grep -q '"m0":' "$DIR/gw-infer1.json"
    grep -q '"m1":' "$DIR/gw-infer1.json"

    echo "smoke: [fleet] repeated batch must hit both replica caches..."
    curl -fsS -X POST "$GWBASE/v1/infer" -d "$FLEETBATCH" >"$DIR/gw-infer2.json"
    grep -q '"cache_hits":12' "$DIR/gw-infer2.json"

    echo "smoke: [fleet] replica caches must hold disjoint shards..."
    curl -fsS "$R1BASE/healthz" >"$DIR/r1-after.json"
    curl -fsS "$R2BASE/healthz" >"$DIR/r2-after.json"
    C1=$(jint "$DIR/r1-after.json" cache_entries)
    C2=$(jint "$DIR/r2-after.json" cache_entries)
    echo "smoke: [fleet] cache entries: r1=$C1 r2=$C2"
    if [ "$C1" -eq 0 ] || [ "$C2" -eq 0 ]; then
        echo "smoke: FAIL - a replica cached nothing; the batch was not sharded" >&2
        exit 1
    fi
    if [ $((C1 + C2)) -ne 12 ]; then
        echo "smoke: FAIL - caches hold $((C1 + C2)) entries for 12 distinct columns; shards overlap or columns were dropped" >&2
        exit 1
    fi

    curl -fsS "$GWBASE/metrics" >"$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_requests_total 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_columns_total 24$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_rerouted_columns_total 0$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_fallback_columns_total 0$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_replicas 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_replicas_healthy 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_request_seconds_count 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_dispatch_seconds_count 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_decode_seconds_count 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_route_seconds_count 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_encode_seconds_count 2$' "$DIR/gw-metrics.txt"
    grep -q '^sortinghatgw_goroutines ' "$DIR/gw-metrics.txt"

    echo "smoke: [fleet] one gateway trace id must appear in every trace sink..."
    wait_grep '"trace_id"' "$DIR/gw-traces.jsonl"
    TRACE=$(sed -n 's/.*"trace_id":"\([0-9a-f]\{32\}\)".*/\1/p' "$DIR/gw-traces.jsonl" | head -n 1)
    if [ -z "$TRACE" ]; then
        echo "smoke: FAIL - gateway trace sink has no trace id: $(cat "$DIR/gw-traces.jsonl")" >&2
        exit 1
    fi
    wait_grep "$TRACE" "$DIR/r1-traces.jsonl"
    wait_grep "$TRACE" "$DIR/r2-traces.jsonl"

    echo "smoke: [fleet] /debug/flight must explain the recorded requests..."
    curl -fsS "$GWBASE/debug/flight" >"$DIR/gw-flight.json"
    grep -q "\"trace_id\":\"$TRACE\"" "$DIR/gw-flight.json"
    grep -q '"name":"decode"' "$DIR/gw-flight.json"
    grep -q '"name":"route"' "$DIR/gw-flight.json"
    grep -q '"name":"dispatch"' "$DIR/gw-flight.json"
    grep -q '"name":"encode"' "$DIR/gw-flight.json"
    grep -q '"shard r' "$DIR/gw-flight.json"
    curl -fsS "$R1BASE/debug/flight" >"$DIR/r1-flight.json"
    grep -q '"name":"featurize"' "$DIR/r1-flight.json"
    grep -q '"name":"hash"' "$DIR/r1-flight.json"
    grep -q '"trace_id"' "$DIR/r1-flight.json"

    echo "smoke: [fleet] tracecat must stitch the sinks into one timeline..."
    $GO run ./cmd/tracecat -trace "$TRACE" \
        "$DIR/gw-traces.jsonl" "$DIR/r1-traces.jsonl" "$DIR/r2-traces.jsonl" >"$DIR/stitched.txt"
    echo "smoke: [fleet] stitched timeline:"
    cat "$DIR/stitched.txt"
    grep -q "^trace $TRACE:" "$DIR/stitched.txt"
    grep -q 'gateway  \[gw-traces.jsonl\]' "$DIR/stitched.txt"
    grep -q 'forward  \[gw-traces.jsonl\]' "$DIR/stitched.txt"
    grep -q 'infer  \[r1-traces.jsonl\]' "$DIR/stitched.txt"
    grep -q 'infer  \[r2-traces.jsonl\]' "$DIR/stitched.txt"
    if grep -q 'not in any sink' "$DIR/stitched.txt"; then
        echo "smoke: FAIL - stitched timeline has orphan spans" >&2
        exit 1
    fi

    echo "smoke: [fleet] graceful shutdown (gateway first, then replicas)..."
    stop_pid "$GWPID"
    stop_pid "$R1PID"
    stop_pid "$R2PID"
fi

echo "smoke: OK ($PHASES)"
