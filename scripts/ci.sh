#!/usr/bin/env sh
# CI pipeline, split into named stages so local runs and the GitHub
# workflow execute the exact same commands:
#
#   scripts/ci.sh                  # all stages, in order
#   scripts/ci.sh tier1            # one stage
#   scripts/ci.sh alloc fuzz       # a subset, in the order given
#
# Stages:
#   tier1        gofmt -l + go vet (the root module and perfbench/) +
#                go build + go test -race ./...
#   alloc        steady-state zero-allocation gates (AllocsPerRun, no -race)
#   fuzz         short fuzz budget per untrusted decode surface and for
#                rpxd's handshake, plus the EncMask kernels against their
#                per-pixel reference
#   smoke        live binaries: faultnet matrix, rpxd admin, rpxgw
#                relay/failover, and the rpxpolicy closed-loop smoke
#   bench-check  one short traced perfbench relay-qvga run, gated by
#                scripts/benchcheck: correct, exact per-frame metadata
#                bytes, consumer allocs/frame under a limit
#
# Every requested stage runs even after a failure; the run ends with a
# summary table and a nonzero exit if any stage failed.
set -u

cd "$(dirname "$0")/.."

# ---------------------------------------------------------------- tier1

stage_tier1() {
    echo "== gofmt -l ."
    UNFORMATTED="$(gofmt -l .)"
    if [ -n "$UNFORMATTED" ]; then
        echo "ci: gofmt would reformat:" >&2
        echo "$UNFORMATTED" >&2
        exit 1
    fi

    echo "== go vet ./..."
    go vet ./...

    # perfbench/ is its own module, so the root vet skips it; vetting it
    # here catches a break in the rpx and rpx/client API it compiles
    # against before bench-check does.
    echo "== (cd perfbench && go vet ./...)"
    (cd perfbench && go vet ./...)

    echo "== go build ./..."
    go build ./...

    echo "== go test -race ./..."
    go test -race ./...
}

# ---------------------------------------------------------------- alloc

# The steady-state zero-allocation contracts of the pooled hot path (mask
# popcount, pooled encode, wire framing, capture), the producer's push path
# (an rpxd Session.Capture, which publishes under the session lock, plus
# the stream writers, at 1, 2 and 8 subscribers), per-frame
# decode and stream-replay allocation counts that do not grow with frame
# height, and the consumer path: a push-stream Recv allocates the same at
# QVGA as at 1080p, and a warm policy worker parses, pushes and
# reconstructs frames without allocating. Deliberately WITHOUT -race — the
# race runtime changes allocation counts, so these testing.AllocsPerRun
# assertions are only meaningful in a plain build.
stage_alloc() {
    echo "== alloc gate (AllocsPerRun, no -race)"
    go test -count=1 -run='^TestAllocs' \
        ./internal/bitpack ./internal/core ./internal/wire ./rpx \
        ./rpx/client ./internal/policyloop ./internal/server
}

# ----------------------------------------------------------------- fuzz

# A short budget per untrusted decode surface, for rpxd's handshake as the
# daemon runs it (parse, geometry check, session open and close, with an
# allocation bound derived from the geometry), and for the run-level
# encoder/PMMU kernels against their per-pixel oracle. Regressions the fuzzer
# finds land in testdata/fuzz/ seed corpora, which tier1's -race run then
# replays forever after.
stage_fuzz() {
    FUZZTIME="${FUZZTIME:-10s}"
    echo "== fuzz smoke (${FUZZTIME} per target)"
    go test -run='^$' -fuzz='^FuzzReadMessage$' -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzReadSubscribe$' -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzReadFramePush$' -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzReadStreamLabels$' -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzHandshake$' -fuzztime="$FUZZTIME" ./internal/server
    go test -run='^$' -fuzz='^FuzzReadEncodedFrame$' -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz='^FuzzStreamReader$' -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz='^FuzzKernelsMatchReference$' -fuzztime="$FUZZTIME" ./internal/core
}

# ---------------------------------------------------------------- smoke

stage_smoke() {
    # Faultnet smoke: replay the client/server fault-injection matrix with
    # a pinned seed so any failure here reproduces bit-for-bit on a dev
    # box with the same FAULTNET_SEED.
    FAULTNET_SEED="${FAULTNET_SEED:-1234}"
    echo "== faultnet smoke (seed ${FAULTNET_SEED})"
    FAULTNET_SEED="$FAULTNET_SEED" go test -race -count=1 \
        -run='^(TestFaultMatrix|TestBrokenSessionAfterTimeout)$' \
        ./rpx/client

    # Admin endpoint smoke: boot the real daemon binary with -admin on an
    # ephemeral port, then curl /healthz, /metrics and /debug/vars. Fails
    # on a non-200 reply or an empty/placeholder metrics payload.
    echo "== admin endpoint smoke"
    RPXD_BIN="$(mktemp -d)/rpxd"
    RPXD_LOG="$(mktemp)"
    go build -o "$RPXD_BIN" ./cmd/rpxd
    "$RPXD_BIN" -addr 127.0.0.1:0 -admin 127.0.0.1:0 2>"$RPXD_LOG" &
    RPXD_PID=$!
    cleanup_rpxd() {
        kill "$RPXD_PID" 2>/dev/null || true
        wait "$RPXD_PID" 2>/dev/null || true
        rm -rf "$(dirname "$RPXD_BIN")" "$RPXD_LOG"
    }
    trap cleanup_rpxd EXIT INT TERM
    ADMIN_ADDR=""
    for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        ADMIN_ADDR="$(sed -n 's/^rpxd: admin listening on //p' "$RPXD_LOG")"
        [ -n "$ADMIN_ADDR" ] && break
        sleep 0.25
    done
    if [ -z "$ADMIN_ADDR" ]; then
        echo "ci: rpxd admin endpoint never came up" >&2
        cat "$RPXD_LOG" >&2
        exit 1
    fi
    HEALTH="$(curl -fsS "http://$ADMIN_ADDR/healthz")"
    case "$HEALTH" in
        *ok*) ;;
        *) echo "ci: unexpected /healthz body: $HEALTH" >&2; exit 1 ;;
    esac
    METRICS="$(curl -fsS "http://$ADMIN_ADDR/metrics")"
    case "$METRICS" in
        *rpxd_sessions_open*) ;;
        *) echo "ci: /metrics missing rpxd_ series:" >&2; echo "$METRICS" >&2; exit 1 ;;
    esac
    # /debug/vars is the one JSON read of the daemon's counters.
    VARS="$(curl -fsS "http://$ADMIN_ADDR/debug/vars")"
    case "$VARS" in
        *rpxd_frames_captured_total*) ;;
        *) echo "ci: /debug/vars missing rpxd_frames_captured_total:" >&2; echo "$VARS" >&2; exit 1 ;;
    esac
    kill -TERM "$RPXD_PID"
    wait "$RPXD_PID"
    trap - EXIT INT TERM
    rm -rf "$(dirname "$RPXD_BIN")" "$RPXD_LOG"
    echo "admin endpoint smoke: OK (admin at $ADMIN_ADDR)"

    # Gateway smoke: boot 2 real rpxd backends and 1 rpxgw in front of
    # them, then run the live 4-session capture/decode matrix through the
    # gateway while SIGKILLing one backend mid-matrix. The test's
    # candidate-set oracle asserts recovery: every op returns correct
    # bytes or a typed error, sessions resume on the survivor via HELLO +
    # labels replay, and no client session breaks; the stage checks the
    # gateway's reroute counter to prove the kill moved sessions at all.
    # Seed pinned so failures reproduce.
    echo "== gateway smoke (seed ${FAULTNET_SEED})"
    GW_DIR="$(mktemp -d)"
    go build -o "$GW_DIR/rpxd" ./cmd/rpxd
    go build -o "$GW_DIR/rpxgw" ./cmd/rpxgw
    go build -o "$GW_DIR/rpxpolicy" ./cmd/rpxpolicy
    # Pre-create the logs: the address-extraction seds below may run
    # before a backgrounded daemon has opened its stderr redirect.
    : >"$GW_DIR/b1.log"; : >"$GW_DIR/b2.log"; : >"$GW_DIR/gw.log"
    "$GW_DIR/rpxd" -addr 127.0.0.1:0 -admin 127.0.0.1:0 2>"$GW_DIR/b1.log" &
    B1_PID=$!
    "$GW_DIR/rpxd" -addr 127.0.0.1:0 -admin 127.0.0.1:0 2>"$GW_DIR/b2.log" &
    B2_PID=$!
    GW_PID=""
    cleanup_gw() {
        kill "$B1_PID" "$B2_PID" $GW_PID 2>/dev/null || true
        wait "$B1_PID" "$B2_PID" $GW_PID 2>/dev/null || true
        rm -rf "$GW_DIR"
    }
    trap cleanup_gw EXIT INT TERM
    rpxd_addr()  { sed -n 's/^rpxd: listening on \([^ ]*\).*/\1/p' "$1"; }
    rpxd_admin() { sed -n 's/^rpxd: admin listening on //p' "$1"; }
    B1_ADDR=""; B2_ADDR=""
    for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        B1_ADDR="$(rpxd_addr "$GW_DIR/b1.log")"
        B2_ADDR="$(rpxd_addr "$GW_DIR/b2.log")"
        [ -n "$B1_ADDR" ] && [ -n "$B2_ADDR" ] && break
        sleep 0.25
    done
    if [ -z "$B1_ADDR" ] || [ -z "$B2_ADDR" ]; then
        echo "ci: rpxd backends never came up" >&2
        cat "$GW_DIR/b1.log" "$GW_DIR/b2.log" >&2
        exit 1
    fi
    "$GW_DIR/rpxgw" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
        -backends "$B1_ADDR@$(rpxd_admin "$GW_DIR/b1.log"),$B2_ADDR@$(rpxd_admin "$GW_DIR/b2.log")" \
        -health-interval 250ms 2>"$GW_DIR/gw.log" &
    GW_PID=$!
    GW_ADDR=""
    for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        GW_ADDR="$(sed -n 's/^rpxgw: listening on \([^ ]*\).*/\1/p' "$GW_DIR/gw.log")"
        [ -n "$GW_ADDR" ] && break
        sleep 0.25
    done
    if [ -z "$GW_ADDR" ]; then
        echo "ci: rpxgw never came up" >&2
        cat "$GW_DIR/gw.log" >&2
        exit 1
    fi
    # Streaming smoke first (while both backends are still alive): a push
    # stream relayed through the real rpxgw, on a connection of its own,
    # must deliver every frame in order, and after UNSUBSCRIBE the session
    # that opened it must still answer requests. rpxgw places the producer
    # and the subscriber's session on different backends, so every run also
    # routes a stream to the backend that holds its target.
    echo "== streaming smoke"
    RPXGW_ADDR="$GW_ADDR" \
        go test -race -count=1 -run='^TestLiveGatewayStream$' ./cmd/rpxgw
    echo "streaming smoke: OK (push stream relayed through $GW_ADDR)"
    # Policy-loop smoke (also while both backends are alive): the real
    # rpxpolicy binary subscribes to a producer session through the
    # gateway, pushes labels back, and the test asserts the capture rhythm
    # actually changed across >= 2 cycles while the decoded stream stays
    # byte-identical to an oracle decoder fed the same encoded frames.
    echo "== policy-loop smoke"
    RPXPOLICY_ADDR="$GW_ADDR" RPXPOLICY_BIN="$GW_DIR/rpxpolicy" \
        go test -race -count=1 -run='^TestLivePolicyLoop$' ./cmd/rpxpolicy
    echo "policy-loop smoke: OK (rpxpolicy steered a session through $GW_ADDR)"
    # rpxgw places the matrix's 4 sessions 2/2, so the kill of B2 must
    # reroute some: a kill that moved nothing would test nothing.
    GW_ADMIN="$(sed -n 's/^rpxgw: admin listening on //p' "$GW_DIR/gw.log")"
    rerouted() { curl -fsS "http://$GW_ADMIN/metrics" | sed -n 's/^rpxgw_sessions_rerouted_total //p'; }
    REROUTED_BEFORE="$(rerouted)"
    RPXGW_ADDR="$GW_ADDR" RPXGW_KILL_PID="$B2_PID" FAULTNET_SEED="$FAULTNET_SEED" \
        go test -race -count=1 -run='^TestLiveGatewayMatrix$' ./cmd/rpxgw
    REROUTED_AFTER="$(rerouted)"
    if [ -z "$REROUTED_BEFORE" ] || [ -z "$REROUTED_AFTER" ] || \
        [ "$REROUTED_AFTER" -le "$REROUTED_BEFORE" ]; then
        echo "ci: backend kill rerouted no session (rpxgw_sessions_rerouted_total '$REROUTED_BEFORE' -> '$REROUTED_AFTER')" >&2
        exit 1
    fi
    echo "gateway smoke: backend kill rerouted $((REROUTED_AFTER - REROUTED_BEFORE)) sessions"
    # The gateway must still be serving after losing a backend.
    GW_HEALTH="$(curl -fsS "http://$GW_ADMIN/healthz")"
    case "$GW_HEALTH" in
        *ok*) ;;
        *) echo "ci: rpxgw unhealthy after backend kill: $GW_HEALTH" >&2; exit 1 ;;
    esac
    kill -TERM "$GW_PID" "$B1_PID" 2>/dev/null || true
    wait "$GW_PID" "$B1_PID" 2>/dev/null || true
    wait "$B2_PID" 2>/dev/null || true
    trap - EXIT INT TERM
    rm -rf "$GW_DIR"
    echo "gateway smoke: OK (gateway at $GW_ADDR survived backend kill)"
}

# ---------------------------------------------------------- bench-check

# Frame-path gate: one traced perfbench run of relay-qvga (320x240 through
# rpxgw on a fixed label schedule), checked by scripts/benchcheck: the run
# checks out, every frame carries exactly the container's fixed metadata
# bytes, and the consumer's allocations per frame stay under a limit. The
# limit and the metadata constant, with their derivation, are in
# scripts/benchcheck/main.go. Timings are printed, not gated. The seed
# fixes the scene and the label schedule. The run is 30 s, the benchmark's
# own run length, because the allocation count's run-to-run spread
# shrinks with run length: at 10 s, runs of the tree and runs with one
# extra allocation per frame came within 0.4 of each other.
stage_bench_check() {
    BENCH_SEED=1
    BENCH_SECONDS=30
    echo "== bench-check (perfbench relay-qvga, seed $BENCH_SEED, ${BENCH_SECONDS}s, traced)"
    BC_DIR="$(mktemp -d)"
    trap 'rm -rf "$BC_DIR"' EXIT INT TERM
    SPANS=".bench_build/perfbench-trace-relay-qvga-seed$BENCH_SEED.json"
    rm -f "$SPANS"
    bash perfbench/run.sh --workload relay-qvga --seed "$BENCH_SEED" \
        --seconds "$BENCH_SECONDS" --trace 1 >"$BC_DIR/out"
    tail -n 1 "$BC_DIR/out" >"$BC_DIR/result.json"
    go run ./scripts/benchcheck "$BC_DIR/result.json" "$SPANS"
    trap - EXIT INT TERM
    rm -rf "$BC_DIR"
}

# --------------------------------------------------------------- runner

STAGES="${*:-tier1 alloc fuzz smoke bench-check}"
SUMMARY=""
FAILED=0
for STAGE in $STAGES; do
    case "$STAGE" in
        tier1)       FN=stage_tier1 ;;
        alloc)       FN=stage_alloc ;;
        fuzz)        FN=stage_fuzz ;;
        smoke)       FN=stage_smoke ;;
        bench-check) FN=stage_bench_check ;;
        *)
            echo "ci: unknown stage '$STAGE' (want tier1|alloc|fuzz|smoke|bench-check)" >&2
            exit 2
            ;;
    esac
    echo "==== stage: $STAGE ===="
    START="$(date +%s)"
    # Not "if ( set -e; ... )": a shell ignores -e inside an if condition,
    # so only a stage's last command could fail it.
    ( set -e; "$FN" )
    if [ $? -eq 0 ]; then
        RESULT="PASS"
    else
        RESULT="FAIL"
        FAILED=1
    fi
    SUMMARY="${SUMMARY}$(printf '%-12s %-4s %4ss' "$STAGE" "$RESULT" "$(( $(date +%s) - START ))")
"
    echo "==== stage: $STAGE $RESULT ===="
done

echo ""
echo "==== ci summary ===="
printf '%s' "$SUMMARY"
if [ "$FAILED" -ne 0 ]; then
    echo "== ci: FAIL"
    exit 1
fi
echo "== ci: OK"
