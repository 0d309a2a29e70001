#!/usr/bin/env bash
# The full verification gauntlet, in increasing order of cost:
#
#   1. cargo fmt --check            formatting
#   2. cargo clippy -D warnings     compiler-adjacent lints, every
#                                   workspace crate, all targets; also
#                                   the invariants of DESIGN.md §7: the
#                                   no-panic request path (deny
#                                   attributes at the crate roots), clock
#                                   discipline (clippy.toml), Request
#                                   exhaustiveness; and every #[allow]
#                                   must give a reason
#   3. softrep-lint                 the workspace's own dataflow pass
#                                   (privacy taint, lock order,
#                                   guard-across-I/O, suppression audit —
#                                   see DESIGN.md §11). Runs in
#                                   JSON mode against the committed
#                                   baseline and fails on any NEW
#                                   diagnostic. After deliberately
#                                   accepting a finding, regenerate with
#                                   SOFTREP_LINT_BASELINE=regen.
#   4. cargo build --release        tier-1 build
#   5. cargo test                   the whole workspace; on Linux the
#                                   transport and chaos suites run every
#                                   test on both servers (threads and the
#                                   epoll reactor)
#   6. property shard               the property suite at a fixed seed,
#                                   then at a randomized one (echoed)
#   7. loom shards                  race detection on the server's
#                                   concurrent structures and the storage
#                                   engine's group-commit/striping protocols
#   8. crash-matrix shard           the deterministic fault-injection
#                                   harness (DESIGN.md §13): enumerate
#                                   every durable-effect site of the
#                                   canonical workload and re-recover at
#                                   each one, fixed seed first, then one
#                                   randomized-seed exploration (the seed
#                                   is echoed so failures replay exactly)
#   9. concurrency bench smoke      the store_concurrent/group-commit
#                                   benches and the replication page
#                                   codec at a tiny workload — a
#                                   does-it-run check, not a measurement
#  10. perfbench smoke              builds the repository's benchmark
#                                   (perfbench/) and runs every workload
#                                   for 2 s, end to end and traced; each
#                                   run must answer correctly — like
#                                   step 9, it checks that the benchmark
#                                   works and measures nothing
#                                   (./perf-ledger.sh measures)
#  11. /metrics endpoint smoke      boots the release serverd on
#                                   ephemeral ports and asserts the
#                                   Prometheus exposition is well formed
#                                   and carries the key series; then
#                                   restarts it and asserts the pseudonym
#                                   key outlives the restart
#  12. replication shard           the WAL-shipping differential suite
#                                   (fault proxy + replica restart →
#                                   byte-identical stores), randomized
#                                   runs of the gapless-prefix property
#                                   and of the indexed page read against
#                                   its full-scan oracle (seeds echoed),
#                                   and a binary-level primary+2-replica
#                                   topology probed over real sockets
#                                   (not-primary redirects, repl metrics,
#                                   no pseudonym key on a replica)
#  13. ThreadSanitizer shard        opt-in: CI_TSAN=1 and a nightly
#                                   toolchain; skipped otherwise
#
# Usage: ./ci.sh            (from the workspace root)
#        CI_TSAN=1 ./ci.sh  (also run the sanitizer shard)

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==== %s ====\n' "$*"; }

# One framed protocol round trip: u32 BE length + UTF-8 XML, by hand.
proto_call() { # addr, xml-body → response body on stdout
    local addr="$1" body="$2" len b0 b1 b2 b3 rlen
    len=${#body}
    exec 4<>"/dev/tcp/${addr%:*}/${addr##*:}"
    printf "$(printf '\\%03o\\%03o\\%03o\\%03o' \
        $((len >> 24 & 255)) $((len >> 16 & 255)) $((len >> 8 & 255)) $((len & 255)))" >&4
    printf '%s' "$body" >&4
    # dd bs=1 reads exactly N bytes from the socket; head -c may over-read
    # into its stdio buffer and eat the start of the body.
    read -r b0 b1 b2 b3 <<<"$(dd bs=1 count=4 2>/dev/null <&4 | od -An -tu1 | tr -s ' ')" || true
    rlen=$((b0 * 16777216 + b1 * 65536 + b2 * 256 + b3))
    [ "$rlen" -gt 0 ] && [ "$rlen" -le 1048576 ] || {
        echo "bogus response frame length $rlen from $addr" >&2; exit 1; }
    dd bs=1 count="$rlen" 2>/dev/null <&4
    exec 4<&- 4>&-
}

step "1/13 cargo fmt --check"
cargo fmt --all -- --check

step "2/13 cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::allow_attributes_without_reason

step "3/13 softrep-lint (baseline diff)"
# Fails on diagnostics not present in lint-baseline.json. To accept a
# finding on purpose (rare; prefer an inline reasoned suppression):
#   SOFTREP_LINT_BASELINE=regen cargo run -q -p softrep-lint -- . --baseline lint-baseline.json
cargo run --offline -q -p softrep-lint -- . --format json --baseline lint-baseline.json --stats

step "4/13 cargo build --release"
cargo build --offline --release

step "5/13 cargo test (workspace)"
cargo test --offline -q --workspace

step "6/13 property shard (fixed + randomized seed)"
# Fixed seed: reproduces the checked-in baseline exactly.
SOFTREP_PROP_SEED=0x5eedcafe SOFTREP_PROP_CASES=200 \
    cargo test --offline -q --test properties
# Randomized seed: each CI run explores fresh workloads. The harness
# prints the seed on failure, so any counterexample is replayable.
PROP_SEED="$(date +%s)"
printf 'property shard randomized seed: %s\n' "$PROP_SEED"
SOFTREP_PROP_SEED="$PROP_SEED" SOFTREP_PROP_CASES=100 \
    cargo test --offline -q --test properties

step "7/13 loom race-detection shards (server + storage)"
cargo test --offline -q -p softrep-server --features loom --test loom
cargo test --offline -q -p softrep-storage --features loom --test loom

step "8/13 crash-matrix shard (fixed + randomized seed)"
# Fixed seed: the canonical schedule, byte-for-byte reproducible. Time-
# budgeted: the whole matrix is sub-second, so a multi-minute run means a
# recovery loop is wedged — fail fast rather than eat the CI budget.
timeout 300 env SOFTREP_CRASH_SEED=0xC0FFEE \
    cargo test --offline -q --test crash_matrix
# Randomized seed: every CI run explores a fresh workload shape. The seed
# is printed here and baked into every assertion message, so a failure is
# replayable with SOFTREP_CRASH_SEED=<seed>.
CRASH_SEED="$(date +%s)"
printf 'crash-matrix randomized seed: %s\n' "$CRASH_SEED"
timeout 300 env SOFTREP_CRASH_SEED="$CRASH_SEED" \
    cargo test --offline -q --test crash_matrix randomized

step "9/13 concurrency bench smoke"
# Tiny workload: proves the mixed reader/writer, group-commit and
# replication page codec benches still run, without spending CI minutes
# on real measurements. Each group must print at least one result.
BENCH_OUT="$(SOFTREP_BENCH_SMOKE=1 cargo bench --offline -p softrep-bench --bench storage_bench)"
for group in store_concurrent store_group_commit repl_page_codec; do
    printf '%s\n' "$BENCH_OUT" | grep -E "^bench $group/" || {
        echo "bench group $group produced no output"; exit 1; }
done

step "10/13 perfbench smoke (every workload, end to end and traced)"
# perfbench compiles against the crates' public items (DESIGN.md §16), so
# a changed signature breaks every workload; this step catches it. Each
# 2 s run must end with a correct result line. Measurements come from
# ./perf-ledger.sh, not from here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml --bins
for workload in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
    for trace in 0 1; do
        RESULT="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 \
            --trace "$trace" | tail -n 1)"
        case "$RESULT" in
            '{"correct": true'*) echo "perfbench $workload --trace $trace: correct" ;;
            *) echo "perfbench $workload --trace $trace failed: $RESULT"; exit 1 ;;
        esac
    done
done

step "11/13 /metrics endpoint smoke"
# Boot the real binary on ephemeral ports, fetch /metrics over a raw
# socket (no curl dependency), and assert the exposition is well formed
# and carries the key series (DESIGN.md §12). Uses the release binary
# from step 4.
SMOKE_DATA="$(mktemp -d)"
SMOKE_LOGS="$(mktemp -d)"
SMOKE_PID=""
cleanup_smoke() { kill "$SMOKE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DATA" "$SMOKE_LOGS"; }
trap cleanup_smoke EXIT
boot_smoke() { # log name; sets SMOKE_PID, PROTO_ADDR and WEB_ADDR
    local log="$SMOKE_LOGS/$1"
    ./target/release/softrep-serverd --data "$SMOKE_DATA" --pepper ci-smoke \
        --puzzle-difficulty 0 --proto 127.0.0.1:0 --web 127.0.0.1:0 >"$log" 2>&1 &
    SMOKE_PID=$!
    WEB_ADDR=""
    for _ in $(seq 1 50); do
        WEB_ADDR="$(sed -n 's#.*web       http://##p' "$log" | head -n1)"
        [ -n "$WEB_ADDR" ] && break
        sleep 0.2
    done
    [ -n "$WEB_ADDR" ] || {
        echo "serverd never announced its web address:"
        cat "$log"; exit 1; }
    PROTO_ADDR="$(sed -n 's#.*protocol  ##p' "$log" | head -n1)"
}
fetch_metrics() { # the raw HTTP answer to GET /metrics on stdout
    exec 3<>"/dev/tcp/${WEB_ADDR%:*}/${WEB_ADDR##*:}"
    printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\n\r\n' "$WEB_ADDR" >&3
    cat <&3
    exec 3<&- 3>&-
}
boot_smoke first.log
METRICS="$(fetch_metrics)"
printf '%s\n' "$METRICS" | head -n1 | grep -q '200 OK' || {
    echo "/metrics did not answer 200:"; printf '%s\n' "$METRICS" | head -n5; exit 1; }
printf '%s\n' "$METRICS" | grep -q 'Content-Type: text/plain; version=0.0.4' || {
    echo "/metrics served the wrong content type"; exit 1; }
for series in \
    softrep_request_latency_us_p99 \
    softrep_store_fsync_us_count \
    softrep_store_group_commit_depth_count \
    softrep_agg_lag_seconds \
    softrep_flood_rejected_total \
    softrep_flood_evicted_total \
    softrep_server_requests_served_total \
    softrep_reactor_open_connections \
    softrep_reactor_wakeups_total \
    softrep_reactor_ready_events_count \
    softrep_reactor_dispatch_us_count \
    softrep_reactor_inline_total \
    softrep_repl_lag_entries \
    softrep_repl_lag_bytes \
    softrep_repl_applied_seq \
    softrep_repl_reconnects_total; do
    printf '%s\n' "$METRICS" | grep -q "^$series " || {
        echo "/metrics is missing series $series"; exit 1; }
done
# Every body line is `# comment` or `name numeric-value`.
printf '%s\n' "$METRICS" | sed '1,/^\r*$/d' | tr -d '\r' | awk '
    /^#/ || /^$/ { next }
    NF != 2 || $2 !~ /^[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
        print "malformed exposition line: " $0; bad = 1 }
    END { exit bad }' || exit 1
# The reactor answers a query on its loop thread (DESIGN.md §14), so the
# inline counter moves after one query-software.
inline_total() { fetch_metrics | tr -d '\r' | sed -n 's/^softrep_reactor_inline_total //p'; }
INLINE_BEFORE="$(inline_total)"
QUERY='<?xml version="1.0" encoding="UTF-8"?><request type="query-software">'
QUERY="$QUERY<software-id>$(printf 'ab%.0s' $(seq 20))</software-id></request>"
proto_call "$PROTO_ADDR" "$QUERY" | grep -q 'unknown-software' || {
    echo "query-software did not answer unknown-software"; exit 1; }
INLINE_AFTER="$(inline_total)"
[ "${INLINE_AFTER:-0}" -gt "${INLINE_BEFORE:-0}" ] || {
    echo "softrep_reactor_inline_total did not move: '$INLINE_BEFORE' -> '$INLINE_AFTER'"
    exit 1; }
# The pseudonym key is made by the first pseudonym request and kept in the
# data directory (DESIGN.md §5 invariant 13): a serverd restarted on the
# same directory answers with the same modulus.
GET_KEY='<?xml version="1.0" encoding="UTF-8"?><request type="get-pseudonym-key"/>'
key_modulus() { proto_call "$PROTO_ADDR" "$GET_KEY" | sed -n 's#.*<n>\([0-9a-f]*\)</n>.*#\1#p'; }
MODULUS="$(key_modulus)"
[ -n "$MODULUS" ] && [ -f "$SMOKE_DATA/PSEUDONYM_KEY" ] || {
    echo "get-pseudonym-key made no key: '$MODULUS'"; exit 1; }
kill "$SMOKE_PID"
wait "$SMOKE_PID" 2>/dev/null || true
boot_smoke restarted.log
[ "$(key_modulus)" = "$MODULUS" ] || {
    echo "the pseudonym key changed across a restart"; exit 1; }
cleanup_smoke
trap - EXIT
echo "/metrics smoke passed ($WEB_ADDR); the pseudonym key survived a restart"

step "12/13 replication shard (fault sweep + primary/2-replica topology)"
# Half one: the in-process differential suite — 10k mixed writes through
# a byte-cutting fault proxy plus a replica restart must converge to
# byte-identical stores (DESIGN.md §15) — and randomized-seed runs of
# the gapless-prefix property (the fixed-seed run is in step 6) and of
# the indexed replication read against its full-scan oracle (the
# fixed-seed run is in step 5). Each seed is echoed here and named in
# every assertion message, so a failure replays with
# SOFTREP_PROP_SEED=<seed> SOFTREP_PROP_CASES=1.
cargo test --offline -q -p softrep-server --test repl
REPL_SEED="$(date +%s)"
printf 'replication property randomized seed: %s\n' "$REPL_SEED"
SOFTREP_PROP_SEED="$REPL_SEED" SOFTREP_PROP_CASES=40 \
    cargo test --offline -q --test properties replica_watermark
INDEX_SEED="$(date +%s)"
printf 'replication index differential randomized seed: %s\n' "$INDEX_SEED"
SOFTREP_PROP_SEED="$INDEX_SEED" SOFTREP_PROP_CASES=4 \
    cargo test --offline -q --test replication_index

# Half two: the release binary in both roles. Boot a primary and two
# replicas on ephemeral ports, then assert over the real sockets that
# (a) each replica redirects the write path with `not-primary` naming
# the primary, (b) the primary still serves it, and (c) each replica's
# /metrics carries all four softrep_repl_* series.
REPL_DATA="$(mktemp -d)"
REPL_PIDS=()
cleanup_repl() {
    for pid in "${REPL_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$REPL_DATA"
}
trap cleanup_repl EXIT

boot_serverd() { # name, extra args...
    local name="$1"; shift
    mkdir -p "$REPL_DATA/$name"
    ./target/release/softrep-serverd --data "$REPL_DATA/$name" --pepper ci-repl \
        --puzzle-difficulty 0 --proto 127.0.0.1:0 --web 127.0.0.1:0 "$@" \
        >"$REPL_DATA/$name.log" 2>&1 &
    REPL_PIDS+=("$!")
}

serverd_addr() { # name, column (protocol|web)
    local addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n "s#.*$2  *##p" "$REPL_DATA/$1.log" | sed 's#^http://##' | head -n1)"
        [ -n "$addr" ] && break
        sleep 0.2
    done
    [ -n "$addr" ] || {
        echo "serverd '$1' never announced its $2 address:" >&2
        cat "$REPL_DATA/$1.log" >&2; exit 1; }
    printf '%s' "$addr"
}

GET_PUZZLE='<?xml version="1.0" encoding="UTF-8"?><request type="get-puzzle"/>'
boot_serverd primary
PRIMARY_PROTO="$(serverd_addr primary protocol)"
boot_serverd replica1 --replica-of "$PRIMARY_PROTO"
boot_serverd replica2 --replica-of "$PRIMARY_PROTO"

GET_KEY='<?xml version="1.0" encoding="UTF-8"?><request type="get-pseudonym-key"/>'
proto_call "$PRIMARY_PROTO" "$GET_PUZZLE" | grep -q 'status="puzzle"' || {
    echo "primary did not serve the write path"; exit 1; }
proto_call "$PRIMARY_PROTO" "$GET_KEY" | grep -q 'status="pseudonym-key"' || {
    echo "primary did not serve its pseudonym key"; exit 1; }
[ -f "$REPL_DATA/primary/PSEUDONYM_KEY" ] || { echo "primary kept no key file"; exit 1; }
for name in replica1 replica2; do
    RADDR="$(serverd_addr "$name" protocol)"
    RESP="$(proto_call "$RADDR" "$GET_PUZZLE")"
    printf '%s' "$RESP" | grep -q 'status="not-primary"' || {
        echo "$name did not redirect the write path: $RESP"; exit 1; }
    proto_call "$RADDR" "$GET_KEY" | grep -q 'status="not-primary"' || {
        echo "$name did not redirect the pseudonym key request"; exit 1; }
    # The key is node-local: neither replication nor a request puts it on
    # a replica (DESIGN.md §5 invariant 13).
    [ ! -e "$REPL_DATA/$name/PSEUDONYM_KEY" ] || {
        echo "$name's data directory holds a pseudonym key file"; exit 1; }
    printf '%s' "$RESP" | grep -qF "$PRIMARY_PROTO" || {
        echo "$name's redirect does not name the primary: $RESP"; exit 1; }
    RWEB="$(serverd_addr "$name" web)"
    exec 4<>"/dev/tcp/${RWEB%:*}/${RWEB##*:}"
    printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\n\r\n' "$RWEB" >&4
    RMETRICS="$(cat <&4)"
    exec 4<&- 4>&-
    for series in softrep_repl_lag_entries softrep_repl_lag_bytes \
        softrep_repl_applied_seq softrep_repl_reconnects_total; do
        printf '%s\n' "$RMETRICS" | grep -q "^$series " || {
            echo "$name /metrics is missing series $series"; exit 1; }
    done
done
cleanup_repl
trap - EXIT
echo "replication shard passed (primary + 2 replicas at $PRIMARY_PROTO)"

nightly_has_tsan_deps() {
    rustup toolchain list 2>/dev/null | grep -q nightly \
        && rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src.*(installed)'
}

if [ "${CI_TSAN:-0}" = "1" ]; then
    if nightly_has_tsan_deps; then
        step "13/13 ThreadSanitizer shard (nightly)"
        # TSan needs the std rebuilt with the sanitizer; restrict to the
        # concurrent server structures to keep the shard's runtime sane.
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test --offline -q -p softrep-server \
            -Z build-std --target x86_64-unknown-linux-gnu \
            session flood puzzle_gate pool stats
    else
        step "13/13 ThreadSanitizer shard SKIPPED (needs nightly + rust-src for -Z build-std)"
    fi
else
    step "13/13 ThreadSanitizer shard SKIPPED (set CI_TSAN=1 to enable)"
fi

printf '\nci.sh: all enabled shards passed\n'
