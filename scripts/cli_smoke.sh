#!/usr/bin/env bash
# End-to-end smoke test of the `krms` CLI: generate → run → skyline →
# workload (FD-RMS at two batch sizes, Greedy, a refused k) →
# flag-parser regressions and refusals (an unknown flag, the removed
# shard option, a shard group's old WAL) → WAL-backed serve round-trip
# over loopback (INSERT/QUERY/STATS, a Prometheus scrape of the
# --metrics-addr endpoint behind four idle connections, a SHUTDOWN drain
# and a recovery restart),
# plus a session on a server with two reactor threads (HELLO parameter
# advertisement, one-ack BATCH ingest without HELLO, SUBSCRIBE delta
# push, METRICS exposition), using only bash built-ins (/dev/tcp) for
# the client side.
#
# Usage: bash scripts/cli_smoke.sh   (expects target/release/krms to exist,
# or set KRMS_BIN)
set -euo pipefail

BIN=${KRMS_BIN:-target/release/krms}
PORT=${KRMS_SMOKE_PORT:-17878}
MPORT=${KRMS_SMOKE_METRICS_PORT:-$((PORT + 1))}
TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    if [ -n "$SERVE_PID" ]; then
        kill "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# Opens fd 3 to the server, retrying while it boots. The fd persists
# past the function; the stderr redirect on the call site swallows the
# expected connection-refused noise from the retries.
connect() {
    for _ in $(seq 1 100); do
        if exec 3<>"/dev/tcp/127.0.0.1/$PORT"; then
            return 0
        fi
        sleep 0.1
    done
    return 1
}

[ -x "$BIN" ] || fail "$BIN not built (run cargo build --release first)"

# --- static analysis one-shot ------------------------------------------
# One clean `rms-analyze --workspace` run rides along with the smoke
# path, so a finding (or an analyzer crash) surfaces even when the
# dedicated CI job is skipped. Skipped when cargo is unavailable (the
# smoke script also runs against prebuilt release binaries).
if command -v cargo >/dev/null 2>&1; then
    cargo run -q --release -p rms-analyze -- --workspace \
        || fail "rms-analyze --workspace found findings"
fi

# --- generate → run → skyline ------------------------------------------
"$BIN" generate --dataset Indep --n 400 --d 3 --seed 7 --out "$TMP/ds.krms" \
    || fail "generate"
[ -s "$TMP/ds.krms" ] || fail "generate wrote no dataset"
"$BIN" run --in "$TMP/ds.krms" --algo FD-RMS --r 8 --eval 2000 | grep -q "mrr" \
    || fail "run FD-RMS"
"$BIN" skyline --in "$TMP/ds.krms" | grep -q "skyline" || fail "skyline"

# --- workload ------------------------------------------------------------
# Each run prints the header and one row per 10% checkpoint; FD-RMS takes
# one-op batches at --batch 1 and adds a summary line at --batch 8.
rows() { grep -cE '^ *[0-9]+0 +[0-9]+ +[0-9]+ +[0-9.]+ +[0-9.]+$' <<<"$1"; }
out=$("$BIN" workload --in "$TMP/ds.krms" --algo FD-RMS --r 8 --ops 60 --eval 1000 --batch 1) \
    || fail "workload FD-RMS --batch 1"
[ "$(rows "$out")" -eq 10 ] || fail "workload FD-RMS --batch 1 rows: $out"
[[ "$out" != *"batched:"* ]] || fail "workload --batch 1 printed a batch summary: $out"
out=$("$BIN" workload --in "$TMP/ds.krms" --algo FD-RMS --r 8 --ops 60 --eval 1000 --batch 8) \
    || fail "workload FD-RMS --batch 8"
[ "$(rows "$out")" -eq 10 ] || fail "workload FD-RMS --batch 8 rows: $out"
[[ "$out" == *"batched: 60 ops in batches of 8"* ]] || fail "workload --batch 8 summary: $out"
out=$("$BIN" workload --in "$TMP/ds.krms" --algo Greedy --k 1 --r 8 --ops 60 --eval 1000) \
    || fail "workload Greedy k = 1"
[ "$(rows "$out")" -eq 10 ] || fail "workload Greedy rows: $out"
# A baseline that does not support k is refused like `krms run` does,
# with exit 1 and a message, not a panic.
set +e
err=$("$BIN" workload --in "$TMP/ds.krms" --algo Greedy --k 2 --r 8 --ops 60 2>&1)
status=$?
set -e
[ "$status" -eq 1 ] || fail "workload Greedy --k 2 exited $status: $err"
[[ "$err" == "error: Greedy does not support k = 2" ]] || fail "workload k refusal: $err"
if err=$("$BIN" workload --in "$TMP/ds.krms" --algo FD-RMS --r 8 --batch 0 2>&1); then
    fail "workload --batch 0 was not refused"
fi
[[ "$err" == "error: --batch must be at least 1" ]] || fail "workload --batch 0 refusal: $err"

# --- flag-parser regressions -------------------------------------------
# A flag with a missing value must error, not swallow the next flag.
if "$BIN" serve --in "$TMP/ds.krms" --addr --queue 64 2>/dev/null; then
    fail "missing flag value was not rejected"
fi
# Positional arguments must error.
if "$BIN" run --in "$TMP/ds.krms" stray 2>/dev/null; then
    fail "positional argument was not rejected"
fi
# Unknown command must error.
if "$BIN" frobnicate 2>/dev/null; then
    fail "unknown command was not rejected"
fi
# A flag the command does not read must error, not be ignored. The
# removed shard option is one: it must not silently serve one engine.
if err=$("$BIN" serve --in "$TMP/ds.krms" --r 8 --addr "127.0.0.1:$PORT" --shards 2 2>&1); then
    fail "--shards was not rejected"
fi
[[ "$err" == *"unknown flag --shards for krms serve"* ]] || fail "--shards refusal: $err"
# A shard group's old logs (a PATH.meta sidecar beside PATH.<i>) must
# be refused, not replaced by a fresh empty log.
printf 'shards=2\n' >"$TMP/old.wal.meta"
if err=$("$BIN" serve --in "$TMP/ds.krms" --r 8 --addr "127.0.0.1:$PORT" \
    --wal "$TMP/old.wal" 2>&1); then
    fail "a shard group's WAL sidecar was not refused"
fi
[[ "$err" == *"belongs to a sharded group"* ]] || fail "sidecar refusal: $err"
[ ! -e "$TMP/old.wal" ] || fail "the refused start created a log"

# --- WAL-backed serve round-trip ----------------------------------------
"$BIN" serve --in "$TMP/ds.krms" --r 8 --addr "127.0.0.1:$PORT" \
    --wal "$TMP/ops.wal" \
    --metrics-addr "127.0.0.1:$MPORT" >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

connect 2>/dev/null || { cat "$TMP/serve.log" >&2; fail "server never came up"; }

printf 'INSERT 100000 0.9 0.9 0.9\nINSERT 100001 0.8 0.8 0.8\nQUERY\nSTATS\n' >&3
for i in 0 1 2 3; do
    read -r -t 30 -u 3 "replies[$i]" || fail "missing reply $i"
done

[[ "${replies[0]}" == "OK queued" ]] || fail "INSERT reply: ${replies[0]}"
[[ "${replies[1]}" == "OK queued" ]] || fail "INSERT reply: ${replies[1]}"
[[ "${replies[2]}" == OK\ epoch=* ]] || fail "QUERY reply: ${replies[2]}"
[[ "${replies[3]}" == OK\ epoch=* ]] || fail "STATS reply: ${replies[3]}"
[[ "${replies[3]}" != *"shards="* ]] || fail "STATS reply names shards: ${replies[3]}"

# --- Prometheus scrape of the --metrics-addr endpoint ------------------
# Stock HTTP over bash /dev/tcp: the reply must be a 200 with a
# well-formed text exposition carrying families from every instrumented
# subsystem, unlabeled by shard. Four idle connections (fds 6-9, which
# send nothing) are opened first and held across the scrape. Each
# connection is served on a thread of its own, so the scrape is answered
# at once: a listener that served one connection at a time would wait
# out each idle one's 2 s timeout (8 s) and miss the 5 s bound.
exec 6<>"/dev/tcp/127.0.0.1/$MPORT" || fail "idle metrics connect (fd 6)"
exec 7<>"/dev/tcp/127.0.0.1/$MPORT" || fail "idle metrics connect (fd 7)"
exec 8<>"/dev/tcp/127.0.0.1/$MPORT" || fail "idle metrics connect (fd 8)"
exec 9<>"/dev/tcp/127.0.0.1/$MPORT" || fail "idle metrics connect (fd 9)"
exec 5<>"/dev/tcp/127.0.0.1/$MPORT" || fail "metrics endpoint connect"
printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' >&5
http=$(timeout 5 cat <&5) || fail "metrics scrape got no reply behind four idle connections"
exec 5<&- 5>&- 6<&- 6>&- 7<&- 7>&- 8<&- 8>&- 9<&- 9>&-
[[ "$http" == "HTTP/1.1 200 OK"* ]] || fail "metrics scrape status: ${http%%$'\r'*}"
# Body = everything after the blank header/body separator line.
exposition=${http#*$'\r\n\r\n'}
for fam in rms_applier_queue_depth rms_applier_batch_ops rms_applier_apply_seconds \
           rms_applier_publish_seconds rms_applier_ops_applied_total \
           rms_applier_snapshot_publishes_total rms_wal_appends_total \
           rms_wal_fsync_seconds rms_wal_recovered_ops_total \
           rms_tcp_connections_total rms_tcp_requests_total rms_tcp_request_seconds \
           rms_tcp_subscribers; do
    grep -q "^# TYPE $fam " <<<"$exposition" || fail "metric family $fam missing from scrape"
done
fam_count=$(grep -c '^# TYPE ' <<<"$exposition")
[ "$fam_count" -ge 12 ] || fail "expected >= 12 metric families, got $fam_count"
! grep -q 'shard=' <<<"$exposition" || fail "exposition carries a shard= label"
# Both acknowledged inserts reached the WAL.
grep -q '^rms_wal_appends_total 2$' <<<"$exposition" || fail "WAL append count wrong"
# Well-formed: every non-comment line is `name[{labels}] value`.
if grep -vE '^(#.*|[a-z0-9_]+(\{[^}]*\})? -?[0-9+][^ ]*)$' <<<"$exposition" | grep -q .; then
    fail "malformed exposition line: $(grep -vE '^(#.*|[a-z0-9_]+(\{[^}]*\})? -?[0-9+][^ ]*)$' <<<"$exposition" | head -1)"
fi
# Anything but GET /metrics is a 404.
exec 5<>"/dev/tcp/127.0.0.1/$MPORT" || fail "metrics endpoint reconnect"
printf 'GET /other HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' >&5
notfound=$(timeout 15 cat <&5) || fail "404 probe got no reply"
exec 5<&- 5>&-
[[ "$notfound" == "HTTP/1.1 404 Not Found"* ]] || fail "non-/metrics target not a 404"

printf 'SHUTDOWN\n' >&3
read -r -t 30 -u 3 bye_wal || fail "no SHUTDOWN reply"
[[ "$bye_wal" == "OK shutting down" ]] || fail "SHUTDOWN reply: $bye_wal"
exec 3<&- 3>&-

# The SHUTDOWN drain must let the process exit cleanly...
drained=""
for _ in $(seq 1 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
[ -n "$drained" ] || { cat "$TMP/serve.log" >&2; fail "server did not drain after SHUTDOWN"; }
wait "$SERVE_PID" || { cat "$TMP/serve.log" >&2; fail "server exited non-zero"; }
SERVE_PID=""
grep -q "shut down after" "$TMP/serve.log" || fail "missing drain summary"

# ...and graceful shutdown compacts the write-ahead log.
[ -f "$TMP/ops.wal" ] || fail "compacted WAL missing"

# A restart from the compacted log recovers the state (n = 402) without
# a living writer.
"$BIN" serve --in "$TMP/ds.krms" --r 8 --addr "127.0.0.1:$PORT" \
    --wal "$TMP/ops.wal" >"$TMP/serve2.log" 2>&1 &
SERVE_PID=$!
connect 2>/dev/null || { cat "$TMP/serve2.log" >&2; fail "restarted server never came up"; }
printf 'QUERY\nSHUTDOWN\n' >&3
mapfile -t replies <&3
exec 3<&- 3>&-
[[ "${replies[0]}" == *"n=402"* ]] || fail "restart lost state: ${replies[0]}"
wait "$SERVE_PID" || fail "restarted server exited non-zero"
SERVE_PID=""

# --- HELLO + BATCH + SUBSCRIBE + METRICS over two reactors --------------
# With --net-threads 2, reactor 0 accepts and deals sockets round-robin:
# fd 3 stays on reactor 0, fd 6 goes to reactor 1, fd 4 to reactor 0, so
# each publish fans out into both reactors.
"$BIN" serve --in "$TMP/ds.krms" --r 8 --addr "127.0.0.1:$PORT" \
    --net-threads 2 >"$TMP/serve3.log" 2>&1 &
SERVE_PID=$!
connect 2>/dev/null || { cat "$TMP/serve3.log" >&2; fail "third server never came up"; }

# fd 3: the subscriber. Read the server's parameters, then switch to
# push mode.
printf 'HELLO v2\nSUBSCRIBE every=1\n' >&3
read -r -u 3 hello_reply || fail "no HELLO reply"
[[ "$hello_reply" == OK\ v2\ * ]] || fail "HELLO reply: $hello_reply"
read -r -u 3 sub_reply || fail "no SUBSCRIBE reply"
[[ "$sub_reply" == "OK subscribed every=1 epoch="* ]] || fail "SUBSCRIBE reply: $sub_reply"

# fd 6: a server-side *filtered* subscriber. Its ack echoes the range,
# and the deltas it receives are sliced before they cross the wire.
exec 6<>"/dev/tcp/127.0.0.1/$PORT" || fail "filtered subscriber connect"
printf 'HELLO v2\nSUBSCRIBE every=1 ids=0..100000\n' >&6
read -r -u 6 fhello || fail "no filtered HELLO reply"
[[ "$fhello" == OK\ v2\ * ]] || fail "filtered HELLO reply: $fhello"
read -r -u 6 fsub || fail "no filtered SUBSCRIBE reply"
[[ "$fsub" == "OK subscribed every=1 filter=0..100000 epoch="* ]] \
    || fail "filtered SUBSCRIBE reply: $fsub"

# fd 4: the writer. No HELLO: a one-ack batch is its first request.
exec 4<>"/dev/tcp/127.0.0.1/$PORT" || fail "writer connect"
printf 'BATCH 3\nINSERT 200000 0.99 0.99 0.99\nINSERT 200001 0.98 0.98 0.98\nDELETE 200000\n' >&4
read -r -u 4 batch_ack || fail "no BATCH ack"
[[ "$batch_ack" == "OK queued n=3" ]] || fail "BATCH ack: $batch_ack"

# The subscriber must receive a pushed DELTA line without ever polling.
read -r -t 30 -u 3 delta || fail "no DELTA pushed within 30s"
[[ "$delta" == DELTA\ epoch=* ]] || fail "DELTA line: $delta"

# The filtered subscriber gets the same version as a header-only line:
# the batch's surviving insert (id 200001) is outside 0..100000, so the
# slice must not carry it.
read -r -t 30 -u 6 fdelta || fail "no filtered DELTA pushed within 30s"
[[ "$fdelta" == DELTA\ epoch=* ]] || fail "filtered DELTA line: $fdelta"
[[ "$fdelta" != *"200001"* ]] || fail "filter leaked out-of-range id: $fdelta"

# METRICS over the line protocol: a counted header frames the same
# exposition the HTTP endpoint serves. The fd-3 and fd-6 subscribers
# are live on different reactors, so the subscriber gauge reads 2, DELTA
# bytes have been counted, and the encode counters show the encode-once
# split: one unfiltered + one filtered render per publish.
printf 'METRICS\n' >&4
read -r -t 30 -u 4 mhdr || fail "no METRICS reply"
[[ "$mhdr" == "OK metrics lines="* ]] || fail "METRICS header: $mhdr"
mlines=${mhdr##*lines=}
[ "$mlines" -gt 0 ] || fail "empty METRICS exposition"
mbody=""
for ((i = 0; i < mlines; i++)); do
    read -r -t 30 -u 4 mline || fail "METRICS body truncated at line $i of $mlines"
    mbody+="$mline"$'\n'
done
grep -q '^# TYPE rms_tcp_requests_total counter' <<<"$mbody" \
    || fail "METRICS verb exposition missing request family"
grep -q '^rms_tcp_subscribers 2$' <<<"$mbody" || fail "live subscriber gauge != 2"
grep -Eq '^rms_tcp_delta_bytes_total [1-9]' <<<"$mbody" || fail "DELTA bytes not counted"
grep -Eq '^rms_net_delta_encodes_total\{kind="unfiltered"\} [1-9]' <<<"$mbody" \
    || fail "unfiltered encode counter not moving"
grep -Eq '^rms_net_delta_encodes_total\{kind="filtered"\} [1-9]' <<<"$mbody" \
    || fail "filtered encode counter not moving"

printf 'SHUTDOWN\n' >&4
read -r -u 4 bye || fail "no SHUTDOWN reply"
[[ "$bye" == "OK shutting down" ]] || fail "SHUTDOWN reply: $bye"
exec 3<&- 3>&- 4<&- 4>&- 6<&- 6>&-
wait "$SERVE_PID" || { cat "$TMP/serve3.log" >&2; fail "third server exited non-zero"; }
SERVE_PID=""

echo "cli smoke: OK"
