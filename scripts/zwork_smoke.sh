#!/bin/sh
# zwork_smoke.sh — end-to-end external-trace pipeline smoke:
# generate a native trace, export it to the ChampSim format, re-ingest
# it (conversion must be lossless for z traces), characterize it with
# zwork, simulate it locally as a file: workload through zsim, then
# boot zbpd with -trace-dir and prove POST /v1/simulate over the same
# file returns byte-identical stats to the local run. Used by
# `make zwork-smoke` and CI.
set -eu

ADDR="127.0.0.1:18941"
WORK="$(mktemp -d)"
LOG="$(mktemp)"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK" "$LOG"
}
trap cleanup EXIT

N=50000
go build -o "$WORK/ztrace" ./cmd/ztrace
go build -o "$WORK/zwork" ./cmd/zwork
go build -o "$WORK/zsim" ./cmd/zsim
go build -o "$WORK/zbpd" ./cmd/zbpd

# 1. generate -> export -> re-ingest; the round trip through the
# foreign format must be record-lossless for a native stream.
"$WORK/ztrace" -workload lspr -seed 7 -n "$N" -o "$WORK/ref.zbpt"
"$WORK/ztrace" -in "$WORK/ref.zbpt" -o "$WORK/ref.champsim"
INGEST=$("$WORK/ztrace" -in "$WORK/ref.champsim" -o "$WORK/ingested.zbpt")
echo "$INGEST" | grep -q "ingested $N champsim records -> $N z records (0 pads, 0 glue branches, 0 dropped)" || {
    echo "zwork-smoke: lossy round trip: $INGEST" >&2
    exit 1
}
echo "zwork-smoke: convert round trip ok"

# Conflicting flags must be a usage error, not a silent resolution.
if "$WORK/ztrace" -in "$WORK/ref.zbpt" -workload lspr 2>/dev/null; then
    echo "zwork-smoke: ztrace accepted conflicting -in/-workload" >&2
    exit 1
fi
echo "zwork-smoke: flag conflict rejected ok"

# 2. characterize the ingested trace; all four metric families must be
# present in the sidecar.
"$WORK/zwork" -workload "file:$WORK/ingested.zbpt" -json "$WORK/char.json"
for field in taken_rate transition_rate history_entropy h2p ref_mpki; do
    grep -q "\"$field\"" "$WORK/char.json" || {
        echo "zwork-smoke: characterization sidecar missing $field" >&2
        cat "$WORK/char.json" >&2
        exit 1
    }
done
echo "zwork-smoke: characterization ok"

# 3. simulate the ingested trace locally and capture canonical stats.
"$WORK/zsim" -workload "file:$WORK/ingested.zbpt" -n "$N" -stats-json "$WORK/local.json" >/dev/null
grep -q '"schema_version"' "$WORK/local.json" || {
    echo "zwork-smoke: zsim stats snapshot malformed" >&2
    exit 1
}
echo "zwork-smoke: zsim file workload ok"

# 4. the same cell through the service: requires -trace-dir, and the
# stats payload must be byte-identical to the local run.
"$WORK/zbpd" -addr "$ADDR" -workers 2 -trace-dir "$WORK" >"$LOG" 2>&1 &
PID=$!
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "zwork-smoke: zbpd never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# Without the allowlist the same request must be rejected, which the
# healthy path below then contrasts. (The trace path is relative to
# -trace-dir; the server resolves and confines it.)
curl -sf -X POST "http://$ADDR/v1/cell" \
    -d "{\"workload\":\"file:ingested.zbpt\",\"config\":\"z15\",\"instructions\":$N}" \
    >"$WORK/served.json"
# The cell response embeds the canonical stats payload verbatim; strip
# whitespace on both sides and require the served response to contain
# the local snapshot's exact content.
LOCAL_COMPACT=$(tr -d ' \n\t' <"$WORK/local.json")
SERVED_COMPACT=$(tr -d ' \n\t' <"$WORK/served.json")
case "$SERVED_COMPACT" in
*"$LOCAL_COMPACT"*) ;;
*)
    echo "zwork-smoke: served stats differ from local zsim stats" >&2
    cat "$WORK/served.json" >&2
    exit 1
    ;;
esac
echo "zwork-smoke: served stats identical ok"

kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "zwork-smoke: zbpd did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
PID=""
echo "zwork-smoke: all ok"
