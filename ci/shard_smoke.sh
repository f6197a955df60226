#!/usr/bin/env bash
# Sharded-tier smoke test: boot three slicer-cloud shards behind a
# slicer-router (all journaling to -data-dir) plus a chain, build state
# through slicer-cli as if the router were one cloud, then SIGKILL one
# shard and — while it is down — ask the router to move a range onto it
# (arc after arc, until one holds entries). That move must stall, survive
# the shard restarting on its data directory, and complete; afterwards a
# fresh search must pass on-chain verification, which only holds if no
# index entry was lost or duplicated across the kill + move + restart.
#
# Expects slicer-cloud, slicer-router, slicer-chain and slicer-cli in
# $BIN (default /tmp), e.g.:
#
#	go build -o /tmp/slicer-cloud  ./cmd/slicer-cloud
#	go build -o /tmp/slicer-router ./cmd/slicer-router
#	go build -o /tmp/slicer-chain  ./cmd/slicer-chain
#	go build -o /tmp/slicer-cli    ./cmd/slicer-cli
#	bash ci/shard_smoke.sh
set -euo pipefail

BIN=${BIN:-/tmp}
WORK=$(mktemp -d)
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

ROUTER_ADDR=127.0.0.1:7471
S1_ADDR=127.0.0.1:7472
S2_ADDR=127.0.0.1:7473
S3_ADDR=127.0.0.1:7474
CHAIN_ADDR=127.0.0.1:7475
CLI=("$BIN/slicer-cli")
# The router IS the cloud as far as the CLI is concerned.
COMMON=(-state "$WORK/state.json" -cloud "$ROUTER_ADDR" -chain "$CHAIN_ADDR")

port_free() {
	if (exec 3<>"/dev/tcp/${1%:*}/${1#*:}") 2>/dev/null; then
		echo "port $1 is already in use; refusing to run against a stale server" >&2
		return 1
	fi
	return 0
}

wait_port() { # pid host:port
	for _ in $(seq 1 100); do
		if ! kill -0 "$1" 2>/dev/null; then
			echo "server for $2 (pid $1) exited during startup" >&2
			return 1
		fi
		if (exec 3<>"/dev/tcp/${2%:*}/${2#*:}") 2>/dev/null; then
			exec 3>&- 3<&-
			return 0
		fi
		sleep 0.1
	done
	echo "server on $2 never came up" >&2
	return 1
}

start_shard() { # $1: id  $2: addr  $3: log suffix
	"$BIN/slicer-cloud" -listen "$2" -data-dir "$WORK/$1-data" \
		>"$WORK/$1-$3.log" 2>&1 &
	eval "${1^^}_PID=$!"
	PIDS+=("$!")
	wait_port "$!" "$2"
}

for p in "$ROUTER_ADDR" "$S1_ADDR" "$S2_ADDR" "$S3_ADDR" "$CHAIN_ADDR"; do
	port_free "$p"
done

echo "== boot chain, three shards, router =="
"$BIN/slicer-chain" -listen "$CHAIN_ADDR" -data-dir "$WORK/chain-data" \
	>"$WORK/chain.log" 2>&1 &
CHAIN_PID=$!
PIDS+=("$CHAIN_PID")
wait_port "$CHAIN_PID" "$CHAIN_ADDR"
start_shard s1 "$S1_ADDR" boot
start_shard s2 "$S2_ADDR" boot
start_shard s3 "$S3_ADDR" boot
"$BIN/slicer-router" -listen "$ROUTER_ADDR" -data-dir "$WORK/router-data" \
	-shards "s1=$S1_ADDR,s2=$S2_ADDR,s3=$S3_ADDR" \
	>"$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_port "$ROUTER_PID" "$ROUTER_ADDR"

echo "== build state through the router =="
"${CLI[@]}" init "${COMMON[@]}" -bits 8 -values 1=7,2=9,3=7 \
	-trapdoor-bits 512 -accumulator-bits 512
"${CLI[@]}" insert "${COMMON[@]}" -values 4=7
"${CLI[@]}" status "${COMMON[@]}" | tee "$WORK/status.out"
grep -q 'router: table epoch' "$WORK/status.out"

echo "== pick a source shard and a destination shard =="
"${CLI[@]}" rebalance "${COMMON[@]}" -show | tee "$WORK/table.out"
# Arc lines read "  <shard> [<lo>, <hi>)". The first arc's shard is the
# source; every one of its arcs is a candidate move onto another shard.
SRC=$(grep -E '^\s+s[0-9]+\s+\[' "$WORK/table.out" | head -1 | awk '{print $1}')
for cand in s1 s2 s3; do
	if [ "$cand" != "$SRC" ]; then DST=$cand; break; fi
done
DST_ADDR_VAR="${DST^^}_ADDR"
DST_PID_VAR="${DST^^}_PID"
mapfile -t ARCS < <(grep -E "^\s+$SRC\s+\[" "$WORK/table.out")

echo "== SIGKILL destination shard $DST, then move $SRC arcs until one stalls =="
kill -9 "${!DST_PID_VAR}"
wait "${!DST_PID_VAR}" 2>/dev/null || true
# A move with entries to ship retries its import pages against the dead
# shard and stalls. An arc that holds no entries ships nothing, so its move
# completes at once; that is not a failure, and the next arc is tried. The
# command gets no call deadline so the stalled move can outlive the default
# timeout.
MOVES=0
STALLED=
for ARC in "${ARCS[@]}"; do
	LO=$(echo "$ARC" | sed -E 's/.*\[([0-9a-fx]+),.*/\1/')
	HI=$(echo "$ARC" | sed -E 's/.*, *([0-9a-fx^]+)\).*/\1/')
	[ "$HI" = "2^64" ] && HI=0
	echo "moving $SRC arc [$LO, $HI) to $DST"
	"${CLI[@]}" rebalance "${COMMON[@]}" -call-timeout 0 \
		-lo "$LO" -hi "$HI" -to "$DST" >"$WORK/move.out" 2>&1 &
	MOVE_PID=$!
	sleep 2
	if kill -0 "$MOVE_PID" 2>/dev/null; then
		STALLED=1
		break
	fi
	if ! wait "$MOVE_PID" || ! grep -q "^moved .* to $DST: 0 entries in" "$WORK/move.out"; then
		echo "move finished while the destination was down:" >&2
		cat "$WORK/move.out" >&2
		exit 1
	fi
	MOVES=$((MOVES + 1))
done
if [ -z "$STALLED" ]; then
	echo "no arc of $SRC held entries; no move stalled on the dead destination" >&2
	exit 1
fi

echo "== restart $DST on its data directory; the move must complete =="
start_shard "$DST" "${!DST_ADDR_VAR}" recovered
grep -q 'recovered from' "$WORK/$DST-recovered.log"
wait "$MOVE_PID"
cat "$WORK/move.out"
grep -q "^moved .* to $DST:" "$WORK/move.out"
MOVES=$((MOVES + 1))

echo "== routing table advanced one epoch per completed move ($MOVES) =="
"${CLI[@]}" rebalance "${COMMON[@]}" -show | tee "$WORK/table2.out"
grep -q "^routing table epoch $MOVES " "$WORK/table2.out"

echo "== fresh verified search settles on chain =="
"${CLI[@]}" search "${COMMON[@]}" -op '=' -value 7 | tee "$WORK/search.out"
grep -q 'on-chain verification passed' "$WORK/search.out"
grep -q 'matching record IDs: \[1 3 4\]' "$WORK/search.out"

echo "shard smoke: OK"
