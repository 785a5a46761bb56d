#!/bin/sh
# Developer pre-flight: clean build (warnings fatal), quick tests, the
# engine self-benchmark, and the single- vs multi-domain paths of the
# parallel experiment runner. The full adversarial suite is `dune runtest`.
set -eu
cd "$(dirname "$0")/.."

echo "== build (warnings are errors under the dev profile) =="
dune build

echo "== quick tests (dune build @runtest-quick) =="
dune build @runtest-quick

echo "== engine self-benchmark, jobs=2 (writes BENCH_engine.json) =="
# --jobs 2 makes the engine section's fixed batch take both the
# single-domain (jobs=1) and multi-domain (jobs=2) paths and assert
# the results are identical.
dune exec bench/main.exe -- engine --jobs 2

echo "== figures byte-identity across --jobs (1 vs 3) =="
tmp1=$(mktemp) && tmp3=$(mktemp)
trap 'rm -f "$tmp1" "$tmp3"' EXIT
dune exec bin/consensus_sim.exe -- figures latency --jobs 1 > "$tmp1"
dune exec bin/consensus_sim.exe -- figures latency --jobs 3 > "$tmp3"
cmp "$tmp1" "$tmp3"

echo "== live runtime smoke (3 replicas, both protocols; exits 1 on violation) =="
# Short real-domain runs: ~0.6s measured + drain per protocol, well
# under the 2s budget. `live` exits non-zero if the post-run
# consistency check over the joined replica views finds a violation.
dune exec bin/consensus_sim.exe -- live --protocol onepaxos \
  --replicas 3 --clients 2 --duration-s 0.5 --drain-s 0.1
dune exec bin/consensus_sim.exe -- live --protocol multipaxos \
  --replicas 3 --clients 2 --duration-s 0.5 --drain-s 0.1

echo "== codec round-trip smoke (full wire vocabulary, qcheck + zero-alloc) =="
# The codec suite re-encodes every Wire.t constructor through the
# fixed-slot binary codec: bijection, truncation/garbage rejection,
# and the zero-allocation encode guarantee.
dune exec test/test_main.exe -- test codec -q -c

echo "== socket-transport live smoke (3 replicas, both protocols, <=2s) =="
# The same cores as separate processes over stream sockets, codec as
# the wire format. Exit 3 means this host cannot provide
# sockets/processes — skip, don't fail.
for proto in onepaxos multipaxos; do
  rc=0
  dune exec bin/consensus_sim.exe -- live --protocol "$proto" \
    --transport socket --replicas 3 --clients 2 \
    --duration-s 0.5 --drain-s 0.1 || rc=$?
  if [ "$rc" -eq 3 ]; then
    echo "sockets unavailable on this host; skipping"
    break
  elif [ "$rc" -ne 0 ]; then
    exit "$rc"
  fi
done

echo "== live shard smoke (2 groups, cross-shard 2PC, both protocols) =="
# Sharded real-domain runs: 2 consensus groups of 2 replicas plus a
# router per group, 30% of commands cross-shard multi-puts. ~0.5s
# measured + drain per protocol, within the 2s budget. `live` exits
# non-zero on a per-group consistency violation OR a cross-shard
# atomicity violation, so both checks gate the pre-flight.
dune exec bin/consensus_sim.exe -- live --protocol onepaxos \
  --groups 2 --replicas 2 --clients 2 --cross-shard-ratio 0.3 \
  --duration-s 0.4 --drain-s 0.1
dune exec bin/consensus_sim.exe -- live --protocol multipaxos \
  --groups 2 --replicas 2 --clients 2 --cross-shard-ratio 0.3 \
  --duration-s 0.4 --drain-s 0.1

echo "== sim byte-identity at groups=1 (sharding off leaves output untouched) =="
# Passing --groups 1 explicitly must be byte-identical to the default
# sim run: at one group there are no routers, no 2PC participants, no
# extra rng draws — the shard layer must leave the trace untouched.
tmpd=$(mktemp) && tmpg=$(mktemp)
trap 'rm -f "$tmp1" "$tmp3" "$tmpd" "$tmpg"' EXIT
dune exec bin/consensus_sim.exe -- run --protocol 1paxos \
  --replicas 3 --clients 5 --duration-ms 30 > "$tmpd"
dune exec bin/consensus_sim.exe -- run --protocol 1paxos \
  --replicas 3 --clients 5 --duration-ms 30 \
  --groups 1 --cross-shard-ratio 0 > "$tmpg"
cmp "$tmpd" "$tmpg"

echo "== nemesis smoke: crash the active acceptor mid-run on the live runtime =="
# Replica 1 hosts the initial active acceptor; it is killed 0.25s into
# a 0.8s measured phase (volatile state lost) and restarted 0.3s later
# through the protocol's own recover path. `nemesis` exits non-zero if
# the post-run consistency check fails or no commit lands after the
# crash, so a broken failover path fails the pre-flight.
dune exec bin/consensus_sim.exe -- nemesis --backend live --protocol 1paxos \
  --replicas 3 --clients 2 --duration-ms 800 --crash 1:250:300

echo "== open-loop load smoke (both backends, <=2s) =="
# Open-loop driver with leader leases on the simulator (deterministic,
# virtual time) and without on real domains. `load` exits non-zero on a
# consistency violation OR any stale session read, so the lease
# read-floor barrier and the read-your-writes checker both gate the
# pre-flight.
dune exec bin/consensus_sim.exe -- load -p 1paxos -d 20 --rate 20000 \
  --key-dist zipf:0.99 --reads 0.9 --lease-us 2000 --lease-skew-us 20
dune exec bin/consensus_sim.exe -- load --backend live -p multipaxos \
  -d 300 --rate 5000 --poisson

echo "== live 1Paxos lease smoke (leases stay held between 50 ms detector ticks) =="
# 20 ms leases on real domains, 90% reads. The live failure detector
# ticks every 50 ms, so the leader must renew at the lease's own
# cadence to serve nearly every read locally. Fails when lease reads
# fall below 80% of the reads completed (estimated as 90% of the
# completions), or on a consistency violation.
out=$(dune exec bin/consensus_sim.exe -- load --backend live -p 1paxos \
  -d 300 --rate 5000 --lease-us 20000 --lease-skew-us 200 --reads 0.9)
echo "$out"
completed=$(echo "$out" | sed -n 's/.* completed \([0-9]*\) .*/\1/p')
lease=$(echo "$out" | sed -n 's/.*lease reads \([0-9]*\) .*/\1/p')
if [ -z "$completed" ] || [ -z "$lease" ] || [ $((100 * lease)) -lt $((72 * completed)) ]; then
  echo "lease reads ${lease:-?} below 80% of ~90% of ${completed:-?} completions"
  exit 1
fi

echo "== model-checker smoke (exhaustive, one crash, <=2s) =="
# The bounded explorer must fully exhaust the acceptance configs from
# ISSUE 10 — 3 replicas, crash budget 1, no timer nondeterminism — and
# say so. `explore` exits 1 on any safety or liveness violation, so a
# regression that re-opens a counterexample fails the pre-flight; the
# grep additionally rejects a silent downgrade to outcome=bounded, and
# the stats line is pinned exactly: a change to the explorer's world
# that grows, shrinks or reorders the explored space fails here even
# when the verdict survives.
explore_smoke() {
  expect=$1
  shift
  out=$(dune exec bin/consensus_sim.exe -- explore "$@")
  echo "$out" | grep -q '^outcome=exhausted$'
  stats=$(echo "$out" | grep '^states=')
  if [ "$stats" != "$expect" ]; then
    echo "explored space changed for $*:"
    echo "  got      $stats"
    echo "  expected $expect"
    exit 1
  fi
}
explore_smoke 'states=251 executions=251 choices=1662 branches=249 dedup_hits=105 dedup_ratio=0.295 sleep_skips=13 sleep_ratio=0.050 rounds=2 closures=16' \
  -p 1paxos --fires 0 --crashes 1 --commands 2 --max-depth 48
explore_smoke 'states=3824 executions=3824 choices=35244 branches=3822 dedup_hits=2430 dedup_ratio=0.389 sleep_skips=605 sleep_ratio=0.137 rounds=2 closures=10' \
  -p multipaxos --fires 0 --crashes 1 --commands 1 --max-depth 48

echo "== BENCH_explore.json sanity (committed artifact of 'bench explore') =="
# Regenerated by `dune exec bench/main.exe -- explore`; here we only
# check the committed artifact parses and has the promised shape: the
# two crash-tolerant protocols exhausted with nonzero reduction ratios,
# and 2PC convicted and shrunk to the single-crash counterexample.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
rows = json.load(open("BENCH_explore.json"))["rows"]
keys = ["protocol", "outcome", "states", "executions", "choices_applied",
        "dedup_ratio", "sleep_ratio", "states_per_s", "trace_len", "shrunk_len"]
by = {r["protocol"]: r for r in rows}
for k in keys:
    assert all(k in r for r in rows), f"missing key {k}"
for p in ("1paxos", "multipaxos"):
    assert by[p]["outcome"] == "exhausted", f"{p} did not exhaust"
    assert by[p]["dedup_ratio"] > 0, f"{p}: dedup never pruned"
    assert by[p]["sleep_ratio"] > 0, f"{p}: sleep sets never pruned"
assert by["2pc"]["outcome"] == "violated", "2pc escaped its known violation"
assert by["2pc"]["shrunk_len"] == 1, "2pc counterexample not 1-minimal"
print(f"BENCH_explore.json: {len(rows)} rows, ok")
EOF
else
  echo "python3 unavailable; skipping JSON validation"
fi

echo "== BENCH_service.json sanity (committed artifact of 'bench service') =="
# The service curves are regenerated by `dune exec bench/main.exe --
# service`; here we only check the committed artifact parses and has
# the promised shape: >=4 load points per backend x curve, both
# backends, at least one flagged knee.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import collections, json
rows = json.load(open("BENCH_service.json"))["rows"]
keys = ["backend", "curve", "offered_ops", "achieved_ops", "p50_us",
        "p99_us", "p999_us", "service_p99_us", "lease_reads", "knee"]
assert rows, "no rows"
for k in keys:
    assert all(k in r for r in rows), f"missing key {k}"
assert {r["backend"] for r in rows} == {"sim", "live"}, "need both backends"
points = collections.Counter((r["backend"], r["curve"]) for r in rows)
assert all(v >= 4 for v in points.values()), f"need >=4 points/curve: {points}"
assert any(r["knee"] for r in rows), "no knee flagged"
print(f"BENCH_service.json: {len(rows)} rows over {len(points)} curves, ok")
EOF
else
  echo "python3 unavailable; skipping JSON validation"
fi

echo "== OK =="
