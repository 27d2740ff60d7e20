#!/usr/bin/env bash
# Union coverage census: every internal/ function that no run of the program
# and no test executes in full, with the share of its statements that some
# run does execute.
#
# The union merges the raw coverage of five run sets, each built with
# -cover -coverpkg=ncache/...:
#
#   1. the results gate's runs (scripts/results-gate.sh, which keeps its
#      coverage in $CENSUS_GATE_COVERDIR when that is set);
#   2. `go test ./...`, once as is and once with NCACHE_NETBUF_DEBUG=1;
#   3. the fault-seed matrix, `go test -run 'Fault|Loss|RTO' ./internal/...`
#      at NCACHE_FAULT_SEED 1, 7 and 1234;
#   4. `ncmark -child` (benchmarks/ncmark, built as it stands) on all seven
#      workloads at seeds 1 and 7, repetitions 0-9;
#   5. `ncmark -kernels`.
#
# It writes results/untested.txt in results/partial.txt's format ("path Func
# NN.N%", sorted; 0.0% is a function no run enters, or one with no
# statements) and prints to stderr how many internal/ statements nothing
# executes. A line names code that nothing executes: either a case the
# program can produce and no test covers, or code to delete. A function that
# joins or leaves the list, or whose share moves, is a diff in results/;
# TestCensusNamesLiveFuncs (internal/detguard) checks in tier-1 that every
# line still names a function declared in its file.
#
# With -blocks it also prints every unexecuted statement block
# ("file:line.col,line.col statements") to stdout, for a sweep.
#
# Run from anywhere: bash scripts/untested.sh (3 min 15 s on two vCPUs, the
# results gate included). It rewrites results/ in place and ends, as the gate
# does, by failing on any drift under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

blocks=false
[ "${1:-}" = -blocks ] && blocks=true

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/gate" "$tmp/test" "$tmp/debug" "$tmp/fault" "$tmp/ncmark"

# 1. The results gate, which leaves the drift check to the end of this script.
CENSUS_GATE_COVERDIR="$tmp/gate" bash scripts/results-gate.sh

# 2 and 3. The test binaries write raw coverage to -test.gocoverdir; a
# failing run prints its log and stops the census. TestCensusNamesLiveFuncs
# is skipped: it checks the very file this script is rewriting.
cover=(-cover -coverpkg=ncache/... -count=1 -skip TestCensusNamesLiveFuncs)
gotest() {
  local dir=$1; shift
  go test "${cover[@]}" "$@" -args -test.gocoverdir="$dir" > "$tmp/test.log" ||
    { cat "$tmp/test.log"; exit 1; }
}
gotest "$tmp/test" ./...
NCACHE_NETBUF_DEBUG=1 gotest "$tmp/debug" ./...
for seed in 1 7 1234; do
  NCACHE_FAULT_SEED=$seed gotest "$tmp/fault" -run 'Fault|Loss|RTO' ./internal/...
done

# 4 and 5. ncmark is a module of its own; its children run nproc at a time,
# at the GOMAXPROCS its own runner gives them.
ncmark="$tmp/ncmark.bin"
go build -C benchmarks/ncmark -cover -coverpkg=ncache/... -o "$ncmark" .
export GOCOVERDIR="$tmp/ncmark"
for w in nfs-hit nfs-miss sfs-mix writeback scaleout scaleout-par mirror-outage; do
  for seed in 1 7; do
    for rep in 0 1 2 3 4 5 6 7 8 9; do
      echo "$w" "$seed" "$rep"
    done
  done
done | xargs -P "$(nproc)" -L 1 bash -c '
  procs=1; [ "$1" = scaleout-par ] && procs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
  GOMAXPROCS=$procs "$0" -child "{\"Workload\":\"$1\",\"Seed\":$2,\"Rep\":$3}" > /dev/null' "$ncmark"
"$ncmark" -kernels > /dev/null
unset GOCOVERDIR

dirs="$tmp/gate,$tmp/test,$tmp/debug,$tmp/fault,$tmp/ncmark"
go tool covdata func -i="$dirs" |
  awk '$1 ~ /^ncache\/internal\// && $NF != "100.0%" {
    sub(/^ncache\//, "", $1); sub(/:[0-9]+:$/, "", $1)
    sub(/^\*/, "", $2); gsub(/\[[^]]*\]/, "", $2)
    print $1, $2, $NF
  }' | LC_ALL=C sort > results/untested.txt

# Each block once, with whether any run counted it: "hit file:range stmts".
go tool covdata textfmt -i="$dirs" -o "$tmp/profile"
awk 'NR > 1 { n = $NF; $NF = ""; sub(/^ncache\//, ""); sub(/ $/, "")
    if (!($0 in hit)) hit[$0] = 0
    if (n > 0) hit[$0] = 1 }
  END { for (k in hit) print hit[k], k }' "$tmp/profile" > "$tmp/blocks"
awk '$2 ~ /^internal\// { all += $3; if (!$1) none += $3 }
  END { printf "untested.sh: %d of %d internal/ statements are executed by nothing\n", none, all }' "$tmp/blocks" >&2
if $blocks; then
  awk '!$1 { print $2, $3 }' "$tmp/blocks" | LC_ALL=C sort -t: -k1,1 -k2,2n
fi

git diff --exit-code -- results/
