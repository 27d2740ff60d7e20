#!/usr/bin/env bash
# Results gate: regenerate every committed file under results/ and fail if
# any of them drifts by a byte.
#
# Every experiment with a ResultFile in the registry
# (internal/bench/registry.go; TestRegistryIsTheOneList holds this script to
# that list), plus the whole `-exp all` printout, is rerun at the committed
# settings. The same runs are the coverage census: ncbench is built once with
# -cover, two census-only runs add loss recovery and the chrome trace, and
# `go tool covdata func` over all of them yields
#
#   results/unreached.txt  every internal/ function none of the runs executes
#                          ("path Func");
#   results/partial.txt    every internal/ function they execute only in part
#                          ("path Func NN.N%").
#
# Both are sorted and carry no line numbers, receiver stars or type
# parameters, so they do not move with the Go version; code that joins or
# leaves either list shows up as a diff in results/. TestCensusNamesLiveFuncs
# (internal/detguard) checks in tier-1 that every line still names a
# function declared in its file.
#
# Run from anywhere: bash scripts/results-gate.sh (about 2.5 minutes on two
# vCPUs). It rewrites results/ in place, so a failing run leaves the drift in
# the working tree for `git diff`.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ncbench="$tmp/ncbench"
export GOCOVERDIR="$tmp/cover"
mkdir -p "$GOCOVERDIR"

go build -cover -coverpkg=ncache/... -o "$ncbench" ./cmd/ncbench
"$ncbench" -exp fig5b -latency > /dev/null
for exp in fig-fault fig-fault-sweep writeback fig-avail scaleout; do
  "$ncbench" -exp $exp > /dev/null
done
"$ncbench" -exp all > results/ncbench-all.txt
"$ncbench" -exp transport -fault frame-loss > /dev/null
"$ncbench" -exp fig5b -trace "$tmp/trace.json" > /dev/null

touch "$tmp/unreached" "$tmp/partial"
go tool covdata func -i="$GOCOVERDIR" |
  awk -v unreached="$tmp/unreached" -v partial="$tmp/partial" '$1 ~ /^ncache\/internal\// && $NF != "100.0%" {
    sub(/^ncache\//, "", $1); sub(/:[0-9]+:$/, "", $1)
    sub(/^\*/, "", $2); gsub(/\[[^]]*\]/, "", $2)
    if ($NF == "0.0%") print $1, $2 > unreached
    else print $1, $2, $NF > partial
  }'
LC_ALL=C sort "$tmp/unreached" > results/unreached.txt
LC_ALL=C sort "$tmp/partial" > results/partial.txt

git diff --exit-code -- results/
