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
# Run from anywhere: bash scripts/results-gate.sh (1 min 9–22 s on two vCPUs,
# 1 min 51 s with the runs one after another). It rewrites results/ in place,
# so a failing run leaves the drift in the working tree for `git diff`.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ncbench="$tmp/ncbench"
export GOCOVERDIR="${CENSUS_GATE_COVERDIR:-$tmp/cover}"
mkdir -p "$GOCOVERDIR"

go build -cover -coverpkg=ncache/... -o "$ncbench" ./cmd/ncbench
# The runs are independent, so they go at most nproc at a time, -exp all (the
# longest) first. Each line is the run's stdout, then its arguments; xargs
# exits non-zero if any run fails. Two runs write the same file only with
# the same bytes (fig-fault alone and within -exp all).
xargs -P "$(nproc)" -L 1 bash -c 'out=$1; shift; "$0" "$@" > "$out"' "$ncbench" <<EOF
results/ncbench-all.txt -exp all
/dev/null -exp fig5b -latency
/dev/null -exp fig-fault
/dev/null -exp fig-fault-sweep
/dev/null -exp writeback
/dev/null -exp fig-avail
/dev/null -exp scaleout
/dev/null -exp transport -fault frame-loss
/dev/null -exp fig5b -trace $tmp/trace.json
EOF

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

# scripts/untested.sh runs the gate for its coverage (CENSUS_GATE_COVERDIR)
# and checks the diff itself, once its own census is written.
[ -n "${CENSUS_GATE_COVERDIR:-}" ] && exit 0
git diff --exit-code -- results/
