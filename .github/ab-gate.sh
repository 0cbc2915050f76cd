#!/usr/bin/env bash
# Same-runner A/B of the interval-cost benchmark: <base-ref> against the
# checkout this is run from (the root of the repo).
#
#	bash .github/ab-gate.sh <base-ref> [-digest-change]
#
# The base ref is checked out under .bench_build/ab/base, both trees are
# built by their own benchmark/run.sh, and three pairs of
# `-all -runs 1 -seconds 3 -seed i` run alternately (which side goes
# first alternates per pair, so neither always has the warmer host). Each
# side's three result sets are merged and the exit code is `-compare`'s:
# a digest change without -digest-change, a rise in failed intervals or
# a resolved loss beyond BENCHMARK.json's bounds fails; `unresolved`
# does not. Everything written lands under .bench_build/ (gitignored).
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <base-ref> [-digest-change]" >&2; exit 2; }
base_ref=$1
shift
head=$PWD ab=$PWD/.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/base"
trap 'rm -rf "$ab/base"' EXIT # a second source tree left in the checkout would answer every grep -r and gofmt -l
git archive "$base_ref" | tar -x -C "$ab/base"

# side <name> <tree> <seed>: one result set; a run that fails its output
# checks exits 1 but still writes its set, and -compare judges it.
side() { (cd "$2" && bash benchmark/run.sh -all -runs 1 -seconds 3 -seed "$3" -out "$ab/$1-$3.json") || true; }
for i in 1 2 3; do
	if [ $((i % 2)) -eq 1 ]; then
		side base "$ab/base" "$i"
		side head "$head" "$i"
	else
		side head "$head" "$i"
		side base "$ab/base" "$i"
	fi
done
for s in base head; do
	jq -s '.[0] + {records: (map(.records) | add)}' "$ab/$s"-[123].json >"$ab/$s.json"
done
bash benchmark/run.sh -compare "$@" "$ab/base.json" "$ab/head.json"
