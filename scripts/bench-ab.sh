#!/usr/bin/env bash
# Interleaved same-host A/B of the repository benchmark (BENCHMARK.json).
#
#   scripts/bench-ab.sh [BASE_REV [NEW_REV]]
#
# Exports the committed files of BASE_REV (default HEAD^) and NEW_REV
# (default HEAD) into fresh directories under ${TMPDIR:-/tmp}, as the
# benchmark itself is run, then for each workload BENCHMARK.json lists
# runs both sides' perfbench/run.sh for its run_seconds, ten times a side,
# alternating which side goes first. Prints one Markdown table per
# workload (cmd/benchjson -ab): each metric's median and IQR per side, the
# ratio of medians, how many run pairs read higher on the new side, and a
# Mann–Whitney U p-value. Ten pairs is the fewest a claimed gain is judged
# on, so the count is fixed.
#
# SEED (default 1) picks the workload seed, for example a held-out one.
# To measure uncommitted work, stage it and pass NEW_REV=$(git stash
# create): that commit holds the index and working tree and leaves both
# untouched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_rev="${1:-HEAD^}"
new_rev="${2:-HEAD}"
seed="${SEED:-1}"
pairs=10
command -v jq > /dev/null || { echo "bench-ab: needs jq to read BENCHMARK.json" >&2; exit 2; }
secs="$(jq -r .run_seconds BENCHMARK.json)"
workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"

work="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
for side in base new; do
	rev="$base_rev"
	[[ $side == new ]] && rev="$new_rev"
	mkdir -p "$work/$side"
	git archive "$rev" | tar -x -C "$work/$side"
	echo "bench-ab: $side = $(git rev-parse --short "$rev")" >&2
done

# run SIDE WORKLOAD appends one run's output to WORKLOAD.SIDE.log.
run() {
	bash "$work/$1/perfbench/run.sh" --workload "$2" --seed "$seed" --seconds "$secs" --trace 0 \
		>> "$work/$2.$1.log"
}

for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then run base "$w"; run new "$w"; else run new "$w"; run base "$w"; fi
		echo "bench-ab: $w pair $((i + 1))/$pairs" >&2
	done
done
for w in $workloads; do
	echo
	echo "### $w ($pairs interleaved pairs, ${secs}s each, seed $seed)"
	for side in base new; do
		echo "$side digests: $(grep -h '^digest:' "$work/$w.$side.log" | sort | uniq -c | xargs)"
	done
	echo
	go run ./cmd/benchjson -ab "$work/$w.base.log" "$work/$w.new.log"
done
