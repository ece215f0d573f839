#!/usr/bin/env bash
# Paired A/B run of the benchmark: a parent revision against the
# working tree, run from the repository root.
#
#   bash scripts/ab_bench.sh --parent HEAD~1 --workload modern-big --seeds "1 2" --pairs 10
#   bash scripts/ab_bench.sh --parent HEAD --workload fig10-grid --pairs 1 -- --seconds 2
#
# The parent's committed files are exported (git archive) into a
# temporary directory. For each seed, every pair runs
#
#   bash bench/run.sh --workload W --seed S --trace 0 [flags after --]
#
# once there ("parent") and once in the working tree ("change"): odd
# pairs run the parent first, even pairs the change first, so drift in
# the machine's speed hits both sides alike. Each side builds the
# benchmark from its own source, under its own .bench_build/.
#
# Output, one JSON object per line: each run's result line as the
# benchmark prints it, tagged with side, seed and pair; then one summary
# per seed. A summary holds, per end-to-end metric of BENCHMARK.json,
# the raw runs of each side, their [q1, median, q3] (linear
# interpolation), the ratio of the medians and the number of pairs the
# change won. The script reads bench/ and BENCHMARK.json and changes
# neither. It exits 1 when a run fails.
set -euo pipefail

parent=HEAD
workload=modern-big
seeds=1
pairs=10
usage() {
	echo "usage: $0 [--parent REV] [--workload W] [--seeds \"S...\"] [--pairs N] [-- bench flags]" >&2
	exit 2
}
while [ $# -gt 0 ]; do
	case "$1" in
	--parent) parent=$2; shift 2 ;;
	--workload) workload=$2; shift 2 ;;
	--seeds) seeds=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--) shift; break ;;
	*) usage ;;
	esac
done
[ "$pairs" -ge 1 ] 2>/dev/null || usage

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/logs"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
runs="$tmp/runs.jsonl"

# run SIDE DIR SEED PAIR: one benchmark run; its tagged result line goes
# to stdout and to the runs file.
run() {
	local side=$1 dir=$2 seed=$3 pair=$4
	shift 4
	local log="$tmp/logs/$side-$seed-$pair.txt"
	if ! (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0 "$@") >"$log" 2>&1; then
		echo "ab_bench: $side run (seed $seed, pair $pair) failed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	local line
	line=$(tail -n 1 "$log")
	printf '{"side":"%s","rev":"%s","workload":"%s","seed":%s,"pair":%s,"result":%s}\n' \
		"$side" "$([ "$side" = parent ] && echo "$rev" || echo worktree)" "$workload" "$seed" "$pair" "$line" |
		tee -a "$runs"
}

extra=("$@")
for seed in $seeds; do
	for ((p = 1; p <= pairs; p++)); do
		if ((p % 2 == 1)); then
			run parent "$tmp/parent" "$seed" "$p" ${extra[@]+"${extra[@]}"}
			run change "$root" "$seed" "$p" ${extra[@]+"${extra[@]}"}
		else
			run change "$root" "$seed" "$p" ${extra[@]+"${extra[@]}"}
			run parent "$tmp/parent" "$seed" "$p" ${extra[@]+"${extra[@]}"}
		fi
	done
done

python3 - "$runs" "$root/BENCHMARK.json" <<'EOF'
import json, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        i = p * (len(xs) - 1)
        lo = int(i)
        hi = min(lo + 1, len(xs) - 1)
        return round(xs[lo] + (xs[hi] - xs[lo]) * (i - lo), 4)
    return [q(0.25), q(0.5), q(0.75)]

for seed in sorted({r["seed"] for r in runs}):
    side = {s: sorted((r for r in runs if r["seed"] == seed and r["side"] == s), key=lambda r: r["pair"])
            for s in ("parent", "change")}
    metrics = {}
    for name, direction in sorted(better.items()):
        vals = {s: [r["result"]["metrics"][name]["value"] for r in side[s]] for s in side}
        unit = side["parent"][0]["result"]["metrics"][name]["unit"]
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "unit": unit,
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]],
            "parent": qp,
            "change": qc,
            "change_over_parent": round(qc[1] / qp[1], 3) if qp[1] else None,
            "change_better_pairs": won,
        }
    every = side["parent"] + side["change"]
    print(json.dumps({
        "summary": f'{runs[0]["workload"]} seed {seed}',
        "pairs": len(side["change"]),
        "failed": sum(r["result"]["failed"] for r in every),
        "attempted": sum(r["result"]["attempted"] for r in every),
        "all_correct": all(r["result"]["correct"] for r in every),
        "metrics": metrics,
    }))
EOF
