#!/usr/bin/env bash
# A/B workloads of BENCHMARK.json between two checkouts, the way a perf PR
# reports it: build both `perfbench` packages once, then per workload run
# alternating untraced pairs of `run_seconds` each (which side runs first
# alternates from pair to pair), and print every run, each side's median and
# quartiles per end-to-end metric and how many pairs the change won (ties
# count for neither side).
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload>[,<workload>...] [pairs=10] [seed=1]
#
# Both directories are checkouts built where they stand, each run from its own
# root; the top of the output names each side's commit and dirty-file count.
# Build both sides the same way — `git clone` the parent *and* a copy of the
# change next to each other — because the build directory enters the crate
# hashes that order functions in the binary, which alone moves `grad_loops` by
# a few per cent (docs/benchmarking.md, "The build-directory effect").
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
IFS=, read -r -a workloads <<<"$3"
pairs="${4:-10}"
seed="${5:-1}"

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")"
for side in parent change; do
  dir="${!side}"
  echo "$side: $dir at $(git -C "$dir" rev-parse --short HEAD)," \
    "$(git -C "$dir" status --porcelain | wc -l) dirty file(s)"
  cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

out="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$out"' EXIT
run() { # <workload> <side> <dir> <pair>
  (cd "$3" && ./perfbench/target/release/perfbench --workload "$1" \
    --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >"$out/$1.$2.$4.json"
}
for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) = 1 ]; then
      run "$workload" parent "$parent" "$pair"; run "$workload" change "$change" "$pair"
    else
      run "$workload" change "$change" "$pair"; run "$workload" parent "$parent" "$pair"
    fi
    echo "$workload: pair $pair/$pairs done" >&2
  done

  python3 - "$out" "$pairs" "$change/BENCHMARK.json" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

out, pairs, contract, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(contract))["end_to_end"]
runs = {side: [json.load(open(f"{out}/{workload}.{side}.{p}.json")) for p in range(1, pairs + 1)]
        for side in ("parent", "change")}
print(f"{workload}, seed {seed}, {pairs} alternating pairs of {seconds} s (odd pairs: parent first)")
failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
print(f"failed operations: parent {failed['parent']}, change {failed['change']}")


def fmt(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def spread(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    side = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
    ties = sum(c == p for p, c in zip(side["parent"], side["change"]))
    (pm, p1, p3), (cm, c1, c3) = spread(side["parent"]), spread(side["change"])
    delta = f"{(cm / pm - 1) * 100:+.1f} %" if pm else "n/a"
    apart = abs(cm - pm) > (p3 - p1)
    print(f"{name} [{m['unit']}, {m['better']} is better]")
    print(f"  parent {fmt(pm)} [{fmt(p1)}, {fmt(p3)}]   change {fmt(cm)} [{fmt(c1)}, {fmt(c3)}]   {delta}")
    print(f"  change ahead in {wins}/{pairs} pairs ({ties} ties); medians further apart than "
          f"the parent's quartile distance: {'yes' if apart else 'no'}")
    print("  parent runs: " + " ".join(map(fmt, side["parent"])))
    print("  change runs: " + " ".join(map(fmt, side["change"])))
EOF
done
