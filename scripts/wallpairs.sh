#!/usr/bin/env bash
# Measures the simulator's wall clock in pairs. It builds the benchmark at
# BASE and at the working tree, runs N alternating pairs of one workload at
# seed 1 (the base first in odd pairs, the working tree first in even ones),
# and prints, for wall_us_per_vop, allocs_per_vop and setup_s, each side's
# median and quartiles, the median of the per-pair ratios (working tree /
# base) and how many pairs the working tree won. It also says whether the five virtual
# metrics were bit-identical in every pair.
#
#   bash scripts/wallpairs.sh BASE WORKLOAD N [SECONDS]
#
# BASE is any commit; SECONDS (default 10) is the benchmark's --seconds.
# Everything it writes — BASE's tree, the two binaries, the records — stays
# under .bench_build/wallpairs/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '10p' "$0" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=${4:-10}
rev=$(git rev-parse --verify "$base^{commit}")
build=$PWD/.bench_build
out=$build/wallpairs
tree=$out/tree-$rev
if [ ! -d "$tree" ]; then
	rm -rf "$tree.tmp"
	mkdir -p "$tree.tmp"
	git archive "$rev" | tar -x -C "$tree.tmp"
	mv "$tree.tmp" "$tree"
fi
# The same toolchain settings as benchmark/run.sh, one build cache for both.
compile() {
	env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -C "$1/benchmark" -o "$2" .
}
compile "$tree" "$out/base.bin"
compile "$PWD" "$out/head.bin"
rm -f "$out/base.jsonl" "$out/head.jsonl"
run() {
	"$out/$1.bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 -out "$out/$1.jsonl" >/dev/null 2>&1
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run base && run head; else run head && run base; fi
done
python3 - "$out" "$workload" "$seconds" "${rev:0:7}" <<'EOF'
import json, statistics, sys
out, workload, seconds, rev = sys.argv[1:]
VIRTUAL = ["vops_per_s", "vlat_p50_ms", "vlat_p99_ms", "vlat_p999_ms", "xaz_bytes_per_vop"]
base, head = ([json.loads(l) for l in open(f"{out}/{side}.jsonl")] for side in ("base", "head"))
print(f"{workload} seed 1, --seconds {seconds}: {len(base)} pairs, base {rev} vs working tree")
print(f"{'metric':<16} {'side':<12} {'q1':>9} {'median':>9} {'q3':>9}")
for m in ("wall_us_per_vop", "allocs_per_vop", "setup_s"):
    b, h = ([r["metrics"][m]["value"] for r in rs] for rs in (base, head))
    for side, xs in (("base", b), ("working tree", h)):
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        print(f"{m:<16} {side:<12} {q1:9.3f} {med:9.3f} {q3:9.3f}")
    ratio = statistics.median(y / x for x, y in zip(b, h))
    won = sum(y < x for x, y in zip(b, h))
    print(f"{m:<16} median ratio {ratio:.4f}, working tree lower in {won}/{len(b)} pairs")
same = all(x["metrics"][m]["value"] == y["metrics"][m]["value"] for x, y in zip(base, head) for m in VIRTUAL)
print("virtual metrics bit-identical in every pair:", "yes" if same else "NO")
EOF
