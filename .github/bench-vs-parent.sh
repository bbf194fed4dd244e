#!/bin/sh
# Usage, from the root of the tree under test:
#
#	git worktree add ../parent HEAD^1
#	.github/bench-vs-parent.sh ../parent
#
# Compares this tree's benchmark times with the parent commit's on the same
# machine, so the reference shares the runner's hardware and load. Each
# tree's test binaries are built once, then both run in 6 interleaved
# rounds, alternating which side goes first. A round runs perfbench's
# engine, ping-pong, allreduce and 27-point stencil micros, its replayed
# campaign trial (core.replay_trial, the recycled trial path) and its
# clamped failure draw (fault.draw) at -benchtime 0.5s, then the root
# BenchmarkSweepSerial (the Figure 6 panel through the pooled runner) and
# BenchmarkFig5bHPCCG (the Figure 5b weak-scaling points, HPCCG's kernels
# end to end) at 3x: 9 benchmarks.
# The script fails when a benchmark's median ns/op here is more than 1/0.7
# times the parent's: two builds of the same code differ by far less over
# 6 rounds, so only a real regression trips it. The raw results of both
# sides are left in artifacts/bench-vs-parent/.
set -eu
export LC_ALL=C

head=$(pwd)
parent=$(cd "$1" && pwd)
out=$head/artifacts/bench-vs-parent
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
mkdir -p "$out"
: >"$out/head.txt"
: >"$out/parent.txt"

build() { # side tree
	(cd "$2/perfbench" && go test -c -o "$bin/$1-perfbench.test")
	(cd "$2" && go test -c -o "$bin/$1-root.test" .)
}

run() { # side tree
	(cd "$2/perfbench" && "$bin/$1-perfbench.test" -test.run '^$' -test.benchmem \
		-test.bench 'Micros/(sim.event|mpi.pingpong|mpi.allreduce64|mpi.allreduce512|kernels.stencil27|core.replay_trial|fault.draw)$' \
		-test.benchtime 0.5s -test.timeout 10m) >>"$out/$1.txt"
	(cd "$2" && "$bin/$1-root.test" -test.run '^$' -test.benchmem \
		-test.bench '(SweepSerial|Fig5bHPCCG)$' -test.benchtime 3x -test.timeout 10m) >>"$out/$1.txt"
}

# medians FILE prints "name median-ns/op" per benchmark, sorted by name.
medians() {
	awk '/^Benchmark/ { print $1, $3 }' "$1" | sort -k1,1 -k2,2g | awk '
		{ v[$1, ++n[$1]] = $2 }
		END {
			for (k in n) {
				c = n[k]
				print k, c % 2 ? v[k, (c + 1) / 2] : (v[k, c / 2] + v[k, c / 2 + 1]) / 2
			}
		}' | sort
}

build head "$head"
build parent "$parent"
for i in 1 2 3 4 5 6; do
	if [ $((i % 2)) -eq 1 ]; then
		run head "$head"
		run parent "$parent"
	else
		run parent "$parent"
		run head "$head"
	fi
done

medians "$out/parent.txt" >"$bin/parent.med"
medians "$out/head.txt" >"$bin/head.med"
join "$bin/parent.med" "$bin/head.med" | awk '
	BEGIN { limit = 1 / 0.7 }
	{
		r = $3 / $2
		printf "%-36s parent %14.1f  head %14.1f ns/op  head/parent %.3f\n", $1, $2, $3, r
		if (r > limit) { printf "  slower than the parent by more than %.3fx\n", limit; bad = 1 }
		n++
	}
	END {
		if (n != 9) { printf "want 9 benchmarks on both sides, got %d\n", n; exit 1 }
		exit bad
	}'
