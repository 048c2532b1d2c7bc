#!/bin/sh
# loc.sh prints the non-test Go line count per package and in total, the
# figure ROADMAP.md quotes at every re-anchor. bench/ (a module of its own)
# and build directories are left out; a line is a line of `wc -l`.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
	! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} + |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		lines[dir == "" ? "." : dir] += $1
	}
	END { for (d in lines) print d, lines[d] }' |
	sort |
	awk 'BEGIN { printf "%-28s %7s\n", "package", "lines" }
	{ printf "%-28s %7d\n", $1, $2; total += $2 }
	END { printf "%-28s %7d\n", "total", total }'
