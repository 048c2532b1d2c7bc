#!/bin/sh
# loc.sh prints the non-test Go line count per package and in total, the
# figure ROADMAP.md quotes at every re-anchor, and under it the number of
# knobs: exported fields of the non-test structs that configure something.
# bench/ (a module of its own) and build directories are left out; a line is
# a line of `wc -l`.
set -eu
cd "$(dirname "$0")/.."

sources() {
	find . -name '*.go' ! -name '*_test.go' \
		! -path './bench/*' ! -path './.bench_build/*' "$@"
}

sources -exec wc -l {} + |
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

# A field line of a gofmt-ed struct is a tab, one or more comma-separated
# names, then the type; the exported ones are counted.
sources -exec cat {} + |
	awk '/^type (Options|Config|Params|Policy|ParallelOptions|TenantConfig|ScrubOptions|SparseConfig) struct \{/ { in_struct = 1; next }
	in_struct && /^}/ { in_struct = 0 }
	in_struct && /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*[ \t]/ {
		fields++
		for (i = 1; $i ~ /,$/; i++) fields++
	}
	END { printf "%-28s %7d\n", "option fields", fields }'
