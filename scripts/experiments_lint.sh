#!/bin/sh
# experiments_lint.sh keeps the experiment registry in one place,
# harness.Experiments: the ids DESIGN.md §4 names in its "Run with" column
# must be exactly what `experiments -list` prints, in the same order, and the
# harness's files stay named by what they measure.
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"

indexed=$(sed -n '/^## 4\. /,/^## 5\. /p' DESIGN.md |
	grep -o 'cmd/experiments -run [a-z0-9-]*' | awk '{print $3}')
listed=$("$GO" run ./cmd/experiments -list)
if [ "$indexed" != "$listed" ]; then
	echo "experiments-lint: DESIGN.md §4 and \`experiments -list\` disagree:"
	tmp=$(mktemp)
	printf '%s\n' "$indexed" > "$tmp"
	printf '%s\n' "$listed" | diff "$tmp" - || true
	rm -f "$tmp"
	exit 1
fi
if ls internal/harness/extensions*.go >/dev/null 2>&1; then
	echo "experiments-lint: internal/harness/extensions*.go: name the file by what it measures (paper, codec, system, quality)"
	exit 1
fi
