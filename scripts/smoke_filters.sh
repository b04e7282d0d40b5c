#!/bin/sh
# Guard for the smoke targets' test selection: `go test -run RE` passes
# silently when RE matches no test, so renaming a test could quietly drop
# it from a smoke target (and with it, say, a byte-identity proof). For
# every `go test <pkg> ... -run '<filter>'` line in the Makefile, each
# |-separated alternative of the filter must select at least one test of
# that package (checked with `go test -list`). Prints one line per filter
# and exits 1 if any alternative selects nothing.
set -eu

GO=${GO:-go}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

filters=$(sed -n "s/.*test \(\.\/[^ ]*\) .*-run '\([^']*\)'.*/\1 \2/p" Makefile)
if [ -z "$filters" ]; then
	echo "smoke-filters: no -run filters found in Makefile" >&2
	exit 1
fi

status=0
echo "$filters" | while read -r pkg filter; do
	listed=$($GO test -list "$filter" "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
	for alt in $(echo "$filter" | tr '|' ' '); do
		n=$(printf '%s\n' "$listed" | grep -cE "$alt" || true)
		if [ "$n" -eq 0 ]; then
			echo "FAIL $pkg -run '$filter': '$alt' selects no test" >&2
			exit 1
		fi
	done
	echo "ok   $pkg -run '$filter' selects $(printf '%s\n' "$listed" | grep -c .) tests"
done || status=1
exit $status
