#!/bin/sh
# Simulator smoke test over the real nbsim binary: the worker count is a
# speed knob, not a different answer. The open-loop load sweep and the
# random-permutation crossbar comparison each run with -json at -workers 1
# (inline) and -workers 3 (a pool), and the two reports must be
# byte-identical. The in-process properties (every worker count
# returns the same results, Metrics and lowest-index error) live in
# internal/sim's tests; this script proves the CLI path end to end.
set -eu

GO=${GO:-go}

tmp=$(mktemp -d)
cleanup() {
	if [ -n "${SMOKE_LOG_DIR:-}" ]; then
		mkdir -p "$SMOKE_LOG_DIR"
		cp "$tmp"/*.json "$tmp"/*.err "$SMOKE_LOG_DIR"/ 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/nbsim" ./cmd/nbsim

run() {
	name=$1
	shift
	for w in 1 3; do
		"$tmp/nbsim" "$@" -workers "$w" -json >"$tmp/$name-w$w.json" 2>"$tmp/$name-w$w.err"
	done
	if ! diff -u "$tmp/$name-w1.json" "$tmp/$name-w3.json"; then
		echo "sim-smoke: $name report at -workers 3 differs from -workers 1" >&2
		exit 1
	fi
	echo "sim-smoke: $name identical at -workers 1 and 3"
}

run openloop -n 2 -m 4 -r 6 -routing paper -openloop -seed 3
run random -n 2 -m 4 -r 6 -routing dest-mod -pattern random -trials 7 -seed 5
