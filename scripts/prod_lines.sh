#!/bin/sh
# Production Go size, the number ROADMAP.md and CHANGES.md quote: lines of
# *.go that are neither blank nor a // comment, excluding *_test.go files
# and the perfbench/ module. Prints one number.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + |
	grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*//' | wc -l | tr -d ' '
