#!/usr/bin/env bash
# Counts the lines of non-test Go in the checkout: one line per package
# directory, then the total. benchmark/ is a module of its own and is left
# out, as are files .gitignore excludes.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/' |
	xargs awk '
		FNR == 1 { dir = FILENAME; if (!sub(/\/[^\/]*$/, "", dir)) dir = "." }
		{ lines[dir]++ }
		END { for (dir in lines) printf "%7d  %s\n", lines[dir], dir }' |
	sort -k2 |
	awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
