#!/usr/bin/env bash
# Appends benchmark records to ledger.jsonl, each stamped with what it
# measured:
#
#   bash benchmark/run.sh --workload W --seed 1 --seconds 10 --trace 0 -out new.jsonl
#   bash scripts/ledger-append.sh new.jsonl [PR]
#
# A record's "git" names HEAD, which is the parent of a change measured before
# it is committed. Given a PR number, each record gains "pr": PR; without one,
# a working tree that differs from HEAD stamps "dirty": true, and a clean tree
# stamps nothing, since "git" already names what ran.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
in=$1 pr=${2:-} stamp=
if grep -qv '}$' "$in"; then echo "ledger-append: $in has a line that is not a record" >&2; exit 1; fi
if [[ -n $pr ]]; then
	[[ $pr =~ ^[0-9]+$ ]] || { echo "ledger-append: PR must be a number, got '$pr'" >&2; exit 1; }
	stamp=",\"pr\":$pr"
elif [[ -n $(git -C "$root" status --porcelain -- . ':(exclude)ledger.jsonl') ]]; then
	stamp=',"dirty":true'
fi
sed "s/}\$/$stamp}/" "$in" >>"$root/ledger.jsonl"
