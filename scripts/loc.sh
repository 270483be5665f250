#!/bin/sh
# loc.sh — Go lines per package: non-test, test, and the bench/ module apart.
# These are the figures ROADMAP.md quotes; `make loc` before and after a PR.
cd "$(dirname "$0")/.." || exit 1
count() { [ -n "$1" ] && cat $1 | wc -l || echo 0; }
printf '%-28s %9s %9s\n' package non-test test
for dir in $(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do
    code=$(count "$(ls "$dir"/*.go | grep -v _test.go)")
    tests=$(count "$(ls "$dir"/*.go | grep _test.go)")
    printf '%-28s %9d %9d\n' "${dir#./}" "$code" "$tests"
    total=$((${total:-0} + code)) ttotal=$((${ttotal:-0} + tests))
done
printf '%-28s %9d %9d\n' total "$total" "$ttotal"
printf '%-28s %9d\n' "bench/ (own module)" "$(count "$(ls bench/*.go)")"
