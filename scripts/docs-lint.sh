#!/bin/sh
# docs-lint.sh — keep the documentation wired to the code it describes.
#
# Four checks, all cheap enough for every CI run:
#
#   1. Every relative markdown link in the top-level docs (README.md,
#      DESIGN.md, ARCHITECTURE.md, EXPERIMENTS.md) must point at a path
#      that exists in the repo. External (http/https/mailto) links and
#      pure #anchor links are skipped; a #fragment on a relative link is
#      stripped before the existence check.
#
#   2. Every package under internal/ must have a non-empty doc.go: the
#      package docs are part of the architecture documentation
#      (ARCHITECTURE.md points into them), so a new package without one —
#      or one gutted to an empty stub — fails the build.
#
#   3. Every back-ticked repository path in those four docs — `results/…`,
#      `internal/…`, `cmd/…`, `scripts/…`, `examples/…`, `bench/…` — must
#      exist: a deleted file, package or artifact may not live on in the
#      prose. Only the first word inside the backticks is the path (the
#      rest is a command line); patterns (`*`, `{a,b}`, `<x>`, `…`) are
#      skipped.
#
#   4. The four docs together stay under DOCS_CEILING bytes: they do not
#      grow on a PR that adds no feature. A PR that must grow them raises
#      the constant in its own diff, where the reviewer sees it.
#
# Exits 0 when all checks pass, 1 otherwise, listing every violation.
set -u

cd "$(dirname "$0")/.." || exit 1

fail=0

# --- 1. relative markdown links ------------------------------------------

for doc in README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md; do
    if [ ! -f "$doc" ]; then
        echo "docs-lint: missing top-level doc: $doc"
        fail=1
        continue
    fi
    # Pull out every inline markdown link target: [text](target). One
    # target per line; nested brackets in link text are not used in these
    # docs, so the simple pattern is exact here.
    targets=$(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/^\[[^]]*\](//; s/)$//')
    [ -n "$targets" ] || continue
    echo "$targets" | while IFS= read -r target; do
        case "$target" in
        http://*|https://*|mailto:*) continue ;;   # external
        '#'*) continue ;;                          # in-page anchor
        '') continue ;;
        esac
        path=${target%%#*}                         # strip fragment
        [ -n "$path" ] || continue
        if [ ! -e "$path" ]; then
            echo "docs-lint: $doc links to missing path: $target"
            exit 1
        fi
    done || fail=1
done

# --- 2. internal packages carry package docs ------------------------------

for dir in internal/*/; do
    # Only directories that are actually Go packages.
    ls "$dir"*.go >/dev/null 2>&1 || continue
    doc="${dir}doc.go"
    if [ ! -f "$doc" ]; then
        echo "docs-lint: $dir has no doc.go (every internal package documents itself)"
        fail=1
    elif ! grep -q '^// ' "$doc"; then
        echo "docs-lint: $doc has no package doc comment"
        fail=1
    fi
done

# --- 3. back-ticked repository paths exist --------------------------------

for doc in README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md; do
    [ -f "$doc" ] || continue
    grep -o '`\(results\|internal\|cmd\|scripts\|examples\|bench\)/[^`]*`' "$doc" |
        tr -d '`' | sed 's/[[:space:]].*$//' | sort -u | while IFS= read -r path; do
        case "$path" in
        *'*'*|*'{'*|*'<'*|*'…'*) continue ;;       # a pattern, not a path
        esac
        if [ ! -e "$path" ]; then
            echo "docs-lint: $doc names a path that does not exist: $path"
            exit 1
        fi
    done || fail=1
done

# --- 4. the four docs stay under their byte ceiling -----------------------

DOCS_CEILING=182917
total=$(cat README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md 2>/dev/null | wc -c)
if [ "$total" -gt "$DOCS_CEILING" ]; then
    echo "docs-lint: README + DESIGN + ARCHITECTURE + EXPERIMENTS are $total bytes, over the $DOCS_CEILING ceiling"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "docs-lint: FAIL"
    exit 1
fi
echo "docs-lint: ok"
