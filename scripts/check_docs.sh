#!/usr/bin/env bash
# Documentation link checker: every relative markdown link and every
# `path/file.ext`-style reference in the top-level docs must point at a
# real file in the repo. Catches the classic doc-rot failure (a refactor
# renames a file, the docs keep pointing at the old name). External
# http(s) links and pure anchors are skipped — this is a hermetic check.
#
# Usage: scripts/check_docs.sh   (from anywhere; exits non-zero on rot)
set -u

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md ROADMAP.md EXPERIMENTS.md CHANGES.md
      docs/ARCHITECTURE.md docs/OPERATIONS.md)

failures=0

check_target() {
  # $1 = doc file, $2 = link target as written. Resolution tries the repo
  # conventions the docs use: paths relative to the doc, to the repo root,
  # and to src/ (`core/index` means src/core/index.h); extensionless
  # module/binary names resolve via .h/.cc/.cpp.
  local doc="$1" target="$2"
  case "$target" in
    http://*|https://*|mailto:*|\#*) return 0 ;;
  esac
  target="${target%%#*}"            # strip anchor
  [ -z "$target" ] && return 0
  local base
  base="$(dirname "$doc")"
  local candidate
  for candidate in "$target" "$base/$target" "src/$target"; do
    [ -e "$candidate" ] && return 0
    local ext
    for ext in .h .cc .cpp; do
      [ -e "$candidate$ext" ] && return 0
    done
  done
  echo "BROKEN: $doc -> $target"
  failures=$((failures + 1))
}

for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || continue

  # Markdown links: [text](target)
  while IFS= read -r target; do
    check_target "$doc" "$target"
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  # Inline-code file references: `path/to/file.ext` (with optional :line
  # or trailing glob-ish `.*` / `{...}` expansions, which we expand).
  while IFS= read -r ref; do
    ref="${ref%%:*}"                # drop :line suffixes
    case "$ref" in
      *'*'*)                        # `src/image/*` or `foo.*` style
        compgen -G "$ref" > /dev/null || compgen -G "src/$ref" > /dev/null \
          || {
          echo "BROKEN: $doc -> $ref (glob matches nothing)"
          failures=$((failures + 1))
        } ;;
      *'{'*)                        # `sharded_index.{h,cc}` style
        for expanded in $(eval echo "$ref" 2>/dev/null); do
          check_target "$doc" "$expanded"
        done ;;
      *) check_target "$doc" "$ref" ;;
    esac
  done < <(grep -oE '`[A-Za-z0-9_./*{},-]+/[A-Za-z0-9_.*{},-]+`' "$doc" \
           | tr -d '`' | grep -vE '^(walrus|127|0)\.')
done

if [ "$failures" -gt 0 ]; then
  echo "check_docs: $failures broken doc reference(s)"
  exit 1
fi
echo "check_docs: all doc links resolve"
