#!/usr/bin/env bash
# Ordering-discipline audit (ci.sh stage `audit`).
#
# Inventories every `SeqCst`/`Relaxed` memory-ordering use under crates/
# and fails if any site lacks a same-line `// ord:` justification comment
# or an allowlist entry (ci/ordering-allowlist.txt, path-prefix per line).
# It also fails on a dead allowlist entry, one that matches no `.rs` file
# under crates/, so an exemption cannot outlive the code it exempted.
#
# Rationale: the paper's proofs assume sequential consistency, and the
# repo's discipline is "SeqCst until a proof says otherwise, Relaxed only
# for counters with no synchronization role" — this audit makes every
# departure from acquire/release carry its reason in the source, so a
# future relaxation pass can review them mechanically (and the model
# checker's happens-before warnings can be cross-referenced by site).
#
# Exempt without annotation:
#   * `use` imports (they name an ordering, they don't perform an access)
#   * comment/doc lines
#
# The justification may sit on the same line, on a standalone comment line
# directly above, or on the line directly below (rustfmt moves trailing
# comments there on block-opening lines).
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/ordering-allowlist.txt
[ -f "$allowlist" ] || { echo "missing $allowlist" >&2; exit 2; }

patterns=()
while IFS= read -r pat; do
    [ -z "$pat" ] && continue
    case "$pat" in '#'*) continue ;; esac
    patterns+=("$pat")
done < "$allowlist"

# True if path $1 falls under an allowlist entry; entries are globs,
# matched as path prefixes.
allowlisted() {
    local pat
    for pat in "${patterns[@]}"; do
        # shellcheck disable=SC2254  # unquoted on purpose: allowlist entries are globs
        case "$1" in $pat*) return 0 ;; esac
    done
    return 1
}

mapfile -t sources < <(find crates -name '*.rs' -type f | LC_ALL=C sort)
dead=""
for pat in "${patterns[@]}"; do
    live=
    for src in "${sources[@]}"; do
        # shellcheck disable=SC2254  # unquoted on purpose: allowlist entries are globs
        case "$src" in $pat*) live=1; break ;; esac
    done
    [ -n "$live" ] || dead="${dead}  ${pat}
"
done
if [ -n "$dead" ]; then
    printf 'dead allowlist entries (match no .rs file under crates/):\n%s' "$dead"
    echo "ordering audit FAILED: delete the dead entries from $allowlist" >&2
    exit 1
fi

total=0
unannotated=0
violations=""

while IFS= read -r hit; do
    file=${hit%%:*}
    rest=${hit#*:}
    line=${rest%%:*}
    text=${rest#*:}

    allowlisted "$file" && continue

    # Strip leading whitespace for classification.
    trimmed="${text#"${text%%[![:space:]]*}"}"
    case "$trimmed" in
        use\ *) continue ;;          # import, not an access
        //*) continue ;;             # comment or doc line
        \**) continue ;;             # block-comment body
    esac

    total=$((total + 1))
    case "$text" in
        *'// ord:'*) continue ;;
    esac
    # rustfmt relocates trailing comments on block-opening lines to the
    # first line inside the block — accept the annotation there, or on a
    # standalone comment line directly above the access.
    near=$(sed -n "$((line > 1 ? line - 1 : 1))p;$((line + 1))p" "$file")
    case "$near" in
        *'// ord:'*) continue ;;
    esac
    unannotated=$((unannotated + 1))
    violations="${violations}${file}:${line}: ${trimmed}
"
done < <(grep -rn --include='*.rs' -E '\b(SeqCst|Relaxed)\b' crates | LC_ALL=C sort)

echo "ordering audit: $total annotated-or-annotatable SeqCst/Relaxed sites, $unannotated unannotated"
if [ "$unannotated" -gt 0 ]; then
    printf '%s' "$violations"
    echo "ordering audit FAILED: annotate each site with '// ord: <reason>' or allowlist the path in $allowlist" >&2
    exit 1
fi
