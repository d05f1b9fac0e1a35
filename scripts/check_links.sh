#!/usr/bin/env bash
# Check that the repo's prose names things that exist:
#  * every relative markdown link in a *.md file points at a file or
#    directory (external links and pure in-page anchors are skipped, an
#    anchor suffix is stripped before the existence check);
#  * every `NAME.md` a `//!` / `///` comment under crates/ or src/ cites is a
#    file, relative to the repo root;
#  * every `--bin NAME` / `--example NAME` in a *.md file is a cargo target
#    (`src/bin/NAME.rs` / `examples/NAME.rs` of some package).  perfbench/,
#    CHANGES.md, ROADMAP.md and ISSUE.md are exempt: history and task
#    statements name what a PR deleted.
#  * every `-p NAME` / `--package NAME` on a line of a *.md file that
#    mentions cargo is a workspace package (the root package or a `members`
#    entry of the root Cargo.toml), with the same exemptions;
#  * every `tests/FILE.rs::NAME` in a *.md file (same exemptions) or in a
#    `//!` / `///` comment outside perfbench/ names a file that defines
#    `fn NAME`;
#  * every code span that opens with `Type::member` (a capitalised type, a
#    lower-case member) in a *.md file, same exemptions, or in a `//!` /
#    `///` comment under crates/ or src/, names a member that exists: some
#    `fn member` or field `member:` under crates/ or src/ (by name only,
#    whatever the type), so a doc that still cites a deleted method or
#    field fails.
# Exits non-zero listing every miss.  Plain grep/sed, no dependencies — run
# from the repo root.
set -u

fail=0
# Markdown files tracked by git (falls back to find outside a checkout).
if files=$(git ls-files '*.md' 2>/dev/null) && [ -n "$files" ]; then
    :
else
    files=$(find . -name '*.md' -not -path './target/*' | sed 's|^\./||')
fi

for f in $files; do
    dir=$(dirname "$f")
    # Inline links: capture the (...) target of ](...), one per line.
    links=$(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
    for link in $links; do
        case "$link" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        target=${link%%#*} # strip any anchor suffix
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "$f: broken relative link -> $link"
            fail=1
        fi
    done
done

# Rust sources, listed the same way.
if sources=$(git ls-files '*.rs' 2>/dev/null) && [ -n "$sources" ]; then
    :
else
    sources=$(find . -name '*.rs' -not -path '*/target/*' | sed 's|^\./||')
fi

# Document names cited from doc comments.
for f in $sources; do
    case "$f" in
    crates/* | src/*) ;;
    *) continue ;;
    esac
    for name in $(grep -E '^[[:space:]]*//[/!]' "$f" | grep -oE '[A-Za-z0-9_./-]+\.md' | sort -u); do
        if [ ! -e "$name" ]; then
            echo "$f: doc comment cites missing document -> $name"
            fail=1
        fi
    done
done

# Workspace packages: the root package's name and each member's.
members=$(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -oE '"[^"]+"' | tr -d '"')
packages=$(for dir in . $members; do
    sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1
done)

# Test citations in <text>: `tests/FILE.rs::NAME` (not a suffix of a longer
# path) must name a file that defines `fn NAME`.
check_test_citations() { # <reported-file> <text>
    for cite in $(printf '%s\n' "$2" |
        grep -oE '(^|[^A-Za-z0-9_./-])tests/[A-Za-z0-9_/]+\.rs::[A-Za-z_][A-Za-z0-9_]*' |
        sed -E 's/^[^t]//' | sort -u); do
        path=${cite%%::*}
        name=${cite#*::}
        if ! grep -qE "fn $name([^A-Za-z0-9_]|\$)" "$path" 2>/dev/null; then
            echo "$1: no fn $name in $path"
            fail=1
        fi
    done
}

# Member names defined under crates/ and src/: every `fn NAME` and every
# `NAME:` that is not a path (`NAME::`), i.e. a field in a declaration or a
# literal.
defined=$(for f in $sources; do
    case "$f" in
    crates/* | src/*) printf '%s\n' "$f" ;;
    esac
done | xargs grep -hoE '(fn [a-z_][a-z0-9_]*|\b[a-z_][a-z0-9_]*:([^:]|$))' |
    sed -E 's/^fn //; s/:.*$//' | sort -u)

# Code spans in <text> that open with `Type::member` must name a member in
# $defined.
check_member_spans() { # <reported-file> <text>
    for cite in $(printf '%s\n' "$2" | grep -oE '`[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*' |
        tr -d '`' | sort -u); do
        if ! printf '%s\n' "$defined" | grep -qxF -- "${cite#*::}"; then
            echo "$1: \`$cite\` names no fn or field under crates/ or src/"
            fail=1
        fi
    done
}

# Cargo targets, packages, tests and members named by the documentation.
for f in $files; do
    case "$f" in
    perfbench/* | CHANGES.md | ROADMAP.md | ISSUE.md) continue ;;
    esac
    for target in $(grep -oE -- '--(bin|example)[ =][A-Za-z0-9_-]+' "$f" | sed -E 's/^--//; s/[ =]/:/' | sort -u); do
        kind=${target%%:*}
        name=${target#*:}
        case "$kind" in
        bin) path="src/bin/$name.rs" ;;
        *) path="examples/$name.rs" ;;
        esac
        if ! printf '%s\n' "$sources" | grep -qE "(^|/)$path\$"; then
            echo "$f: no cargo target for --$kind $name"
            fail=1
        fi
    done
    for name in $(grep -E 'cargo' "$f" | grep -oE -- '(^|[^A-Za-z0-9_-])(-p|--package)[ =][A-Za-z0-9_-]+' |
        sed -E 's/.*(-p|--package)[ =]//' | sort -u); do
        if ! printf '%s\n' "$packages" | grep -qxF -- "$name"; then
            echo "$f: no workspace package for -p $name"
            fail=1
        fi
    done
    check_test_citations "$f" "$(cat "$f")"
    check_member_spans "$f" "$(cat "$f")"
done

for f in $sources; do
    case "$f" in
    perfbench/*) continue ;;
    esac
    docs=$(grep -E '^[[:space:]]*//[/!]' "$f")
    check_test_citations "$f" "$docs"
    case "$f" in
    crates/* | src/*) check_member_spans "$f" "$docs" ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    echo "markdown link check FAILED"
    exit 1
fi
echo "markdown link check OK"
