#!/usr/bin/env bash
# Police the `unsafe` island.  The workspace has three places where `unsafe`
# may appear: the vendored rayon shim (lifetime erasure of borrowed jobs), the
# counting global allocator of tests/alloc_per_gradient.rs (`GlobalAlloc` is
# an unsafe trait; every call forwards to `System`) and one block in
# `dace-tensor` — the call into the AVX2 compilation of the multiply kernel,
# inside the dispatch function `row_panel` of crates/tensor/src/gemm.rs,
# directly under the CPU-feature detection.
# Fails if the keyword occurs in code (line comments are ignored) anywhere
# else, or if that function holds anything but exactly one occurrence.
# Plain grep/awk, no dependencies — run from the repo root.
set -u

shim="crates/shims/rayon/"
counter="tests/alloc_per_gradient.rs"
island="crates/tensor/src/gemm.rs"
dispatch="row_panel"

if files=$(git ls-files --cached --others --exclude-standard '*.rs' 2>/dev/null) && [ -n "$files" ]; then
    :
else
    files=$(find . -name '*.rs' -not -path '*/target/*' | sed 's|^\./||')
fi

fail=0
for f in $files; do
    case "$f" in "$shim"* | "$counter") continue ;; esac
    [ -f "$f" ] || continue
    if [ "$f" = "$island" ]; then
        allowed="$dispatch"
    else
        allowed=""
    fi
    awk -v file="$f" -v allowed="$allowed" '
        {
            code = $0
            sub(/\/\/.*/, "", code)
            if (allowed != "" && code ~ ("^fn " allowed "\\(")) inside = 1
            if (code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/) {
                if (inside) {
                    found++
                } else {
                    printf "%s:%d: `unsafe` outside the island: %s\n", file, NR, $0
                    bad = 1
                }
            }
            if (inside && code ~ /^}/) inside = 0
        }
        END {
            if (allowed != "" && found != 1) {
                printf "%s: `%s` must hold exactly one `unsafe`, found %d\n", file, allowed, found
                bad = 1
            }
            exit bad
        }
    ' "$f" || fail=1
done

if [ ! -f "$island" ]; then
    echo "$island is missing: update scripts/check_unsafe.sh with the island's new home"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "unsafe island check FAILED"
    exit 1
fi
echo "unsafe island check OK"
