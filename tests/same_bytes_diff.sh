#!/bin/sh
# Run this tree's tests/same_bytes.py on this tree's src/ and on BASE_SRC (the
# src/ directory of another checkout), print both hash blocks and the cases
# that moved, and fail only when the ``heralded`` line differs.  A base that
# cannot run the corpus is reported and does not fail.  Run from the
# repository root:
#
#     sh tests/same_bytes_diff.sh BASE_SRC [OUT_DIR]
#
# OUT_DIR (default: a new temporary directory) receives the hash and case
# files of both runs.
set -u
base_src=$1
out=${2:-$(mktemp -d)}
mkdir -p "$out"

if ! PYTHONPATH=src python tests/same_bytes.py --cases "$out/head.cases" > "$out/head.hashes"; then
    echo "same-bytes: the corpus fails on this tree"
    exit 1
fi
echo "== this tree"
cat "$out/head.hashes"

if ! PYTHONPATH="$base_src" python tests/same_bytes.py --cases "$out/base.cases" \
        > "$out/base.hashes" 2> "$out/base.err"; then
    echo "== base: the corpus does not run on $base_src; not compared"
    tail -n 20 "$out/base.err"
    exit 0
fi
echo "== base"
cat "$out/base.hashes"

echo "== cases that moved (< base, > this tree)"
diff "$out/base.cases" "$out/head.cases" || true

heralded() { grep '^heralded ' "$1"; }
if [ "$(heralded "$out/base.hashes")" != "$(heralded "$out/head.hashes")" ]; then
    echo "same-bytes: the heralded line differs from the base"
    exit 1
fi
echo "same-bytes: the heralded line equals the base"
