#!/usr/bin/env bash
# Validates every JSON document the `costar` CLI prints with an
# independent parser (Python's `json` module). Exit codes are ignored:
# only the stdout document is checked. Covers lint/analyze/audit/cost on
# the four languages and the fixture grammars; parse --stats=json,
# --recover=json and both, per language, on a generated file and on a
# copy with one token deleted; a two-file --jobs 2 batch; and
# edit --format=json.
#
# Usage (after `cargo build --release`): ci/json_outputs.sh [COSTAR_BINARY]
set -u
costar=${1:-target/release/costar}
fixtures=crates/cli/tests/fixtures
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Grammar-file analyses are cached next to the grammar by default; keep
# the cache out of the source tree.
export COSTAR_CACHE_DIR="$work/cache"
checked=0
failed=0

check() {
    checked=$((checked + 1))
    if ! "$costar" "$@" 2>/dev/null | python3 -c 'import json,sys; json.load(sys.stdin)' 2>/dev/null; then
        echo "invalid JSON on stdout: costar $*"
        failed=$((failed + 1))
    fi
}

# Deletes one token of the $1-language file $2 into $3, starting from the
# middle token and taking the first candidate whose deletion still lexes.
delete_one_token() {
    local lang=$1 src=$2 dst=$3
    "$costar" tokens --lang "$lang" "$src" >"$work/tokens" || return 1
    python3 - "$work/tokens" "$src" "$dst" "$costar" "$lang" <<'PY'
import re, subprocess, sys
tokens_file, src, dst, costar, lang = sys.argv[1:]
data = open(src, "rb").read()
spans = []
for line in open(tokens_file, encoding="utf-8"):
    m = re.match(r'^\S+\t"([^"\\]+)"\t@(\d+)$', line.rstrip("\n"))
    if m:
        spans.append((int(m.group(2)), len(m.group(1).encode())))
mid = len(spans) // 2
for start, width in spans[mid:] + spans[:mid]:
    open(dst, "wb").write(data[:start] + data[start + width:])
    ok = subprocess.run([costar, "tokens", "--lang", lang, dst], capture_output=True)
    if ok.returncode == 0:
        sys.exit(0)
sys.exit(1)
PY
}

for sub in lint analyze audit cost; do
    for lang in json xml dot python; do
        check "$sub" --lang "$lang" --format=json
    done
    for g in "$fixtures"/*.ebnf; do
        check "$sub" --grammar "$g" --format=json
    done
done

for lang in json xml dot python; do
    clean="$work/clean.$lang"
    damaged="$work/damaged.$lang"
    "$costar" generate --lang "$lang" --size 60 --seed 7 >"$clean" 2>/dev/null
    if ! delete_one_token "$lang" "$clean" "$damaged"; then
        echo "could not derive a damaged $lang file that still lexes"
        failed=$((failed + 1))
        continue
    fi
    for file in "$clean" "$damaged"; do
        check parse --lang "$lang" --no-grammar-cache --stats=json "$file"
        check parse --lang "$lang" --no-grammar-cache --recover=json "$file"
        check parse --lang "$lang" --no-grammar-cache --stats=json --recover=json "$file"
    done
    check parse --lang "$lang" --no-grammar-cache --jobs 2 --stats=json --recover=json "$clean" "$damaged"
done

printf '[1, 2, 3]' >"$work/edit.json"
printf '{"edits":[{"start":4,"end":5,"replacement":"\\"\\u00e9\\\\n\\""},{"start":0,"end":0,"replacement":" "}]}' >"$work/script.json"
check edit --lang json "$work/edit.json" --script "$work/script.json" --format=json
check edit --lang json "$work/edit.json" --script "$work/script.json" --format=json --oracle

echo "$checked JSON documents checked, $failed invalid"
[ "$failed" -eq 0 ]
