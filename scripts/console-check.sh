#!/usr/bin/env bash
# Checks of the spinorlab console script, end to end: output shapes, exit codes,
# one-line errors and the modules each command loads.
#
#   scripts/console-check.sh          # the installed `spinorlab` script
#   scripts/console-check.sh SRC      # `python -m spinorlab.cli` from the tree SRC (e.g. src)
#
# Every stage of each pipe must exit 0, and the first failing line ends the run
# with a nonzero exit.
set -eo pipefail

src=$(cd "$(dirname "$0")/../src" && pwd)
if [ $# -gt 0 ]; then
  src=$(cd "$1" && pwd)
  export PYTHONPATH="$src"
  spinorlab() { python -m spinorlab.cli "$@"; }
  export -f spinorlab
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the installed CLI module loads elko, flagdipole, hopf and the verify suites only on use
python -c "import sys, spinorlab.cli; loaded = sorted({'spinorlab.elko', 'spinorlab.flagdipole', 'spinorlab.hopf', 'spinorlab.verify'} & set(sys.modules)); sys.exit(f'loaded by import spinorlab.cli: {loaded}' if loaded else None)"
out=$(spinorlab make elko | spinorlab classify -)
test -n "$out"
test "$(echo "$out" | wc -l)" -eq 1
out=$(spinorlab make flagdipole --u 0.3,0.4,0.866025403784 | spinorlab map-check -)
test -n "$out"
test "$(echo "$out" | wc -l)" -eq 1
# map-check gives a singular spinor no verdict, notes its class and exits 0: a flag-dipole, a Weyl spinor
test "$(echo "$out" | grep -c '"mappability": null, "note": "spinor is class 4; mapping conditions apply to classes 1-3"')" -eq 1
test "$(spinorlab make weyl --phi 1,0 | spinorlab map-check - | grep -c '"mappability": null, "note": "spinor is class 6; mapping conditions apply to classes 1-3"')" -eq 1
out=$(spinorlab make elko | spinorlab hopf -)
test -n "$out"
test "$(echo "$out" | wc -l)" -eq 1
# a flag-dipole, and builders seeded with tiny (nonzero) 2-spinors, classify as built
test "$(spinorlab make flagdipole --u 0.3,0.4,0.866025403784 | spinorlab classify - | grep -c '"class": 4')" -eq 1
test "$(spinorlab make elko --alpha 1e-9 | spinorlab classify - | grep -c '"class": 5')" -eq 1
test "$(spinorlab make weyl --phi 1e-9,0 | spinorlab classify - | grep -c '"class": 6')" -eq 1
# a tolerance below the rounding noise still writes every record and exits 0
out=$(spinorlab make dirac --p 0.3,0.1,0.2 --m 1.3 | spinorlab classify - --tol 1e-20)
test "$(echo "$out" | wc -l)" -eq 1
# make elko loads neither spinorlab.flagdipole nor spinorlab.hopf
python -X importtime -m spinorlab.cli make elko 2> "$tmp/make-elko-imports.txt" > /dev/null
test "$(grep -cE '[|] +spinorlab[.](flagdipole|hopf)$' "$tmp/make-elko-imports.txt")" -eq 0
# classify on JSON-lines loads none of spinorlab.make, csv and cmath, which only make and CSV input use
python -X importtime -m spinorlab.cli classify - <<< '{"components": [[1, 0], [0, 0], [0, 0], [0, 0]]}' \
  2> "$tmp/classify-imports.txt" > /dev/null
test "$(grep -cE '[|] +(csv|cmath|spinorlab[.]make)$' "$tmp/classify-imports.txt")" -eq 0
# verify fierz loads neither spinorlab.flagdipole nor spinorlab.hopf
python -X importtime -m spinorlab.cli verify fierz --samples 10 2> "$tmp/verify-fierz-imports.txt" > /dev/null
test "$(grep -cE '[|] +spinorlab[.](flagdipole|hopf)$' "$tmp/verify-fierz-imports.txt")" -eq 0
# the console script's classify, map-check, verify fierz and verify mapping never load the
# multivector algebra, and hopf, which makes quaternions, does
elko=$(spinorlab make elko)
# (a command that fails prints no count, so its test fails)
algebra_loads() {
  PYTHONPROFILEIMPORTTIME=1 "$@" 2> "$tmp/imports.txt" > /dev/null &&
    grep -cE '[|] +spinorlab[.]algebra$' "$tmp/imports.txt"
}
test "$(algebra_loads spinorlab classify - <<< "$elko")" -eq 0
test "$(algebra_loads spinorlab map-check - <<< "$elko")" -eq 0
test "$(algebra_loads spinorlab verify fierz --samples 10)" -eq 0
test "$(algebra_loads spinorlab verify mapping --samples 10)" -eq 0
test "$(algebra_loads spinorlab hopf - <<< "$elko")" -eq 1
# any finite nonzero direction builds; a spinor the record subcommands refuse is not built
test "$(spinorlab make flagdipole --u 1e200,0,1e200 | spinorlab classify - | grep -c '"class": 4')" -eq 1
code=0
spinorlab make elko --alpha 1e300 --beta 1e300 || code=$?
test "$code" -eq 1
# CSV input: a header row, then eight real columns per spinor; a short row is malformed
out=$(printf 're1,im1,re2,im2,re3,im3,re4,im4\n1,0,0,0,0,0,0,0\n' | spinorlab classify -)
test "$(echo "$out" | wc -l)" -eq 1
test "$(echo "$out" | grep -c '"class": 6')" -eq 1
code=0
printf '1,0,0,0,0,0,0,0\n1,0,0\n' | spinorlab classify - || code=$?
test "$code" -eq 1
# blank lines before the header: the header is the first row that has cells
out=$(printf '\nre1,im1,re2,im2,re3,im3,re4,im4\n1,0,0,0,0,0,0,0\n' | spinorlab classify -)
test "$(echo "$out" | grep -c '"class": 6')" -eq 1
# bytes that are not UTF-8, a write error and a NaN label: exit 1 with one "spinorlab: " line
one_line_exit_1() { code=0; err=$("$@" 2>&1 > /dev/null) || code=$?; test "$code" -eq 1 && test "$(echo "$err" | wc -l)" -eq 1 && test "${err#spinorlab: }" != "$err"; }
printf '{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "label": "\377"}\n' > "$tmp/not-utf8.jsonl"
one_line_exit_1 spinorlab classify "$tmp/not-utf8.jsonl"
one_line_exit_1 spinorlab map-check - < "$tmp/not-utf8.jsonl"
one_line_exit_1 spinorlab make elko --output /dev/full
# a make parameter that is not a number: the same, from the spinorlab.make module of the package
one_line_exit_1 spinorlab make weyl --phi 1,x
# a Dirac spinor on the zero 2-spinor would be the zero spinor: refused as a Weyl one is
one_line_exit_1 spinorlab make dirac --phi 0,0
# a Majorana part that is the zero spinor, here of the zero seed: the same
one_line_exit_1 spinorlab make majorana --xi 0,0,0,0
one_line_exit_1 bash -c 'spinorlab make elko > /dev/full'
one_line_exit_1 spinorlab hopf - <<< '{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "label": NaN}'
# an empty CSV cell before a filled one: the same, and no cells shift left; a trailing comma reads
one_line_exit_1 spinorlab classify - <<< '1,,2,0,0,0,0,0,0'
test "$(printf '1,0,0,0,0,0,0,0,\n' | spinorlab classify - | grep -c '"class": 6')" -eq 1
# a bad line in the first chunk: the same, and no --output file, since the chunk is read whole first
printf '%s\n%s\n{\n' "$elko" "$elko" > "$tmp/third-line-bad.jsonl"
one_line_exit_1 spinorlab classify - --output "$tmp/x.jsonl" < "$tmp/third-line-bad.jsonl"
test ! -e "$tmp/x.jsonl"
# a closed stdin or stdout, and a component entry that is not a JSON number: the same
one_line_exit_1 bash -c 'spinorlab classify - <&-'
one_line_exit_1 bash -c 'spinorlab make elko >&-'
one_line_exit_1 spinorlab classify - <<< '{"components": [["1_0", 0], [0, 0], [0, 0], [0, 0]]}'
# with stderr closed an error writes nothing, not even to stdout, and still exits 1
code=0
out=$(spinorlab classify - <&- 2>&-) || code=$?
test "$code" -eq 1
test -z "$out"
# one byte order mark at the start of the input is dropped, so the record is read as JSON
test "$(printf '\xef\xbb\xbf{"components": [[1, 0], [0, 0], [0, 0], [0, 0]]}\n' | spinorlab classify - | grep -c '"class": 6')" -eq 1
# a tolerance that reads the mapping witnesses as singular fails the suite: exit 2, no traceback
code=0
spinorlab verify mapping --samples 50 --tol 1 > /dev/null || code=$?
test "$code" -eq 2
# a negative seed is a usage error (argparse prints a usage line, then the message)
code=0
err=$(spinorlab verify fierz --seed -1 2>&1 > /dev/null) || code=$?
test "$code" -eq 1
test "$(echo "$err" | grep -c 'argument --seed')" -eq 1
# a reader that leaves after one byte, or after the first record: the script still exits 0
spinorlab verify fierz --samples 2000 --table | head -c 1 > /dev/null
for _ in $(seq 300); do echo "$elko"; done > "$tmp/300.jsonl"
spinorlab classify - < "$tmp/300.jsonl" | head -n 1 > /dev/null
# each suite exits 0 and prints one passing line per check
out=$(spinorlab verify fierz --samples 300 --json)
test "$(echo "$out" | wc -l)" -eq 4
test "$(echo "$out" | grep -c '"pass": true')" -eq 4
out=$(spinorlab verify hopf --samples 300 --json)
test "$(echo "$out" | wc -l)" -eq 3
test "$(echo "$out" | grep -c '"pass": true')" -eq 3
out=$(spinorlab verify projectors --samples 300 --json)
test "$(echo "$out" | wc -l)" -eq 7
test "$(echo "$out" | grep -c '"pass": true')" -eq 7
out=$(spinorlab verify mapping --samples 300 --json)
test "$(echo "$out" | wc -l)" -eq 3
test "$(echo "$out" | grep -c '"pass": true')" -eq 3
# the blocked suites are deterministic across a block seam, at the benchmark's size
for suite in fierz hopf projectors mapping; do
  spinorlab verify "$suite" --samples 1000 --seed 1 --json > "$tmp/first-$suite.jsonl"
  spinorlab verify "$suite" --samples 1000 --seed 1 --json > "$tmp/second-$suite.jsonl"
  cmp "$tmp/first-$suite.jsonl" "$tmp/second-$suite.jsonl"
done

# no verify suite loads numpy.random: the suites draw from a seeded standard-library stream;
# at 10 samples each exits 0 and prints one passing JSON line per check
for suite_checks in fierz:4 hopf:3 projectors:7 mapping:3; do
  suite=${suite_checks%:*}
  python -X importtime -m spinorlab.cli verify "$suite" --samples 10 --json \
    2> "$tmp/verify-$suite-imports.txt" > "$tmp/verify-$suite.jsonl"
  test "$(grep -cE '[|] +numpy[.]random([.].*)?$' "$tmp/verify-$suite-imports.txt")" -eq 0
  test "$(wc -l < "$tmp/verify-$suite.jsonl")" -eq "${suite_checks#*:}"
  test "$(grep -c '"pass": true' "$tmp/verify-$suite.jsonl")" -eq "${suite_checks#*:}"
done
# the sources compile on the declared Python floor, where that interpreter runs
# (a pyenv shim without a selected 3.10 is on PATH but does not)
if python3.10 -V > /dev/null 2>&1; then
  python3.10 -m py_compile "$src"/spinorlab/*.py
fi
echo "console checks passed"
