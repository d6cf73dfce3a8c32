# The CI workflow's console-script checks, run against an installed
# `twotree` with RUNNER_TEMP naming a scratch directory:
#
#     bash -eo pipefail tests/console.sh
#
# tests/check_console.py runs this file on a checkout without installing it.

twotree --help
twotree resistance bent --n 6 --k 3 --methods all --format json
twotree resistance straight --n 40 --i 3 --j 30 --methods all --format json
twotree resistance bent --n 2000 --k 1000 --methods all --format json
# Each route is priced by its own work: the exact oracle shoots a
# centred bend of 10^5 in seconds and answers an interior pair at 5000.
twotree resistance bent --n 100000 --k 50000 --methods alternating,exact --format json | grep -F '"agree": true' > /dev/null
twotree resistance straight --n 5000 --i 2 --j 4999 --methods formula,exact --format json | grep -F '"agree": true' > /dev/null
twotree resistance bent --n 10000 --k 5000 --methods alternating,exact --format json | grep -F '"agree": true' > /dev/null
# Default methods at an interior straight pair: formula and exact,
# at any n their prices admit.
twotree resistance straight --n 201 --i 2 --j 150 --format json | grep -F '"agree": true' > /dev/null
twotree resistance bent --n 12400 --k 6200 --methods alternating,product --format json
twotree resistance bent --n 3000 --k 1500 --methods alternating,product,engine --format json
twotree resistance straight --n 3000 --methods formula,engine --format json
twotree resistance bent --n 10000 --k 5000 --methods alternating,engine --format json
twotree resistance straight --n 10000 --methods formula,engine --format json
# The engine at the size the README times, operands of about 14,000 bits.
twotree resistance bent --n 20000 --k 10000 --methods alternating,engine --format json | grep -F '"agree": true' > /dev/null
# The step log is complete: after the record (a CSV one has a
# header), one line per rewrite, 3n - 7 bent and 3n - 6 straight.
test "$(twotree reduce bent 3000 1500 --emit-log --format json | wc -l)" -eq 8994
test "$(twotree reduce straight 2000 --emit-log --format csv | wc -l)" -eq 5996
# Without --emit-log the engine keeps no step log; its value must
# still be the closed form's.
exact() { python -c "import json, sys; print(json.load(sys.stdin)['exact'])"; }
engine=$(twotree reduce bent 3000 1500 --format json | exact)
closed=$(twotree resistance bent --n 3000 --k 1500 --methods alternating --format json | exact)
test "$engine" = "$closed"
# A bend at the edge: its long side runs 2996 transforms, through
# both cases of the one division of R by p + q.
engine=$(twotree reduce bent 3000 3 --format json | exact)
closed=$(twotree resistance bent --n 3000 --k 3 --methods alternating --format json | exact)
test "$engine" = "$closed"
engine=$(twotree reduce straight 2000 --format json | exact)
closed=$(twotree resistance straight --n 2000 --methods formula --format json | exact)
test "$engine" = "$closed"
# The CSV header names RECORD_FIELDS, then one row for each of the
# 630 bent chains with 6 <= n <= 40.  The file is read whole: a
# reader that closed the pipe early would end the step with 141.
twotree sweep bent --n 6:40 --methods all --format csv > "$RUNNER_TEMP/sweep.csv"
test "$(head -n 1 "$RUNNER_TEMP/sweep.csv")" = "command,family,n,k,i,j,exact,decimal,methods,agree"
test "$(wc -l < "$RUNNER_TEMP/sweep.csv")" -eq 631
# Both oracles on every straight chain with 3 <= n <= 60: the
# header, then 58 rows whose routes all agree.
twotree sweep straight --n 3:60 --methods all --format csv > "$RUNNER_TEMP/straight.csv"
test "$(wc -l < "$RUNNER_TEMP/straight.csv")" -eq 59
test "$(grep -c ',true$' "$RUNNER_TEMP/straight.csv")" -eq 58
python -c "from twotree import bent_2tree; print(bent_2tree(8, 4).to_text(), end='')" > "$RUNNER_TEMP/chain.txt"
twotree reduce file "$RUNNER_TEMP/chain.txt" --format json | grep -F '"exact": "22/13"'
# A disconnected edge list is a usage error: exit 2, nothing on
# stdout, and the reason on stderr.
printf '4 2\n1 2 1\n3 4 1\n' > "$RUNNER_TEMP/broken.txt"
code=0
twotree reduce file "$RUNNER_TEMP/broken.txt" > "$RUNNER_TEMP/broken.out" 2> "$RUNNER_TEMP/broken.err" || code=$?
test "$code" -eq 2
test ! -s "$RUNNER_TEMP/broken.out"
grep -F 'input graph is disconnected' "$RUNNER_TEMP/broken.err" > /dev/null
# A bend off the chain is named, as `resistance` names it, before the
# engine is priced: exit 2 and nothing on stdout.
code=0
twotree reduce bent 100 1000000 > "$RUNNER_TEMP/bend.out" 2> "$RUNNER_TEMP/bend.err" || code=$?
test "$code" -eq 2
test ! -s "$RUNNER_TEMP/bend.out"
grep -F 'bend vertex must satisfy 3 <= k <= n-3, got k=1000000 for n=100' "$RUNNER_TEMP/bend.err" > /dev/null
# One JSON line per identity of run_all: an empty catalogue would
# also exit 0.
twotree verify --profile small > "$RUNNER_TEMP/verify.jsonl"
test "$(wc -l < "$RUNNER_TEMP/verify.jsonl")" -eq 19
test "$(grep -c '"status": "pass"' "$RUNNER_TEMP/verify.jsonl")" -eq 19
