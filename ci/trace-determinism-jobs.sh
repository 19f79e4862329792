#!/bin/sh
# End-to-end determinism through the CLI: the same seeded fit at 1 and 4
# worker domains, and under --backend seq, must print byte-identical fronts
# and project to identical count records.
. "$(dirname "$0")/lib.sh"

build_cli

"$CLI" gen-data --out "$scratch/ota.csv"
CAFFEINE_JOBS=1 "$CLI" fit --train "$scratch/ota.csv" --target PM \
  --pop 30 --gens 10 --seed 17 --jobs 0 \
  --out "$scratch/front-jobs1.txt" --trace "$scratch/trace-jobs1.jsonl"
CAFFEINE_JOBS=4 "$CLI" fit --train "$scratch/ota.csv" --target PM \
  --pop 30 --gens 10 --seed 17 --jobs 0 \
  --out "$scratch/front-jobs4.txt" --trace "$scratch/trace-jobs4.jsonl"
"$CLI" fit --train "$scratch/ota.csv" --target PM \
  --pop 30 --gens 10 --seed 17 --backend seq \
  --out "$scratch/front-seq.txt" --trace "$scratch/trace-seq.jsonl"
diff -u "$scratch/front-jobs1.txt" "$scratch/front-jobs4.txt"
diff -u "$scratch/front-jobs1.txt" "$scratch/front-seq.txt"
for run in jobs1 jobs4 seq; do
  "$CLI" trace --counts "$scratch/trace-$run.jsonl" > "$scratch/counts-$run.txt"
done
diff -u "$scratch/counts-jobs1.txt" "$scratch/counts-jobs4.txt"
diff -u "$scratch/counts-jobs1.txt" "$scratch/counts-seq.txt"

echo "trace-determinism-jobs: OK"
