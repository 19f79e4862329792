#!/bin/sh
# End-to-end fusion bisection through the CLI: the same seeded fit with
# --no-fuse must print the exact same front at the sequential backend and
# at 3 worker domains.
. "$(dirname "$0")/lib.sh"

build_cli

"$CLI" gen-data --out "$scratch/fuse-data.csv"
"$CLI" fit --train "$scratch/fuse-data.csv" --target PM --pop 30 --gens 10 --seed 17 \
  --backend seq --out "$scratch/front-fused.txt"
"$CLI" fit --train "$scratch/fuse-data.csv" --target PM --pop 30 --gens 10 --seed 17 \
  --backend seq --no-fuse --out "$scratch/front-unfused.txt"
"$CLI" fit --train "$scratch/fuse-data.csv" --target PM --pop 30 --gens 10 --seed 17 \
  --backend domains --jobs 3 --no-fuse --out "$scratch/front-domains-unfused.txt"
diff -u "$scratch/front-fused.txt" "$scratch/front-unfused.txt"
diff -u "$scratch/front-fused.txt" "$scratch/front-domains-unfused.txt"

echo "fuse-determinism: OK"
