#!/bin/sh
# `dtsim run --spec` and `dtsim sweep --spec` on a file that cannot be read
# must fail like any other bad input: a one-line message and exit code 2,
# never an uncaught exception.
# Usage: cli_missing_spec.sh DTSIM_EXE
dtsim=$1
missing=no-such-dir/missing-spec.json
status=0
for cmd in run sweep; do
  out=$("$dtsim" "$cmd" --spec "$missing" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "dtsim $cmd --spec $missing: exit $code, expected 2"
    status=1
  fi
  case $out in
  *"uncaught exception"*)
    echo "dtsim $cmd --spec $missing raised: $out"
    status=1
    ;;
  esac
done
exit $status
