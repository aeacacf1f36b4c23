#!/usr/bin/env sh
# culda_train's only multi-node rejections (docs/distributed.md):
#   --dist=async with --checkpoint or --resume -> exit 2, naming the
#                                               un-checkpointed shard views
#   --dist=async with --chunks-per-gpu=2       -> exit 1, chunks stay resident
# Wired from tests/CMakeLists.txt (TrainCli.AsyncRejections).
set -u

tool="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
  echo "FAIL: $1" >&2
  exit 1
}
base="--synthetic=pubmed --scale=0.0005 --topics=16 --iters=1 --workers=0"

for flag in "--checkpoint=$dir/ck.bin" "--resume=$dir/ck.bin"; do
  # shellcheck disable=SC2086
  err=$("$tool" $base --nodes=2 --gpus=2 --dist=async "$flag" 2>&1 >/dev/null)
  rc=$?
  [ "$rc" -eq 2 ] || fail "async $flag exited $rc, want 2"
  case "$err" in
    *"shard views are not checkpointed"*) ;;
    *) fail "async $flag stderr does not explain the rejection: $err" ;;
  esac
done

# shellcheck disable=SC2086
err=$("$tool" $base --nodes=2 --gpus=2 --dist=async --chunks-per-gpu=2 \
  2>&1 >/dev/null)
rc=$?
[ "$rc" -eq 1 ] || fail "async --chunks-per-gpu=2 exited $rc, want 1"
case "$err" in
  *"keeps chunks resident"*) ;;
  *) fail "async --chunks-per-gpu=2 stderr does not explain: $err" ;;
esac

# The same flags are accepted in sync mode.
# shellcheck disable=SC2086
"$tool" $base --nodes=2 --gpus=2 --dist=sync --chunks-per-gpu=2 \
  --checkpoint="$dir/ck.bin" --checkpoint-every=1 >/dev/null 2>&1 ||
  fail "sync --checkpoint --chunks-per-gpu=2 failed"
[ -f "$dir/ck.bin" ] || fail "sync run wrote no checkpoint"

echo "OK: async rejections and sync acceptance hold"
