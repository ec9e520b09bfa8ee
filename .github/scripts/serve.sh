#!/bin/sh
# Run `repro-swaps serve` in the background for one CI job.
#
#   serve.sh start NAME [serve flags...]
#       Start `repro-swaps serve --port 0 FLAGS` in the background, wait
#       for its announce line and for /readyz. Leaves NAME.out (the
#       announce line first), NAME.err, NAME.pid and NAME.port; the
#       server's exit status lands in NAME.exit once it stops.
#   serve.sh stop NAME
#       SIGTERM the server, wait for it to drain, require exit status 0
#       and no replica subprocess left behind.
set -eu
usage="usage: serve.sh start NAME [serve flags...] | stop NAME"
test $# -ge 2 || { echo "$usage" >&2; exit 2; }
action=$1
name=$2
shift 2

case "$action" in
start)
  # the wrapper shell records the exit status (steps run in separate
  # shells, so a later step cannot `wait` for the server)
  sh -c 'repro-swaps serve --port 0 "$@" > "$0.out" 2> "$0.err" &
         echo $! > "$0.pid"
         wait $!
         echo $? > "$0.exit"' "$name" "$@" &
  # a router's replicas cold-import numpy/scipy before it announces
  for i in $(seq 1 600); do
    test -s "$name.out" && break
    sleep 0.1
  done
  python - "$name" <<'PY'
import json, sys
name = sys.argv[1]
event = json.loads(open(f"{name}.out").readline())
assert event["event"] == "listening", event
open(f"{name}.port", "w").write(str(event["port"]))
PY
  port=$(cat "$name.port")
  for i in $(seq 1 100); do
    curl -sf "localhost:$port/readyz" > /dev/null && break
    sleep 0.1
  done
  curl -sf "localhost:$port/readyz" > /dev/null
  ;;
stop)
  kill -TERM "$(cat "$name.pid")"
  for i in $(seq 1 300); do
    test -s "$name.exit" && break
    sleep 0.1
  done
  if ! test -s "$name.exit"; then
    echo "$name did not exit after SIGTERM"
    cat "$name.err"
    exit 1
  fi
  test "$(cat "$name.exit")" -eq 0
  # no replica subprocess left behind ([r] keeps pgrep off itself)
  if pgrep -f "[r]epro.cli serve --host 127.0.0.1" > /dev/null; then
    echo "$name left replica processes behind"
    exit 1
  fi
  ;;
*)
  echo "$usage" >&2
  exit 2
  ;;
esac
