#!/usr/bin/env bash
# Smoke test of an installed `fairway serve`, with the `fairway`, `python` and `curl` on PATH:
# /health answers 200, each state query 200 JSON naming its state (sent verbatim, so that the
# escapes, the params and the absolute form reach the server as written), and a POST 501 JSON
# with an error; the server is then killed and waited for, so that nothing is left running.
# Usage: bash .github/serve-smoke.sh [PORT]   (default 8765, on 127.0.0.1)
set -euo pipefail
port="${1:-8765}"
dir="$(mktemp -d)"
printf '{"schema_version":1,"bands":{"boundaries":[5.67,7.28,9.38]}}' > "$dir/bands.json"
fairway serve --model "$dir/bands.json" --port "$port" --host 127.0.0.1 &
server=$!
trap 'kill "$server" 2> /dev/null || true; rm -rf "$dir"' EXIT
for _ in $(seq 100); do
  curl -s -o /dev/null "http://127.0.0.1:$port/health" && break
  sleep 0.1
done
test "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$port/health")" = 200
url="http://127.0.0.1:$port/state?flow=42&density=7"
for target in "/state?flow=42&density=7" "/state?flow=4%32&density=7" \
              "/state?flow=42&density=+7" "/state;v=1?flow=42&density=7" "$url"; do
  test "$(curl -s -o "$dir/state.json" -w '%{http_code}' --request-target "$target" \
          "http://127.0.0.1:$port/")" = 200
  python -c 'import json, sys; assert json.load(open(sys.argv[1]))["state"] == "congested"' \
    "$dir/state.json"
done
test "$(curl -s -o "$dir/post.json" -w '%{http_code}' -X POST "$url")" = 501
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["error"]' "$dir/post.json"
kill "$server"
status=0
wait "$server" || status=$?
test "$status" -eq 143  # ended by the SIGTERM above
echo "serve smoke: ok"
