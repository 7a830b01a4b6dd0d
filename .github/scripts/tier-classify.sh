#!/usr/bin/env bash
# Exercises the fidelity tiers of a running serve instance backed by an
# exact + ideal artifact (what `map` writes): /v1/model must advertise both
# tiers, one classify per tier must succeed and echo its tier, an unknown
# tier must be a 400, and each per-tier request counter must move by
# exactly one. Run under with-serve.sh, which owns the server lifecycle.
set -euo pipefail

ADDR=${1:-127.0.0.1:7979}

python3 - "$ADDR" <<'EOF'
import json, sys, urllib.error, urllib.request
addr = sys.argv[1]
TIERS = ("exact", "ideal")

def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=30) as resp:
        return resp.read().decode()

model = json.loads(get("/v1/model"))
assert model["fidelity_tier"] == "exact", model
assert model["available_tiers"] == list(TIERS), model
print("model ok: tiers", model["available_tiers"])

def tier_counters():
    out = {}
    for line in get("/metrics").splitlines():
        for tier in TIERS:
            if line.startswith(f"serve_classify_tier_{tier} "):
                out[tier] = float(line.split()[1])
    return out

def classify(body):
    req = urllib.request.Request(
        f"http://{addr}/v1/classify", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 200, resp.status
        return json.load(resp)

before = tier_counters()
image = [((i * 31) % 13) / 13.0 - 0.5 for i in range(3 * 32 * 32)]
for tier in TIERS:
    answer = classify({"tier": tier, "image": image})
    assert answer["tier"] == tier, answer
    assert isinstance(answer["class"], int), answer
    print(f"classify {tier} ok:", answer["class"])

try:
    classify({"tier": "turbo", "image": image})
    raise AssertionError("unknown tier must be rejected")
except urllib.error.HTTPError as e:
    assert e.code == 400, e.code
    print("unknown tier rejected with 400")

after = tier_counters()
for tier in TIERS:
    moved = after.get(tier, 0) - before.get(tier, 0)
    assert moved == 1, (tier, before, after)
print("tier counters moved:", after)
EOF

curl -sf -X POST "http://$ADDR/admin/shutdown" > /dev/null
