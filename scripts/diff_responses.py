#!/usr/bin/env python3
"""Compare two response streams (TCP capture vs the JSONL reference path).

Both inputs hold one JSON response per line. Responses are matched by
``id`` and compared after canonicalization:

- control replies (any doc carrying ``op``) are skipped — the TCP capture
  filters them out already, the JSONL output does not;
- ``queue_ms``/``exec_ms`` and ``result.stats.runtime_s`` are dropped
  (wall-clock timings measured per run, not payload);
- remaining fields are re-dumped with sorted keys, so byte-level number
  formatting differences introduced by *this script's* round-trip cannot
  mask or fake a payload difference (both inputs come from the same C++
  serializer, so equal payloads stay equal).

Everything else — ``status``, ``cache_hit``, ``partial``, ``error`` and
the full ``result`` tree (plan, stats, fingerprints) — must match
exactly. ``--ignore-cache-hit`` drops ``cache_hit`` as well, for a stream
where a response may come from a cache the other stream did not have
(a respawned shard answers from its reloaded repository). The left file drives the id set: every left id must exist on the
right with an identical payload; right-only ids (e.g. the JSONL run's
priming responses when the capture holds only load-phase responses) are
reported but not fatal unless --strict-ids.

Exit codes: 0 identical, 1 any mismatch (or unreadable input).
"""

import argparse
import json
import sys

DROP = ("queue_ms", "exec_ms")


def load(path, drop):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as ex:
                sys.exit(f"{path}:{n}: not JSON: {ex}")
            if not isinstance(doc, dict) or "op" in doc:
                continue  # control reply (stats/drain), not a response
            rid = doc.get("id")
            if rid is None:
                sys.exit(f"{path}:{n}: response without id")
            if rid in out:
                sys.exit(f"{path}:{n}: duplicate response for id {rid!r}")
            for k in drop:
                doc.pop(k, None)
            stats = doc.get("result", {})
            if isinstance(stats, dict):
                stats = stats.get("stats")
                if isinstance(stats, dict):
                    stats.pop("runtime_s", None)
            out[rid] = json.dumps(doc, sort_keys=True,
                                  separators=(",", ":"))
    if not out:
        sys.exit(f"{path}: no responses")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("left", help="TCP capture (loadgen --capture-out)")
    ap.add_argument("right", help="JSONL reference (uavdc serve output)")
    ap.add_argument("--strict-ids", action="store_true",
                    help="also fail on ids present only on the right")
    ap.add_argument("--ignore-cache-hit", action="store_true",
                    help="also ignore the cache_hit flag")
    args = ap.parse_args()

    drop = DROP + (("cache_hit",) if args.ignore_cache_hit else ())
    left = load(args.left, drop)
    right = load(args.right, drop)

    failed = False
    missing = sorted(set(left) - set(right))
    if missing:
        failed = True
        print(f"FAIL: {len(missing)} ids missing from {args.right}: "
              f"{', '.join(missing[:10])}"
              f"{' ...' if len(missing) > 10 else ''}")

    mismatched = 0
    for rid in sorted(set(left) & set(right)):
        if left[rid] != right[rid]:
            mismatched += 1
            if mismatched <= 5:
                print(f"MISMATCH id={rid!r}")
                print(f"  tcp:   {left[rid][:200]}")
                print(f"  jsonl: {right[rid][:200]}")
    if mismatched:
        failed = True
        print(f"FAIL: {mismatched} of {len(left)} payloads differ")

    extra = sorted(set(right) - set(left))
    if extra:
        note = "FAIL" if args.strict_ids else "note"
        print(f"{note}: {len(extra)} ids only in {args.right} "
              f"(e.g. {extra[:5]})")
        if args.strict_ids:
            failed = True

    if failed:
        return 1
    print(f"OK: {len(left)} responses byte-identical across transports "
          f"(modulo {'/'.join(drop)}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
