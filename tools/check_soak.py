#!/usr/bin/env python3
"""Validate a fault-injection soak report (CI's soak job).

The soak runs a figure sweep with deterministic fault injection
(`--inject buddy-alloc=...,pressure-burst=...`) and `--allow-failures`,
then this script proves the degradation was *graceful*:

  ran          the sweep produced results (it did not abort)
  injected     the fault sites actually fired (the schedule was live)
  degraded     the OS recorded superpage->4KB fallbacks instead of
               dying (nonzero thp_fallbacks somewhere in the grid)
  bounded      quarantined points, if any, are a strict minority and
               each carries a structured error record

Reports produced with demotion storms (`--demote-storm R`, or
demote-storm in the --inject schedule) additionally prove the
memory-pressure lifecycle was live and harmless:

  stormed      the demote-storm site actually fired, on every machine
               kind in the grid (native, virt, multi, gpu)
  cycled       superpage demotions and page reclaims were recorded
  precise      no point was quarantined: every storm's shootdowns left
               the TLBs coherent (the paranoia oracle would have
               quarantined the point otherwise)

Usage: tools/check_soak.py <report.json>   (exit 0 clean, 1 otherwise)
"""

import json
import sys


def fail(message: str) -> None:
    print(f"check_soak: FAIL: {message}")
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_soak.py <report.json>")
    with open(sys.argv[1], encoding="utf-8") as handle:
        report = json.load(handle)

    results = report.get("results", [])
    failures = report.get("failures", [])
    if not results:
        fail("report has no results")
    if "inject" not in report:
        fail("report was not produced by an --inject run")

    ok = [r for r in results if r.get("status") == "ok"]
    failed = [r for r in results if r.get("status") == "failed"]
    if len(ok) + len(failed) != len(results):
        fail("results contain an unknown status")
    if len(failed) != len(failures):
        fail(
            f"failures block ({len(failures)}) disagrees with failed "
            f"results ({len(failed)})"
        )
    if not ok:
        fail("every sweep point was quarantined")
    if len(failed) * 2 >= len(results):
        fail(
            f"{len(failed)}/{len(results)} points quarantined -- "
            "degradation was not graceful"
        )
    for record in failed:
        error = record.get("error", {})
        if not error.get("kind"):
            fail("a quarantined point has no structured error kind")

    fires = {}
    for record in results:
        for site, count in record.get("faults", {}).items():
            fires[site] = fires.get(site, 0) + count
    if sum(fires.values()) == 0:
        fail("no faults fired anywhere: the injection schedule is dead")
    if fires.get("buddy-alloc", 0) == 0:
        fail("buddy-alloc never fired despite being injected")

    fallbacks = sum(
        r.get("metrics", {}).get("thp_fallbacks", 0) for r in ok
    )
    if fallbacks == 0:
        fail(
            "no superpage->4KB fallbacks recorded: injected allocation "
            "failures did not reach the OS degradation path"
        )

    stormed = report.get("demote_storm", 0) > 0 or "demote-storm" in report.get(
        "inject", ""
    )
    lifecycle = ""
    if stormed:
        if fires.get("demote-storm", 0) == 0:
            fail("demote-storm never fired despite being injected")
        storms_by_kind = {}
        for record in results:
            kind = record.get("config", {}).get("kind", "unknown")
            storms_by_kind[kind] = storms_by_kind.get(kind, 0) + record.get(
                "faults", {}
            ).get("demote-storm", 0)
        quiet = sorted(kind for kind, n in storms_by_kind.items() if n == 0)
        if quiet:
            fail(f"demote-storm never fired on {', '.join(quiet)} points")
        demotions = sum(
            r.get("metrics", {}).get("demotions", 0) for r in ok
        )
        reclaims = sum(r.get("metrics", {}).get("reclaims", 0) for r in ok)
        if demotions == 0:
            fail("storms fired but no superpage demotions were recorded")
        if reclaims == 0:
            fail("storms fired but no page reclaims were recorded")
        if failed:
            fail(
                f"{len(failed)} points quarantined under demotion "
                "storms -- the lifecycle was not harmless"
            )
        lifecycle = f", demotions={demotions:.0f}, reclaims={reclaims:.0f}"

    print(
        f"check_soak: OK: {len(ok)}/{len(results)} points completed, "
        f"{len(failed)} quarantined, fires={fires}, "
        f"thp_fallbacks={fallbacks:.0f}{lifecycle}"
    )


if __name__ == "__main__":
    main()
