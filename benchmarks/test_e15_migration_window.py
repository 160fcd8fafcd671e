"""E15 — latency through the migration window (extension).

Shape claims: queries arriving inside the migration window see a worse
p99 than queries outside it, and the per-wave rows tile the window; the
final placement improves the steady-state tail substantially; the
move-frugal λ produces fewer moves, a shorter window and a better window
tail than the balance-greedy λ.
"""

from collections import defaultdict

from repro.experiments import REGISTRY, is_full_run


def test_e15_migration_window(benchmark, save_table):
    rows = benchmark.pedantic(
        REGISTRY["e15"], kwargs={"fast": not is_full_run()}, rounds=1, iterations=1
    )
    save_table("e15", rows, "E15 — serving latency around a migration (steady + timeline)")

    steady = [r for r in rows if r["mode"] == "steady"]
    timeline = [r for r in rows if r["mode"] == "timeline"]
    assert len(steady) + len(timeline) == len(rows)

    by_variant = defaultdict(dict)
    for r in steady:
        by_variant[r["variant"]][r["phase"]] = r
    assert len(by_variant) == 2
    for variant, phases in by_variant.items():
        assert set(phases) == {"before", "after"}
        assert phases["after"]["p99_ms"] < phases["before"]["p99_ms"], variant
        assert phases["before"]["window_s"] > 0

    greedy = by_variant["balance-greedy λ=0.002"]["before"]
    frugal = by_variant["move-frugal λ=0.30"]["before"]
    assert frugal["moves"] < greedy["moves"]
    assert frugal["window_s"] <= greedy["window_s"] + 1e-9

    tl_by_variant = defaultdict(dict)
    for r in timeline:
        tl_by_variant[r["variant"]][r["phase"]] = r
    assert set(tl_by_variant) == set(by_variant)
    for variant, phases in tl_by_variant.items():
        assert "window" in phases and "outside" in phases, variant
        waves = [p for p in phases if p.startswith("wave")]
        assert waves, variant
        # Pooled window rows aggregate exactly the per-wave queries.
        assert phases["window"]["queries"] == sum(
            phases[w]["queries"] for w in waves
        ), variant
        # The event-resolved claim: the migration window hurts the tail.
        assert phases["window"]["p99_ms"] > phases["outside"]["p99_ms"], variant
    # The frugal λ softens the window penalty.
    assert (
        tl_by_variant["move-frugal λ=0.30"]["window"]["p99_ms"]
        < tl_by_variant["balance-greedy λ=0.002"]["window"]["p99_ms"]
    )
