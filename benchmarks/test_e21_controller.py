"""E21 — continuous rebalancing under demand drift (extension).

Shape claims: on every drift scenario the incremental controller
matches or beats the threshold policy's served balance (time integral
of the peak) while moving strictly fewer bytes; ``never`` is the worst
balance.  In the pool study both policies are always feasible, the
fleet grows by exactly the standing loan, and the pool-sized loan
touches fewer machines than per-episode borrowing.
"""

from repro.experiments import REGISTRY, is_full_run


def test_e21_controller(benchmark, save_table):
    rows = benchmark.pedantic(
        REGISTRY["e21"], kwargs={"fast": not is_full_run()}, rounds=1, iterations=1
    )
    save_table("e21", rows, "E21 — continuous rebalancing under demand drift")

    study_a = [r for r in rows if r["study"] == "A"]
    runs = {(r["scenario"], r["seed"], r["controller"]): r for r in study_a}
    for scenario, seed in {(r["scenario"], r["seed"]) for r in study_a}:
        by = {c: runs[(scenario, seed, c)] for c in ("never", "threshold", "incremental")}
        inc, thr = by["incremental"], by["threshold"]
        assert inc["util_integral"] <= thr["util_integral"], scenario
        assert inc["total_bytes"] < thr["total_bytes"], scenario
        assert by["never"]["util_integral"] > thr["util_integral"], scenario
        assert inc["feasible_episodes"] >= 1, scenario

    study_b = [r for r in rows if r["study"] == "B"]
    for seed in {r["seed"] for r in study_b}:
        by = {r["policy"]: r for r in study_b if r["seed"] == seed}
        fixed, sized = by["fixed-budget"], by["pool-sized"]
        for r in (fixed, sized):
            assert r["feasible_episodes"] == r["episodes"], r["policy"]
        assert fixed["on_loan_end"] == 0
        assert fixed["fleet_end"] + sized["on_loan_end"] == sized["fleet_end"]
        assert 0 < sized["machines_borrowed"] < fixed["machines_borrowed"]
