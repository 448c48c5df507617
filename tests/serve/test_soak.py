"""Scaled-down chaos soak: the full gate must pass inside the test suite.

One soak run (60 mixed requests over 4 devices, chaos armed mid-load on
device 1) is shared by every assertion via a module-scoped fixture — the
expensive part runs once, the gate's individual clauses are then checked
separately so a regression names the clause it broke.
"""

import pytest

from repro.serve import SoakConfig, run_soak


@pytest.fixture(scope="module")
def soak(tmp_path_factory):
    cfg = SoakConfig(n_requests=60, seed=1, stagger_s=0.002)
    cache_dir = tmp_path_factory.mktemp("soak-cache")
    return run_soak(cache_dir, cfg), cfg


class TestSoakGate:
    def test_gate_passes(self, soak):
        report, _ = soak
        assert report["gate"]["passed"], report["gate"]["checks"]

    def test_zero_escaped_corruptions(self, soak):
        report, _ = soak
        assert report["verify"]["escaped_count"] == 0
        assert report["reference_escapes"] == []

    def test_every_failure_is_typed(self, soak):
        report, _ = soak
        assert report["verify"]["untyped_failures"] == []

    def test_chaos_actually_fired_on_the_victim(self, soak):
        report, cfg = soak
        victims = [report["devices"][i] for i in cfg.chaos_devices]
        assert sum(d["faults_injected"] for d in victims) > 0

    def test_victim_breaker_tripped_and_readmitted(self, soak):
        report, cfg = soak
        victims = [report["devices"][i] for i in cfg.chaos_devices]
        assert sum(d["breaker"]["trips"] for d in victims) >= 1
        assert sum(d["breaker"]["readmissions"] for d in victims) >= 1

    def test_victim_serves_again_after_healing(self, soak):
        report, cfg = soak
        victim = report["devices"][cfg.chaos_devices[0]]
        assert victim["served"] > 0

    def test_progress_under_chaos(self, soak):
        report, _ = soak
        assert report["by_status"].get("ok", 0) >= 0.5 * 60

    def test_compile_cache_was_exercised(self, soak):
        report, _ = soak
        stats = report["compile_cache"]
        # few distinct programs, many requests: the cache must collapse
        # the compiles (memory hits after first materialization)
        assert stats["stores"] >= 1
        assert stats["hits"] >= 1
        assert stats["corrupt"] == 0


class TestHealPhase:
    def test_wave_numbers_are_the_wave_and_repeats_are_verified(self, soak):
        report, cfg = soak
        assert sum(report["by_status"].values()) == cfg.n_requests
        heal = report["heal_phase"]
        assert heal["requests"] == len(heal["ids"])
        assert set(heal["ids"]) <= set(report["verify"]["ids"])
        assert len(report["verify"]["ids"]) == \
            cfg.n_requests + heal["requests"]
