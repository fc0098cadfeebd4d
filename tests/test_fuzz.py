"""The fuzz harness itself: determinism, counting, summary format."""

import random

import pytest

from ellsurf.fuzz import random_form, random_valid_triple, run_fuzz


class TestGenerators:
    def test_random_form_height_respected(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_form(rng, 6, 5)
            assert f.degree == 6
            assert f.den == 1 and all(abs(c) <= 5 for c in f.num)

    def test_random_valid_triple_deterministic(self):
        a = random_valid_triple(random.Random(3), 1)
        b = random_valid_triple(random.Random(3), 1)
        assert a == b

    def test_random_valid_triple_gives_up_after_its_retry_budget(self):
        # height 0 draws p = q = 0 every time, whose discriminant vanishes
        with pytest.raises(RuntimeError, match="retry budget"):
            random_valid_triple(random.Random(5), 1, height=0)

    def test_random_valid_triple_k2(self):
        t = random_valid_triple(random.Random(4), 2)
        assert t.k == 2 and t.p.degree == 8 and t.q.degree == 12


class TestHarness:
    def test_green_run(self):
        summary = run_fuzz(1, 40, seed=17)
        assert summary.ok
        assert sum(summary.histogram.values()) + summary.non_generic == 40
        assert summary.oracle_checked > 0
        assert summary.i0star_checked > 0

    def test_deterministic(self):
        a = run_fuzz(1, 25, seed=5)
        b = run_fuzz(1, 25, seed=5)
        assert a.lines() == b.lines()

    def test_larger_run_matches_cli_example(self):
        summary = run_fuzz(1, 200, seed=7)
        assert summary.ok
        assert sum(summary.histogram.values()) + summary.non_generic == 200

    def test_summary_lines_shape(self):
        summary = run_fuzz(1, 10, seed=2)
        lines = summary.lines()
        assert lines[0].startswith("fuzz k=1 trials=10 seed=2")
        assert any(line.startswith("histogram") for line in lines)


class TestWorkDoneOnce:
    def test_each_triple_is_classified_and_through_betti_once(self, monkeypatch):
        import ellsurf.topology
        import ellsurf.weierstrass

        classified, topologies = [], []
        classify_fibers = ellsurf.weierstrass.classify_fibers
        betti = ellsurf.topology.betti

        def recording_classify(t):
            classified.append(t)
            return classify_fibers(t)

        def recording_betti(t):
            topologies.append(t)
            return betti(t)

        monkeypatch.setattr(ellsurf.weierstrass, "classify_fibers", recording_classify)
        monkeypatch.setattr(ellsurf.topology, "betti", recording_betti)
        # seed 2 has one non-generic trial and one I0* step
        summary = run_fuzz(1, 10, seed=2, oracle_every=1)
        assert summary.ok
        assert summary.oracle_checked == 9 and summary.i0star_checked == 1
        assert len(classified) >= 10
        for seen in (classified, topologies):
            assert seen and len(set(seen)) == len(seen)
