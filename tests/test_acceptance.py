"""Acceptance suite: every criterion with its stated volume and budget.

Each test prints one PASS line on success (run with -s to see them all
even when green).  All checks are exact; there are no tolerances
anywhere, only runtime budgets.
"""

import random
import time
from fractions import Fraction

from ellsurf import (
    InvalidI0StarParams,
    NotRealGeneric,
    SearchBudget,
    arc_decomposition,
    betti,
    check_bounds,
    classify_fibers,
    compare,
    i0star_transform,
    make_params,
    search_extremal,
    twist,
    verify_i0star,
)
from ellsurf.cli import main as cli_main
from ellsurf.documents import dump_json, triple_to_document
from ellsurf.fuzz import random_valid_triple, run_fuzz


def _real_generic_samples(seed, k, count, height=9):
    """Deterministic stream of triples accepted by the Betti pipeline."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_valid_triple(rng, k, height)
        try:
            rep = betti(t)
        except NotRealGeneric:
            continue
        out.append((t, rep))
    return out


def test_criterion_1_worked_fixture_w1(w1):
    start = time.monotonic()
    reports = classify_fibers(w1)
    assert len(reports) == 12
    assert all(r.is_real and r.kodaira.symbol == "I1" for r in reports)
    dec = arc_decomposition(w1)
    assert dec.n_plus == 6 and dec.n_minus == 6
    rep = betti(w1)
    assert (rep.h0, rep.h1, rep.chi_top) == (1, 2, 0)
    assert rep.components == ("V2",)
    agreement = compare(w1)
    assert (agreement.h0, agreement.h1, agreement.chi) == (1, 2, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"W1 pipeline took {elapsed:.2f}s"
    print(
        f"PASS criterion 1: W1 has 12 nodal fibers (6+6), topology (1, 2, 0), "
        f"Klein bottle, oracle agrees, {elapsed:.2f}s"
    )


def test_criterion_2_euler_sum_on_500_triples():
    rng = random.Random(20240501)
    checked = 0
    for k, quota in ((1, 250), (2, 150), (3, 100)):
        for _ in range(quota):
            t = random_valid_triple(rng, k, height=9)
            # sum e = 12k, which classify_fibers also asserts
            reports = classify_fibers(t)
            assert sum(r.kodaira.euler_number * r.multiplicity_weight for r in reports) == 12 * k
            checked += 1
    assert checked >= 500
    print(f"PASS criterion 2: Euler sum = 12k exactly on {checked} fuzzed triples")


def test_criterion_3_twist_duality_on_100_triples():
    samples = _real_generic_samples(20240502, 1, 80) + _real_generic_samples(
        20240503, 2, 20
    )
    assert len(samples) >= 100
    for t, rep in samples:
        rep2 = betti(twist(t))
        assert rep2.h1 == 2 * rep.h0
        assert 2 * rep2.h0 == rep.h1
        assert rep2.chi_top == -rep.chi_top
        assert rep2.h_star == rep.h_star
    print(f"PASS criterion 3: twist duality exact on {len(samples)} triples")


def test_criterion_4_bounds_over_fuzz_corpus():
    checked = 0
    for seed, k, count in ((20240504, 1, 60), (20240505, 2, 25), (20240506, 3, 15)):
        for t, rep in _real_generic_samples(seed, k, count):
            bc = check_bounds(rep, k)
            assert bc.ok, f"bound violation at k={k}: {bc}"
            bc2 = check_bounds(betti(twist(t)), k)
            assert bc2.ok
            checked += 2
    print(f"PASS criterion 4: zero bound violations over {checked} reports")


def test_criterion_5_i0star_on_20_instances():
    rng = random.Random(20240507)
    centers = [Fraction(17), Fraction(19), Fraction(-23), Fraction(29, 2), Fraction(31)]
    done = 0
    while done < 20:
        t = random_valid_triple(rng, rng.choice((1, 2)), height=7)
        params = None
        for i in range(len(centers) - 1):
            try:
                params = make_params(t, centers[i], centers[i + 1])
                break
            except InvalidI0StarParams:
                continue
        if params is None:
            continue
        t_y = i0star_transform(t, params)
        ver = verify_i0star(t, params, t_y)
        assert ver.ok, ver.failures()
        done += 1
    print(f"PASS criterion 5: I0* contract verified on {done} fuzzed instances")


def test_criterion_6_oracle_equivalence_50_instances(w1):
    start = time.monotonic()
    count = 0
    compare(w1)
    compare(twist(w1))
    count += 2
    for target in (1, 2, 3, 4, 5):
        res = search_extremal(1, target, SearchBudget(max_candidates=128, rng_seed=0))
        assert res.found
        compare(res.triple)  # also done inside the search; asserted here again
        count += 1
    for seed, k, quota in ((20240508, 1, 28), (20240509, 2, 15)):
        rng = random.Random(seed)
        seen = 0
        while seen < quota:
            t = random_valid_triple(rng, k, height=7)
            try:
                compare(t)
            except NotRealGeneric:
                continue
            seen += 1
            count += 1
    elapsed = time.monotonic() - start
    assert count >= 50
    assert elapsed < 600, f"oracle batch took {elapsed:.1f}s"
    print(
        f"PASS criterion 6: pipeline = oracle on {count} instances "
        f"in {elapsed:.1f}s"
    )


def test_criterion_7_sharpness_five_components():
    start = time.monotonic()
    res = search_extremal(1, 5, SearchBudget(max_candidates=256, rng_seed=0))
    assert res.found, res.reason
    rep = betti(res.triple)
    assert rep.h0 == 5
    compare(res.triple)
    rep_twist = betti(twist(res.triple))
    assert rep_twist.h1 == 10  # = 10k: first Betti bound attained
    compare(twist(res.triple))
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"search took {elapsed:.1f}s"
    print(
        f"PASS criterion 7: h0 = 5 = 5k realized and its twist attains "
        f"h1 = 10 = 10k, {elapsed:.1f}s"
    )


def test_criterion_8_every_component_count_at_k1():
    realized = {}
    for target in (1, 2, 3, 4, 5):
        res = search_extremal(1, target, SearchBudget(max_candidates=256, rng_seed=0))
        assert res.found, f"target {target}: {res.reason}"
        rep = betti(res.triple)
        assert rep.h0 == target
        compare(res.triple)
        realized[target] = rep.h0
    assert sorted(realized) == [1, 2, 3, 4, 5]
    print("PASS criterion 8: component counts 1..5 all realized at k = 1")


def test_criterion_9_determinism(w1, tmp_path):
    from click.testing import CliRunner

    runner = CliRunner()
    path = tmp_path / "w1.json"
    path.write_text(dump_json(triple_to_document(w1)))

    report_a = runner.invoke(cli_main, ["report", str(path), "--json"]).output
    report_b = runner.invoke(cli_main, ["report", str(path), "--json"]).output
    assert report_a == report_b and report_a

    fuzz_args = ["fuzz", "--k", "1", "--trials", "25", "--seed", "7"]
    fuzz_a = runner.invoke(cli_main, fuzz_args).output
    fuzz_b = runner.invoke(cli_main, fuzz_args).output
    assert fuzz_a == fuzz_b and "violations=0" in fuzz_a

    search_args = ["search", "--k", "1", "--components", "3", "--seed", "11"]
    search_a = runner.invoke(cli_main, search_args).output
    search_b = runner.invoke(cli_main, search_args).output
    assert search_a == search_b

    summary_a = run_fuzz(1, 30, seed=99)
    summary_b = run_fuzz(1, 30, seed=99)
    assert summary_a.lines() == summary_b.lines()
    print("PASS criterion 9: byte-identical reports, fuzz and search under fixed seeds")
