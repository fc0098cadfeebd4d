"""Golden corpus: report, search and validate output bytes stay exactly as recorded.

The report, search and I0* outputs are checked twice: as the program
runs, and with gcd's heuristic switched off, so that every gcd takes
the pseudo-remainder fallback (prs_gcd).
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from ellsurf import _intpoly as ip
from ellsurf.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRIPLES = sorted(GOLDEN.glob("*.triple.json"))


def _with_and_without_heuristic_gcd(cases):
    """Each (id, args) as it is, and once more with the id suffix "-prs-gcd" and prs_gcd on."""
    return [pytest.param(*args, False, id=name) for name, args in cases] + [
        pytest.param(*args, True, id=f"{name}-prs-gcd") for name, args in cases
    ]


def _route_gcd(monkeypatch, prs_only: bool) -> list:
    """With prs_only, gcd gives up its heuristic at once; the calls of prs_gcd are listed."""
    calls = []
    if prs_only:
        prs_gcd = ip.prs_gcd

        def counting_prs_gcd(f, g):
            calls.append(1)
            return prs_gcd(f, g)

        monkeypatch.setattr(ip, "_HEU_GCD_TRIES", 0)
        monkeypatch.setattr(ip, "prs_gcd", counting_prs_gcd)
    return calls


@pytest.mark.parametrize(
    "triple,prs_only",
    _with_and_without_heuristic_gcd([(p.name[: -len(".triple.json")], (p,)) for p in TRIPLES]),
)
def test_report_json_bytes(monkeypatch, triple, prs_only):
    prs_calls = _route_gcd(monkeypatch, prs_only)
    result = CliRunner().invoke(main, ["report", str(triple), "--json"])
    assert result.exit_code == 0, result.output
    expected = triple.with_name(triple.name.replace(".triple.json", ".report.json"))
    assert result.output == expected.read_text(encoding="utf-8")
    assert bool(prs_calls) == prs_only


@pytest.mark.parametrize(
    "k,components,prs_only",
    _with_and_without_heuristic_gcd([(f"{k}-{c}", (k, c)) for k, c in [(1, 5), (2, 4), (3, 9)]]),
)
def test_search_out_bytes(monkeypatch, tmp_path, k, components, prs_only):
    prs_calls = _route_gcd(monkeypatch, prs_only)
    out = tmp_path / "found.json"
    result = CliRunner().invoke(
        main, ["search", "--k", str(k), "--components", str(components), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    expected = GOLDEN / f"search-k{k}-c{components}.out.json"
    assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")
    assert bool(prs_calls) == prs_only


def _check_i0star_out_bytes(tmp_path):
    out = tmp_path / "i0star.json"
    source = GOLDEN / "fractional-coefficients.triple.json"
    args = ["transform", str(source), "--i0star", "-1/2", "7/3", "--verify", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "VIOLATED" not in result.output
    expected = GOLDEN / "fractional-coefficients-i0star.triple.json"
    assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")


def test_i0star_out_bytes_with_fractional_centers_and_coefficients(tmp_path):
    _check_i0star_out_bytes(tmp_path)


def test_i0star_out_bytes_with_prs_gcd(monkeypatch, tmp_path):
    prs_calls = _route_gcd(monkeypatch, True)
    _check_i0star_out_bytes(tmp_path)
    assert prs_calls


def test_validate_nonminimal_bytes():
    result = CliRunner().invoke(main, ["validate", str(GOLDEN / "nonminimal-conjugate-pair.json")])
    assert result.exit_code == 2
    expected = GOLDEN / "nonminimal-conjugate-pair.validate.txt"
    assert result.stdout == expected.read_text(encoding="utf-8")


def test_corpus_is_present():
    assert len(TRIPLES) >= 20
