"""Golden corpus: report, search and validate output bytes stay exactly as recorded."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from ellsurf.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRIPLES = sorted(GOLDEN.glob("*.triple.json"))


@pytest.mark.parametrize("triple", TRIPLES, ids=lambda p: p.name[: -len(".triple.json")])
def test_report_json_bytes(triple):
    result = CliRunner().invoke(main, ["report", str(triple), "--json"])
    assert result.exit_code == 0, result.output
    expected = triple.with_name(triple.name.replace(".triple.json", ".report.json"))
    assert result.output == expected.read_text(encoding="utf-8")


@pytest.mark.parametrize("k,components", [(1, 5), (2, 4), (3, 9)])
def test_search_out_bytes(tmp_path, k, components):
    out = tmp_path / "found.json"
    result = CliRunner().invoke(
        main, ["search", "--k", str(k), "--components", str(components), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    expected = GOLDEN / f"search-k{k}-c{components}.out.json"
    assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")


def test_i0star_out_bytes_with_fractional_centers_and_coefficients(tmp_path):
    out = tmp_path / "i0star.json"
    source = GOLDEN / "fractional-coefficients.triple.json"
    args = ["transform", str(source), "--i0star", "-1/2", "7/3", "--verify", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "VIOLATED" not in result.output
    expected = GOLDEN / "fractional-coefficients-i0star.triple.json"
    assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")


def test_validate_nonminimal_bytes():
    result = CliRunner().invoke(main, ["validate", str(GOLDEN / "nonminimal-conjugate-pair.json")])
    assert result.exit_code == 2
    expected = GOLDEN / "nonminimal-conjugate-pair.validate.txt"
    assert result.stdout == expected.read_text(encoding="utf-8")


def test_corpus_is_present():
    assert len(TRIPLES) >= 20
