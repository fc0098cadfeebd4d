"""The recorded byte digest of report, compare() and search outputs still holds."""

import digest


def test_digest_matches_the_recorded_outputs():
    differ = digest.differences(digest.read_lines(), digest.compute())
    assert not differ, "outputs differ from tests/golden/digest.txt:\n" + "\n".join(differ)


def test_digest_covers_reports_compares_and_all_search_targets():
    names = list(digest.read_lines())
    assert sum(n.startswith("report ") for n in names) == 120
    assert sum(n.startswith("compare ") for n in names) >= 40
    assert sum(n.startswith("search ") for n in names) == 2 * 44


def test_digest_covers_validate_golden_commands_and_fuzz():
    names = list(digest.read_lines())
    for kind in digest.WITNESS_KINDS:
        assert sum(n.startswith(f"validate nonminimal-{kind}-") for n in names) == digest.DOCS_PER_KIND
    assert sum(n.startswith("validate shared-") for n in names) == len(digest.SHARED_ORDERS) + 1
    assert sum(n.startswith("report-json shared-") for n in names) == len(digest.SHARED_ORDERS) + 1
    for label, _ in digest.GOLDEN_COMMANDS:
        assert sum(n.startswith(f"{label} golden ") for n in names) == len(digest.GOLDEN_TRIPLES) == 21
    assert [n for n in names if n.startswith("fuzz ")] == [f"fuzz k{k}" for k in digest.FUZZ_KS]
