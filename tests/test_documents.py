"""Triple documents: parsing, serialization, roundtrips."""

import random
from fractions import Fraction

import pytest

from ellsurf import validate
from ellsurf.documents import (
    DocumentError,
    dump_json,
    fiber_to_document,
    format_rational,
    parse_rational,
    triple_from_document,
    triple_to_document,
)
from ellsurf.fuzz import random_valid_triple
from ellsurf.roots import AlgebraicPoint, FinitePoint
from ellsurf.weierstrass import ConjugatePairTag, NonMinimal, WeierstrassTriple

from conftest import U, V, fraction_calls, fraction_coeffs


def _seeded_k4_triple():
    """A seeded k = 4 triple with denominators 2 in p and 3 in q."""
    t = random_valid_triple(random.Random(2024), 4)
    return WeierstrassTriple(t.k, t.p * Fraction(1, 2), t.q * Fraction(5, 3))


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [("3", Fraction(3)), ("-3", Fraction(-3)), ("1/2", Fraction(1, 2)),
         ("-7/3", Fraction(-7, 3)), ("4/6", Fraction(2, 3))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_zero_denominator(self):
        with pytest.raises(DocumentError):
            parse_rational("1/0")

    def test_garbage(self):
        with pytest.raises(DocumentError):
            parse_rational("0.5")

    @pytest.mark.parametrize(
        "text",
        ["1/-2", "1/+2", "1_000", "\u0661\u0662", "1 /2", pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_only_sign_and_ascii_digits(self, text):
        with pytest.raises(DocumentError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("9" * 5000, id="integer"),
            pytest.param("1/" + "7" * 5000, id="denominator"),
            pytest.param("x" * 5000, id="garbage"),
            pytest.param("1/" + "0" * 5000, id="zero-denominator"),
        ],
    )
    def test_over_long_input_is_shown_shortened(self, text):
        with pytest.raises(DocumentError, match=r" \(5\d{3} characters\)$") as exc:
            parse_rational(text)
        assert len(str(exc.value)) < 120

    def test_short_input_is_shown_whole(self):
        with pytest.raises(DocumentError, match=r"^not an exact rational: '1/-2'$"):
            parse_rational("1/-2")

    def test_format_roundtrip(self):
        for x in (Fraction(3), Fraction(-1, 2), Fraction(0)):
            assert parse_rational(format_rational(x)) == x


class TestTripleDocuments:
    def test_roundtrip(self, w1):
        doc = triple_to_document(w1)
        back = triple_from_document(doc)
        assert back == w1

    def test_serialize_is_canonical(self, w1):
        a = dump_json(triple_to_document(w1))
        b = dump_json(triple_to_document(triple_from_document(triple_to_document(w1))))
        assert a == b

    def test_wrong_lengths(self):
        with pytest.raises(DocumentError):
            triple_from_document({"k": 1, "p": ["1"] * 4, "q": ["0"] * 7})

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, ["1"] * 5, ["0"] * 7], "must be a JSON object"),
            ({"k": 1, "p": ["1"] * 5, "q": ["0"] * 6}, "q must be a list of 7 rationals"),
        ],
        ids=["not-an-object", "short-q"],
    )
    def test_refused_shapes_name_the_fault(self, doc, message):
        with pytest.raises(DocumentError, match=message):
            triple_from_document(doc)

    def test_boolean_k_rejected(self):
        with pytest.raises(DocumentError):
            triple_from_document({"k": True, "p": ["0"] * 5, "q": ["1"] + ["0"] * 6})

    def test_missing_field(self):
        with pytest.raises(DocumentError):
            triple_from_document({"k": 1, "p": ["0"] * 5})

    def test_invalid_data_propagates(self):
        doc = {"k": 1, "p": ["0", "0", "0", "0", "1"], "q": ["0"] * 6 + ["1"]}
        with pytest.raises(NonMinimal):
            triple_from_document(doc)  # p = u^4, q = u^6

    def test_fractional_coefficients(self):
        w = U * U + V * V
        t = validate(1, -(w ** 2), Fraction(1, 3) * w ** 3)
        assert triple_from_document(triple_to_document(t)) == t

    def test_coefficients_are_the_fractions_of_the_form(self):
        t = _seeded_k4_triple()
        doc = triple_to_document(t)
        assert doc["p"] == [format_rational(c) for c in fraction_coeffs(t.p)]
        assert doc["q"] == [format_rational(c) for c in fraction_coeffs(t.q)]
        assert any("/" in c for c in doc["p"]) and any("/" in c for c in doc["q"])

    def test_triple_to_document_runs_no_fraction_code(self):
        t = _seeded_k4_triple()
        doc, calls = fraction_calls(lambda: triple_to_document(t))
        assert calls == []
        assert triple_from_document(doc) == t

    def test_triple_from_document_builds_no_fraction(self):
        t = _seeded_k4_triple()
        doc = triple_to_document(t)
        back, calls = fraction_calls(lambda: triple_from_document(doc))
        assert "__new__" not in calls
        assert back == t

    def test_coefficients_need_not_be_in_lowest_terms(self):
        t = _seeded_k4_triple()
        doc = triple_to_document(t)
        unreduced = {"k": t.k, "p": [_unreduced(c, 3) for c in doc["p"]], "q": [_unreduced(c, 7) for c in doc["q"]]}
        assert triple_from_document(unreduced) == t


def _unreduced(text, m):
    """Write "n" or "n/d" as "(m n)/(m d)"."""
    num, _, den = text.partition("/")
    return f"{m * int(num)}/{m * int(den or 1)}"


class TestFiberDocuments:
    def test_classified_fibers_are_written_without_building_fractions(self, w1):
        # seeded k = 4 triples, and w1 for rational points
        triples = [random_valid_triple(random.Random(seed), 4) for seed in range(1, 5)] + [w1]
        fibers = [r for t in triples for r in t.fibers]
        locations = [r.location for r in fibers]
        assert any(isinstance(x, AlgebraicPoint) for x in locations)
        assert any(isinstance(x, ConjugatePairTag) for x in locations)
        assert any(isinstance(x, FinitePoint) for x in locations)
        docs, calls = fraction_calls(lambda: [fiber_to_document(r) for r in fibers])
        assert "__new__" not in calls
        for r, doc in zip(fibers, docs):
            if isinstance(r.location, AlgebraicPoint):
                assert doc["location"]["defining"] == [str(c) for c in r.location.defining]
            elif isinstance(r.location, ConjugatePairTag):
                assert doc["location"]["factor"] == [str(c) for c in r.location.factor]
