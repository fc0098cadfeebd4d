"""Byte digest of the program's outputs: one sha256 and exit code per output.

The outputs are
- `ellsurf report --json` of 120 seeded random triples, 15 at each
  k = 1..4 and each followed by its twist (q -> -q);
- a canonical dump of `compare()` on those whose discriminant is
  squarefree (every fiber I1, so the oracle applies);
- the stdout and the `--out` bytes of `ellsurf search` for the 44
  targets (k, h0) with k = 1..4 and h0 = 1..4k + 1;
- the stdout of `ellsurf validate` on seeded non-minimal documents
  (r^4 p0, r^6 q0), named by the kind of witness they ask for, and
  the stdout of `validate` and `report --json` on seeded minimal
  documents whose p and q share the factor r;
- the stdout of the text `report`, `oracle-check`, `transform --twist
  --verify` and `transform --i0star 4 5 --verify` on the golden
  triples;
- the stdout of `ellsurf fuzz --k K --trials 50 --seed 3
  --oracle-every 1` for K = 1, 2, 3.

tests/test_digest.py recomputes them and names the lines that differ
from tests/golden/digest.txt; so does

    PYTHONPATH=src python tests/digest.py

which exits 1 on any difference and needs only the runtime (no sympy).
A change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/digest.py --write

and says in CHANGES.md which lines changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from click.testing import CliRunner

from ellsurf import BinForm, documents
from ellsurf.binform import coefficient_strings
from ellsurf.cli import main
from ellsurf.oracle import compare
from ellsurf.roots import AlgebraicPoint, FinitePoint

DIGEST = Path(__file__).parent / "golden" / "digest.txt"

HEIGHT = 9
TRIPLES_PER_K = 15
SEARCH_TARGETS = tuple((k, h0) for k in range(1, 5) for h0 in range(1, 4 * k + 2))
GOLDEN_TRIPLES = sorted((Path(__file__).parent / "golden").glob("*.triple.json"))
GOLDEN_COMMANDS = (
    ("report-text", ["report"]),
    ("oracle-check", ["oracle-check"]),
    ("twist", ["transform", "--twist", "--verify"]),
    ("i0star", ["transform", "--i0star", "4", "5", "--verify"]),
)
FUZZ_KS = (1, 2, 3)

# the kinds of non-minimality witness the validate corpus asks for
WITNESS_KINDS = (
    "rational",
    "infinity",
    "conjugate-pair",
    "irrational",
    "p-zero",
    "q-zero",
    "infinity+rational",
    "conjugate-pair+rational",
    "irrational+rational",
)
DOCS_PER_KIND = 4
# (order of r in p, order of r in q), each minimal at the roots of r
SHARED_ORDERS = ((1, 1), (2, 3), (3, 2), (3, 5), (4, 5), (3, 6), (1, 6), (2, 4))

U = BinForm.make(1, [0, 1])
V = BinForm.make(1, [1, 0])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seeded_documents():
    """(name, triple document): each seeded random triple, then its twist."""
    for k in range(1, 5):
        rng = random.Random(f"digest:{k}")
        found = 0
        while found < TRIPLES_PER_K:
            doc = {
                "k": k,
                "p": [str(rng.randint(-HEIGHT, HEIGHT)) for _ in range(4 * k + 1)],
                "q": [str(rng.randint(-HEIGHT, HEIGHT)) for _ in range(6 * k + 1)],
            }
            try:
                documents.triple_from_document(doc)
            except ValueError:
                continue
            twisted = dict(doc, q=[str(-int(c)) for c in doc["q"]])
            yield f"k{k}-{found:02d}", doc
            yield f"k{k}-{found:02d}-twist", twisted
            found += 1


def _random_factor(rng: random.Random, kind: str) -> BinForm:
    """A seeded form r whose roots are of the given kind; "a+b" multiplies two kinds."""
    if "+" in kind:
        left, right = kind.split("+")
        return _random_factor(rng, left) * _random_factor(rng, right)
    if kind == "infinity":
        return V
    if kind == "conjugate-pair":
        b = rng.randint(-3, 3)
        return U * U + b * U * V + (b * b // 4 + rng.randint(1, 4)) * V * V
    if kind == "irrational":
        b, m = rng.randint(-3, 3), rng.choice([2, 3, 5, 6, 7])
        return U * U + b * U * V + Fraction(b * b - m, 4) * V * V  # discriminant m
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return U - a * V


def _random_cofactor(rng: random.Random, degree: int) -> BinForm:
    while True:
        f = BinForm.make(degree, [rng.randint(-3, 3) for _ in range(degree + 1)])
        if not f.is_zero:
            return f


def _document(k: int, p: BinForm, q: BinForm) -> dict:
    return {
        "k": k,
        "p": coefficient_strings(p.num, p.den, p.degree),
        "q": coefficient_strings(q.num, q.den, q.degree),
    }


def _shared_factor_doc(rng: random.Random, kind: str, i: int, j: int) -> dict:
    """p = r^i p0 and q = r^j q0 with seeded r and cofactors; an order 0 stands for a zero form."""
    r = _random_factor(rng, kind)
    k = r.degree if r.degree > 1 else rng.choice([1, 2])
    while True:
        p = BinForm.from_affine(4 * k, []) if i == 0 else r ** i * _random_cofactor(rng, 4 * k - i * r.degree)
        q = BinForm.from_affine(6 * k, []) if j == 0 else r ** j * _random_cofactor(rng, 6 * k - j * r.degree)
        if not (4 * p ** 3 + 27 * q ** 2).is_zero:
            return _document(k, p, q)


def validate_documents():
    """(name, triple document, minimal): the seeded validate corpus."""
    for kind in WITNESS_KINDS:
        rng = random.Random(f"digest:validate:{kind}")
        for n in range(DOCS_PER_KIND):
            if kind in ("p-zero", "q-zero"):
                root_kind = rng.choice(["rational", "infinity", "conjugate-pair"])
                orders = (0, 6) if kind == "p-zero" else (4, 0)
            else:
                root_kind, orders = kind, (4, 6)
            yield f"nonminimal-{kind}-{n:02d}", _shared_factor_doc(rng, root_kind, *orders), False
    rng = random.Random("digest:validate:shared")
    for n, orders in enumerate(SHARED_ORDERS):
        kind = ("rational", "conjugate-pair", "irrational", "infinity")[n % 4]
        yield f"shared-{kind}-{n:02d}", _shared_factor_doc(rng, kind, *orders), True
    # p = r^4 s p0 and q = r s^6 q0: both forms have high orders, at different points
    r, s = U - V, U * U + 2 * V * V
    p, q = r ** 4 * s * _random_cofactor(rng, 6), r * s ** 6 * _random_cofactor(rng, 5)
    yield "shared-crossed", _document(3, p, q), True


def _point_text(pt) -> str:
    if isinstance(pt, FinitePoint):
        return documents.format_rational(pt.value)
    if isinstance(pt, AlgebraicPoint):
        coeffs = ",".join(str(c) for c in pt.defining)
        lo, hi = (documents.format_rational(x) for x in (pt.lo, pt.hi))
        return f"root of [{coeffs}] in ({lo}, {hi})"
    return "inf"


def compare_dump(t) -> str:
    """h0, h1, chi, the cell counts and every slice of compare(t), one per line."""
    agreement = compare(t)
    res = agreement.oracle
    lines = [
        f"h0={agreement.h0} h1={agreement.h1} chi={agreement.chi}",
        f"V={res.vertices} E={res.edges} F={res.faces}",
    ]
    for s in res.slices:
        lines.append(f"{s.kind} {_point_text(s.point)} {','.join(s.comps)} {s.pattern}")
    return "\n".join(lines) + "\n"


def compute() -> Dict[str, Tuple[str, int]]:
    """{output name: (sha256 of its bytes, exit code)}."""
    out: Dict[str, Tuple[str, int]] = {}
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in seeded_documents():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            result = runner.invoke(main, ["report", str(path), "--json"])
            out[f"report {name}"] = (_sha(result.output), result.exit_code)
            t = documents.triple_from_document(doc)
            if all(f.v_delta == 1 for f in t.fibers):
                out[f"compare {name}"] = (_sha(compare_dump(t)), 0)
    for k, h0 in SEARCH_TARGETS:
        with runner.isolated_filesystem():
            result = runner.invoke(
                main, ["search", "--k", str(k), "--components", str(h0), "--out", "found.json"]
            )
            found = Path("found.json")
            written = found.read_text(encoding="utf-8") if found.exists() else ""
        out[f"search k{k}-c{h0} stdout"] = (_sha(result.output), result.exit_code)
        out[f"search k{k}-c{h0} out"] = (_sha(written), result.exit_code)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, minimal in validate_documents():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            result = runner.invoke(main, ["validate", str(path)])
            out[f"validate {name}"] = (_sha(result.stdout), result.exit_code)
            if minimal:
                result = runner.invoke(main, ["report", str(path), "--json"])
                out[f"report-json {name}"] = (_sha(result.stdout), result.exit_code)
    for triple in GOLDEN_TRIPLES:
        name = triple.name[: -len(".triple.json")]
        for label, args in GOLDEN_COMMANDS:
            result = runner.invoke(main, [*args[:1], str(triple), *args[1:]])
            out[f"{label} golden {name}"] = (_sha(result.stdout), result.exit_code)
    for k in FUZZ_KS:
        args = ["fuzz", "--k", str(k), "--trials", "50", "--seed", "3", "--oracle-every", "1"]
        result = runner.invoke(main, args)
        out[f"fuzz k{k}"] = (_sha(result.stdout), result.exit_code)
    return out


def format_lines(digest: Dict[str, Tuple[str, int]]) -> str:
    return "".join(f"{sha} {code} {name}\n" for name, (sha, code) in digest.items())


def read_lines(path: Path = DIGEST) -> Dict[str, Tuple[str, int]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        sha, code, name = line.split(" ", 2)
        out[name] = (sha, int(code))
    return out


def differences(recorded: Dict[str, Tuple[str, int]], current: Dict[str, Tuple[str, int]]) -> List[str]:
    """One line per output name whose (sha256, exit code) differs or is missing on one side."""
    return [
        f"{name}: recorded {recorded.get(name)}, now {current.get(name)}"
        for name in sorted(set(recorded) | set(current))
        if recorded.get(name) != current.get(name)
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        DIGEST.write_text(format_lines(compute()), encoding="utf-8")
        print(f"wrote {DIGEST}")
    elif sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/digest.py [--write]")
    else:
        differ = differences(read_lines(), compute())
        print("\n".join(differ) if differ else f"all outputs match {DIGEST}")
        sys.exit(1 if differ else 0)
