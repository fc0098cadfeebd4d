"""Byte digest of the program's outputs: one sha256 and exit code per output.

The outputs are
- `ellsurf report --json` of 120 seeded random triples, 15 at each
  k = 1..4 and each followed by its twist (q -> -q);
- a canonical dump of `compare()` on those whose discriminant is
  squarefree (every fiber I1, so the oracle applies);
- the stdout and the `--out` bytes of `ellsurf search` for the 44
  targets (k, h0) with k = 1..4 and h0 = 1..4k + 1.

tests/test_digest.py recomputes them and names the lines that differ
from tests/golden/digest.txt.  A change that alters outputs on purpose
regenerates the file with

    PYTHONPATH=src python tests/digest.py --write

and says in CHANGES.md which lines changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Dict, Tuple

from click.testing import CliRunner

from ellsurf import documents
from ellsurf.cli import main
from ellsurf.oracle import compare
from ellsurf.roots import AlgebraicPoint, FinitePoint

DIGEST = Path(__file__).parent / "golden" / "digest.txt"

HEIGHT = 9
TRIPLES_PER_K = 15
SEARCH_TARGETS = tuple((k, h0) for k in range(1, 5) for h0 in range(1, 4 * k + 2))


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


def _point_text(pt) -> str:
    if isinstance(pt, FinitePoint):
        return documents.format_rational(pt.value)
    if isinstance(pt, AlgebraicPoint):
        coeffs = ",".join(documents.format_rational(c) for c in pt.defining.coeffs)
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
    return out


def format_lines(digest: Dict[str, Tuple[str, int]]) -> str:
    return "".join(f"{sha} {code} {name}\n" for name, (sha, code) in digest.items())


def read_lines(path: Path = DIGEST) -> Dict[str, Tuple[str, int]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        sha, code, name = line.split(" ", 2)
        out[name] = (sha, int(code))
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/digest.py --write")
    DIGEST.write_text(format_lines(compute()), encoding="utf-8")
    print(f"wrote {DIGEST}")
