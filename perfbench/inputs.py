"""Seeded inputs for the three workloads; the same seed gives the same inputs.

report and crosscheck draw random integer triples of height 9 (the
height `ellsurf fuzz` uses) and keep them in batches of six surfaces
with k = 1, 1, 2, 2, 3, 4, so every batch has the same make-up.  With
two each of k = 1 and 2 the median operation falls in the middle of
the k = 2 operations, not on the gap between two values of k.  search
runs a fixed list of targets; the seed only sets their order in a pass.
No pass repeats a surface, and each pass runs in its own process.
"""

from __future__ import annotations

import random
from typing import List

from checks import has_squarefree_discriminant, is_valid

HEIGHT = 9
BATCH_KS = (1, 1, 2, 2, 3, 4)

# (k, h0) targets that search_extremal reaches today; see README.md for why each.
SEARCH_TARGETS = (
    ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5))
    + tuple((2, h0) for h0 in range(2, 10))
    + ((3, 8), (3, 9))
)


def _new_doc(rng: random.Random, k: int, keep, seen: set) -> dict:
    """A random triple document that `keep` accepts and that was not drawn before."""
    while True:
        doc = {
            "k": k,
            "p": [str(rng.randint(-HEIGHT, HEIGHT)) for _ in range(4 * k + 1)],
            "q": [str(rng.randint(-HEIGHT, HEIGHT)) for _ in range(6 * k + 1)],
        }
        key = (k, tuple(doc["p"]), tuple(doc["q"]))
        if key not in seen and keep(doc):
            seen.add(key)
            return doc


def make_passes(workload: str, seed: int, passes: int, batches: int) -> List[List[dict]]:
    """Operations for each pass, in the order they run.

    report: every valid triple, kept as it falls (some have no real
    singular fiber, a few have a non-nodal one and get a refusal).
    crosscheck: triples whose discriminant is squarefree, so compare()
    applies.  `batches` caps the batches per pass of these two.
    search: `passes` passes of the whole target list and, between each
    two of them, a pass of the targets with k <= 2 only, each in a
    seeded order.  The k <= 2 targets, the middle one among them, thus
    get 2 * passes - 1 samples spread over the run, without more runs of
    the long k = 3 targets.  The
    program-side checks of a result (oracle h0, twist h1) run in the
    first pass only, and later passes must return the same surface.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out = []
    if workload == "search":
        for index in range(2 * passes - 1):
            if index % 2 == 0:
                targets = list(SEARCH_TARGETS)
            else:
                targets = [t for t in SEARCH_TARGETS if t[0] <= 2]
            rng.shuffle(targets)
            out.append(
                [
                    {"workload": workload, "batch": 0, "stratum": f"k={k},h0={h0}",
                     "k": k, "h0": h0, "verify": index == 0}
                    for k, h0 in targets
                ]
            )
        return out
    keep = is_valid if workload == "report" else has_squarefree_discriminant
    seen: set = set()
    for _ in range(passes):
        ops = []
        for b in range(batches):
            batch = [_new_doc(rng, k, keep, seen) for k in BATCH_KS]
            rng.shuffle(batch)
            ops.extend(
                {"workload": workload, "batch": b, "stratum": f"k={doc['k']}", "doc": doc}
                for doc in batch
            )
        out.append(ops)
    return out
