"""Command line interface.

Subcommands: validate, report, transform, fuzz, search, oracle-check.
Exit codes follow one convention everywhere: 0 success, 1 theorem
violation (fuzzing, a failed transform check, oracle disagreement or a
failed invariant in search), 2 invalid input or parameters.  search
also exits 1 when it accepts no candidate; its stdout then starts with
"not found" instead of "VIOLATION".  All output is deterministic.
"""

from __future__ import annotations

import sys

import click

from .documents import (
    DocumentError,
    arcs_to_document,
    bounds_to_document,
    dump_json,
    fiber_to_document,
    invariants_to_document,
    load_triple,
    not_real_generic_to_document,
    parse_rational,
    topology_to_document,
    triple_to_document,
)
from .fuzz import run_fuzz
from .oracle import OracleDisagreement, compare
from .topology import NotRealGeneric, check_bounds
from .transforms import (
    InvalidI0StarParams,
    SearchBudget,
    i0star_transform,
    make_params,
    search_extremal,
    twist,
    verify_i0star,
    verify_twist,
)
from .weierstrass import NonMinimal, SurfaceInvariants, WeierstrassError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2


@click.group()
def main():
    """Exact topology of real elliptic surfaces from Weierstrass data."""


def _load_or_exit(path: str):
    try:
        return load_triple(path)
    except (DocumentError, WeierstrassError, OSError) as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_INVALID)


@main.command()
@click.argument("file", type=click.Path())
def validate(file):
    """Check a triple document; exit 0 when valid, 2 with a witness when not."""
    try:
        t = load_triple(file)
    except NonMinimal as exc:
        click.echo(f"invalid: non-minimal at {exc.witness}")
        sys.exit(EXIT_INVALID)
    except (DocumentError, WeierstrassError, OSError) as exc:
        click.echo(f"invalid: {exc}")
        sys.exit(EXIT_INVALID)
    click.echo(f"valid: k={t.k}, deg p = {t.p.degree}, deg q = {t.q.degree}")
    sys.exit(EXIT_OK)


def _full_report_document(t) -> dict:
    doc = {
        "triple": triple_to_document(t),
        "invariants": invariants_to_document(SurfaceInvariants.for_k(t.k)),
        "fibers": [fiber_to_document(r) for r in t.fibers],
    }
    try:
        rep = t.topology
    except NotRealGeneric as exc:
        doc["real_topology"] = not_real_generic_to_document(exc)
        return doc
    if rep.arcs is not None:
        doc["arcs"] = arcs_to_document(rep.arcs)
    doc["topology"] = topology_to_document(rep)
    doc["bounds"] = bounds_to_document(check_bounds(rep, t.k))
    return doc


def _print_text_report(doc: dict) -> None:
    inv = doc["invariants"]
    click.echo(
        f"surface: k={inv['k']}  chi_top={inv['chi_top']}  "
        f"h11={inv['h11']}  b2={inv['b2']}"
    )
    click.echo("fibers:")
    for f in doc["fibers"]:
        loc = f["location"]
        if loc["type"] == "rational":
            where = f"u = {loc['value']}"
        elif loc["type"] == "infinity":
            where = "u = inf"
        elif loc["type"] == "algebraic":
            where = f"root in ({loc['lo']}, {loc['hi']})"
        else:
            where = f"{loc['pairs']} conjugate pair(s)"
        click.echo(
            f"  {f['kodaira']:>5}  (v_p, v_q, v_delta) = "
            f"({f['v_p']}, {f['v_q']}, {f['v_delta']})  {where}"
        )
    if "real_topology" in doc:
        rt = doc["real_topology"]
        offs = ", ".join(o["kodaira"] for o in rt["offenders"])
        click.echo(f"topology refused: {rt['refused']} ({offs})")
        return
    if "arcs" in doc:
        arcs = doc["arcs"]
        click.echo(
            f"arcs: arc+ = {arcs['arc_plus']}  arc- = {arcs['arc_minus']}  "
            f"[I1+] = {arcs['n_I1_plus']}  [I1-] = {arcs['n_I1_minus']}"
        )
    topo = doc["topology"]
    click.echo(
        f"topology: h0={topo['h0']} h1={topo['h1']} chi={topo['chi_top']} "
        f"components={'+'.join(topo['components'])} "
        f"{'orientable' if topo['orientable'] else 'non-orientable'}"
    )
    bounds = doc["bounds"]
    click.echo(
        f"bounds: h0<=5k {'ok' if bounds['h0_le_5k'] else 'VIOLATED'}; "
        f"h1<=10k {'ok' if bounds['h1_le_10k'] else 'VIOLATED'}; "
        f"h1 even {'ok' if bounds['h1_even'] else 'VIOLATED'}; "
        f"orientability {'ok' if bounds['orientable_iff_k_even'] else 'VIOLATED'}"
    )


@main.command()
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="machine-readable output (default: text)")
def report(file, as_json):
    """Fiber table, arc decomposition, topology and bound verdicts."""
    t = _load_or_exit(file)
    doc = _full_report_document(t)
    if as_json:
        click.echo(dump_json(doc), nl=False)
    else:
        _print_text_report(doc)
    sys.exit(EXIT_OK)


def _print_checks(ver) -> None:
    """One line per check; exit 1 when any is violated."""
    for c in ver.checks:
        if c.ok is None:
            status = "not applicable: " + c.detail
        else:
            status = "ok" if c.ok else "VIOLATED " + c.detail
        click.echo(f"  {c.name}: {status}")
    if not ver.ok:
        sys.exit(EXIT_VIOLATION)


def _emit_triple(t, out) -> None:
    """Write t's document to the file out and say so, or print it; exit 0."""
    text = dump_json(triple_to_document(t))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)
    sys.exit(EXIT_OK)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--twist", "do_twist", is_flag=True, help="apply (p, q) -> (p, -q)")
@click.option("--i0star", nargs=2, type=str, default=None, help="centers a b")
@click.option("--verify", "do_verify", is_flag=True, help="check the transform's contract")
@click.option("--out", type=click.Path(), default=None, help="write the result here")
def transform(file, do_twist, i0star, do_verify, out):
    """Apply the twist or an I0* step and emit the transformed document."""
    t = _load_or_exit(file)
    if do_twist == (i0star is not None):
        click.echo("choose exactly one of --twist / --i0star", err=True)
        sys.exit(EXIT_INVALID)
    if do_twist:
        result = twist(t)
        if do_verify:
            _print_checks(verify_twist(t, result))
    else:
        try:
            a = parse_rational(i0star[0])
            b = parse_rational(i0star[1])
            params = make_params(t, a, b)
        except (DocumentError, InvalidI0StarParams) as exc:
            click.echo(f"invalid parameters: {exc}", err=True)
            sys.exit(EXIT_INVALID)
        result = i0star_transform(t, params)
        if do_verify:
            _print_checks(verify_i0star(t, params, result))
    _emit_triple(result, out)


@main.command()
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--height", type=int, default=9, show_default=True)
@click.option("--oracle-every", type=int, default=10, show_default=True)
def fuzz(k, trials, seed, height, oracle_every):
    """Random triples vs. the theorem-backed invariants; exit 1 on violation."""
    if k < 1 or trials < 0 or height < 1 or oracle_every < 0:
        click.echo("k and height must be >= 1, trials and oracle-every >= 0", err=True)
        sys.exit(EXIT_INVALID)
    summary = run_fuzz(k, trials, seed, height=height, oracle_every=oracle_every)
    for line in summary.lines():
        click.echo(line)
    if not summary.ok:
        for v in summary.violations:
            click.echo(dump_json({"violating_triple": v["triple"]}), nl=False)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--components", "components_", type=int, required=True)
@click.option("--budget", type=int, default=128, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def search(k, components_, budget, seed, out):
    """Find a verified surface with the requested number of real components.

    Exit 1 with "not found: ..." when no candidate is accepted, and with
    "VIOLATION: ..." when one fails an invariant (the same arguments
    rebuild it).
    """
    if components_ > 5 * k:
        click.echo(
            f"rejected: {components_} components exceeds the bound 5k = {5 * k}",
            err=True,
        )
        sys.exit(EXIT_INVALID)
    if components_ < 1 or k < 1 or budget < 1:
        click.echo("k, components and budget must be positive", err=True)
        sys.exit(EXIT_INVALID)
    try:
        result = search_extremal(k, components_, SearchBudget(max_candidates=budget, rng_seed=seed))
    except AssertionError as exc:
        click.echo(f"VIOLATION: {exc}")
        sys.exit(EXIT_VIOLATION)
    if not result.found:
        click.echo(f"not found: {result.reason} (tried {result.candidates_tried})")
        sys.exit(EXIT_VIOLATION)
    rep = result.report
    click.echo(
        f"found after {result.candidates_tried} candidate(s): "
        f"h0={rep.h0} h1={rep.h1} chi={rep.chi_top}"
    )
    _emit_triple(result.triple, out)


@main.command(name="oracle-check")
@click.argument("file", type=click.Path())
def oracle_check(file):
    """Compare the arc-formula topology against the cell-complex oracle."""
    t = _load_or_exit(file)
    try:
        agreement = compare(t)
    except NotRealGeneric as exc:
        click.echo(f"not applicable: {exc}")
        sys.exit(EXIT_INVALID)
    except OracleDisagreement as exc:
        click.echo(f"DISAGREEMENT: {exc}")
        sys.exit(EXIT_VIOLATION)
    click.echo(
        f"agree: h0={agreement.h0} h1={agreement.h1} chi={agreement.chi} "
        f"(cells V={agreement.oracle.vertices} E={agreement.oracle.edges} "
        f"F={agreement.oracle.faces})"
    )
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
