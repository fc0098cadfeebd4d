"""Command line behavior: exit codes, formats, determinism."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ellsurf import BinForm, NotRealGeneric, WeierstrassError, validate
from ellsurf.cli import main
from ellsurf.documents import dump_json, triple_to_document

from conftest import U, V, monomial, off_delta, time_limit

GOLDEN = Path(__file__).resolve().parent / "golden"
EXTREMAL = str(GOLDEN / "extremal-k1-h5.triple.json")
HOSTILE = Path(__file__).resolve().parent / "hostile"
LONG_I0STAR = ["--i0star", "123456789012345678901234567890", "5"]
REFUSED_LONG = "refused: a coefficient has more than 4300 digits, too many to read back\n"


def _run_ellsurf(*args):
    """The console entry point in a fresh interpreter, with this checkout's src/."""
    script = "import sys\nfrom ellsurf.cli import main\nsys.argv[0] = 'ellsurf'\nmain()\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _flip_cuts(monkeypatch, flip):
    """Make the oracle read the other pattern at the cuts where flip(i) holds,
    i counting every cut slice the oracle builds from 0."""
    import ellsurf.oracle

    cut_slice = ellsurf.oracle._cut_slice
    built = []

    def flipping(t, pt):
        s = cut_slice(t, pt)
        built.append(s)
        if not flip(len(built) - 1):
            return s
        if s.pattern == "collapse":
            return dataclasses.replace(s, comps=("wedge",), pattern="join")
        return dataclasses.replace(s, comps=("cap", "circle"), pattern="collapse")

    monkeypatch.setattr(ellsurf.oracle, "_cut_slice", flipping)


def _cuts_off_delta(monkeypatch):
    """Make the pipeline hand on every irrational cut off_delta."""
    import ellsurf.topology

    real_cuts = ellsurf.topology.real_cuts
    monkeypatch.setattr(ellsurf.topology, "real_cuts", lambda reports: [off_delta(c) for c in real_cuts(reports)])


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def w1_file(tmp_path, w1):
    path = tmp_path / "w1.json"
    path.write_text(dump_json(triple_to_document(w1)))
    return str(path)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc) if isinstance(doc, dict) else doc)
    return str(path)


class TestValidateCommand:
    def test_valid(self, runner, w1_file):
        result = runner.invoke(main, ["validate", w1_file])
        assert result.exit_code == 0
        assert "valid" in result.output

    def test_nonminimal(self, runner, tmp_path):
        doc = {"k": 1, "p": ["0", "0", "0", "0", "1"], "q": ["0"] * 6 + ["1"]}
        path = _write(tmp_path, "bad.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
        assert "non-minimal" in result.output
        assert "0" in result.output  # the witness point

    def test_malformed_rational(self, runner, tmp_path):
        doc = {"k": 1, "p": ["1/0", "0", "0", "0", "1"], "q": ["1"] + ["0"] * 6}
        path = _write(tmp_path, "bad2.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"k": True, "p": ["0"] * 5, "q": ["1"] + ["0"] * 6},
            {"k": 1, "p": ["1/-2", "0", "0", "0", "1"], "q": ["1"] + ["0"] * 6},
        ],
    )
    def test_hostile_document(self, runner, tmp_path, doc):
        path = _write(tmp_path, "hostile.json", doc)
        for command in ("validate", "report"):
            result = runner.invoke(main, [command, path])
            assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"k": 1, "p": ["\xff"]}',
            b'{"k": ' + b"1" * 5000 + b', "p": [], "q": []}',
        ],
        ids=["deep-nesting", "not-utf8", "long-integer"],
    )
    def test_unparsable_document(self, runner, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        for args in (
            ["validate"],
            ["report", "--json"],
            ["oracle-check"],
            ["transform", "--twist"],
        ):
            result = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert result.exit_code == 2, (args, result.output, result.exception)
            assert "invalid" in result.output

    def test_unreadable(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "missing.json")])
        assert result.exit_code == 2


class TestReportCommand:
    def test_w1_text(self, runner, w1_file):
        result = runner.invoke(main, ["report", w1_file])
        assert result.exit_code == 0
        assert "h0=1 h1=2" in result.output
        assert "V2" in result.output

    def test_w1_json_schema(self, runner, w1_file):
        result = runner.invoke(main, ["report", w1_file, "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["topology"]["h0"] == 1
        assert doc["invariants"]["chi_top"] == 12
        assert len(doc["fibers"]) == 12
        assert doc["bounds"]["all_ok"]
        # exact rationals only: no floats anywhere in the JSON tree
        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(doc)

    def test_istar_refusal_with_partial_data(self, runner, tmp_path):
        t = validate(1, monomial(4, 2), monomial(6, 3))
        path = _write(tmp_path, "istar.json", triple_to_document(t))
        result = runner.invoke(main, ["report", path, "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert "real_topology" in doc and "refused" in doc["real_topology"]
        assert len(doc["fibers"]) == 2

    def test_failed_bounds_are_reported(self, runner, monkeypatch):
        # six circles over a circle bundle at k = 1 break h0 <= 5k and h1 <= 10k
        import ellsurf.topology

        monkeypatch.setattr(ellsurf.topology, "smooth_fiber_components", lambda t, c: 6)
        path = str(GOLDEN / "bundle-negative-delta.triple.json")
        doc = json.loads(runner.invoke(main, ["report", path, "--json"]).output)
        assert doc["bounds"] == {
            "h0_le_5k": False,
            "h1_le_10k": False,
            "h1_even": True,
            "orientable_iff_k_even": True,
            "all_ok": False,
        }
        text = runner.invoke(main, ["report", path]).output
        assert text.endswith("bounds: h0<=5k VIOLATED; h1<=10k VIOLATED; h1 even ok; orientability ok\n")

    def test_refused_topology_text(self, runner):
        path = str(GOLDEN / "istar-refusal.triple.json")
        result = runner.invoke(main, ["report", path])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(
            "\ntopology refused: non-nodal real singular fibers (I0*, I0*)\n"
        )

    def test_bundle_has_no_caveat(self, runner, tmp_path):
        # Delta > 0 on the whole circle: one component, which the oracle confirms
        t = validate(1, BinForm.from_affine(4, []), V ** 6 + U ** 6)
        path = _write(tmp_path, "bundle.json", triple_to_document(t))
        result = runner.invoke(main, ["report", path, "--json"])
        doc = json.loads(result.output)
        assert doc["topology"]["no_real_singular_fibers"]
        assert doc["topology"]["components"] == ["V2"]
        assert "caveat" not in doc["topology"]
        text = runner.invoke(main, ["report", path]).output
        assert "caveat" not in text and "h0=1 h1=2" in text

    def test_deterministic_bytes(self, runner, w1_file):
        a = runner.invoke(main, ["report", w1_file, "--json"]).output
        b = runner.invoke(main, ["report", w1_file, "--json"]).output
        assert a == b

    def test_report_and_compare_never_import_sympy(self, w1_file):
        # the runtime needs only click: no command and no library call loads sympy
        script = (
            "import sys\n"
            "from ellsurf.cli import main\n"
            "from ellsurf.documents import load_triple\n"
            "from ellsurf.oracle import compare\n"
            f"path = {w1_file!r}\n"
            "commands = [\n"
            "    ['report', path, '--json'],\n"
            "    ['transform', path, '--twist', '--verify'],\n"
            "    ['validate', path],\n"
            "    ['oracle-check', path],\n"
            "    ['fuzz', '--trials', '3'],\n"
            "    ['search', '--k', '1', '--components', '5'],\n"
            "]\n"
            "for args in commands:\n"
            "    try:\n"
            "        main.main(args, standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, args\n"
            "compare(load_triple(path))\n"
            "print('sympy' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == "False"


    def test_report_writes_integers_longer_than_parsing_accepts(self, runner):
        # a 1,450-digit denominator of p gives defining forms of the cuts
        # with over 4,300 digits, which str(int) refuses by default
        path = str(HOSTILE / "long-denominator.triple.json")
        out = _run_ellsurf("report", path, "--json")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert max(len(c) for pt in doc["arcs"]["singular_points"] for c in pt["point"].get("defining", [])) > 4300
        # the limit is lifted only while the report is written
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert runner.invoke(main, ["report", path]).exit_code == 0
        assert limit() == before


class TestTransformCommand:
    def test_twist_twice_is_normalized_identity(self, runner, w1_file, tmp_path, w1):
        once = str(tmp_path / "t1.json")
        twice = str(tmp_path / "t2.json")
        r1 = runner.invoke(main, ["transform", w1_file, "--twist", "--out", once])
        assert r1.exit_code == 0
        r2 = runner.invoke(main, ["transform", once, "--twist", "--out", twice])
        assert r2.exit_code == 0
        from ellsurf import normalize
        from ellsurf.documents import load_triple

        assert load_triple(twice) == normalize(w1)

    def test_twist_verify_prints_each_check(self, runner, w1_file):
        result = runner.invoke(main, ["transform", w1_file, "--twist", "--verify"])
        assert result.exit_code == 0, result.output
        assert "  discriminant_unchanged: ok\n" in result.output
        assert "  twist_duality: ok\n" in result.output

    def test_twist_verify_rejects_a_wrong_twist(self, runner, monkeypatch):
        import ellsurf.cli

        monkeypatch.setattr(ellsurf.cli, "twist", lambda t: t)
        result = runner.invoke(main, ["transform", EXTREMAL, "--twist", "--verify"])
        assert result.exit_code == 1, result.output
        assert "twist_duality: VIOLATED" in result.output

    def test_twist_verify_reports_an_oracle_refusal(self, runner, monkeypatch):
        _cuts_off_delta(monkeypatch)
        result = runner.invoke(
            main, ["transform", str(GOLDEN / "random-k2.triple.json"), "--twist", "--verify"]
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "\n  twist_duality: VIOLATED oracle refused: the nodal cut root of " in result.output
        assert " is not a zero of the discriminant\n" in result.output

    def test_twist_verify_never_normalizes(self, runner, monkeypatch):
        import ellsurf.cli
        import ellsurf.weierstrass

        def refuse(*args, **kwargs):
            raise AssertionError("the twist's verdict must not factor contents")

        monkeypatch.setattr(ellsurf.weierstrass, "normalize", refuse)
        monkeypatch.setattr(ellsurf.cli, "normalize", refuse, raising=False)
        result = runner.invoke(main, ["transform", EXTREMAL, "--twist", "--verify"])
        assert result.exit_code == 0, result.output

    def test_twist_verify_duality_not_applicable(self, runner):
        path = str(GOLDEN / "istar-refusal.triple.json")
        result = runner.invoke(main, ["transform", path, "--twist", "--verify"])
        assert result.exit_code == 0, result.output
        assert "  discriminant_unchanged: ok\n" in result.output
        assert "  twist_duality: not applicable: non-nodal" in result.output

    def test_i0star_with_verify(self, runner, w1_file):
        result = runner.invoke(
            main, ["transform", w1_file, "--i0star", "4", "5", "--verify"]
        )
        assert result.exit_code == 0
        assert "VIOLATED" not in result.output
        doc = json.loads(result.output[result.output.index("{"):])
        assert doc["k"] == 2

    @pytest.mark.parametrize(
        "name", ["bundle-positive-delta", "bundle-k2-one-torus", "double-real-root-refusal"]
    )
    def test_i0star_verify_with_p_identically_zero(self, runner, name):
        # r^2 * 0 = 0: the new I0* fibers have no valuation of p
        path = str(GOLDEN / f"{name}.triple.json")
        result = runner.invoke(main, ["transform", path, "--i0star", "4", "5", "--verify"])
        assert result.exit_code == 0, result.output
        checks = result.output[: result.output.index("{")].splitlines()
        assert [c.split(": ", 1)[1] for c in checks] == ["ok"] * 7, result.output

    def test_i0star_equal_centers(self, runner, w1_file):
        result = runner.invoke(main, ["transform", w1_file, "--i0star", "1", "1"])
        assert result.exit_code == 2

    def test_result_with_coefficients_longer_than_parsing_reads_is_refused(self, tmp_path):
        # the document's 4,290-digit denominator of p validates, but its I0*
        # transform has longer ones, which no document can be read back with
        path = str(HOSTILE / "long-denominator-4290.triple.json")
        out_file = tmp_path / "out.json"
        out = _run_ellsurf("transform", path, *LONG_I0STAR, "--out", str(out_file))
        assert out.returncode == 2, out.stderr
        assert out.stderr == REFUSED_LONG
        assert not out_file.exists() and out.stdout == ""

    def test_verify_refuses_a_long_result_before_checking_it(self, tmp_path):
        # the checks of this I0* step take about 10 s; the refusal needs none of them
        path = str(HOSTILE / "long-denominator-4290.triple.json")
        out_file = tmp_path / "out.json"
        with time_limit(5):
            out = _run_ellsurf("transform", path, *LONG_I0STAR, "--verify", "--out", str(out_file))
        assert out.returncode == 2, out.stderr
        assert out.stderr == REFUSED_LONG and "Traceback" not in out.stderr
        assert out.stdout == "" and not out_file.exists()

    def test_result_with_long_coefficients_reads_back(self, runner, tmp_path):
        # the 1,450-digit denominator stays under the limit through the I0* step
        out_file = str(tmp_path / "out.json")
        path = str(HOSTILE / "long-denominator.triple.json")
        args = ["transform", path, *LONG_I0STAR, "--out", out_file]
        assert runner.invoke(main, args).exit_code == 0
        assert runner.invoke(main, ["validate", out_file]).output == "valid: k=2, deg p = 8, deg q = 12\n"

    def test_requires_exactly_one_mode(self, runner, w1_file):
        result = runner.invoke(main, ["transform", w1_file])
        assert result.exit_code == 2


class TestFuzzCommand:
    def test_small_run_green(self, runner):
        result = runner.invoke(
            main, ["fuzz", "--k", "1", "--trials", "12", "--seed", "7"]
        )
        assert result.exit_code == 0, result.output
        assert "violations=0" in result.output

    def test_deterministic_output(self, runner):
        args = ["fuzz", "--k", "1", "--trials", "10", "--seed", "3"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_zero_trials(self, runner):
        result = runner.invoke(main, ["fuzz", "--trials", "0"])
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "args", [["--k", "0"], ["--trials", "-1"], ["--height", "0"], ["--height", "-1"]]
    )
    def test_parameters_out_of_range(self, runner, args):
        result = runner.invoke(main, ["fuzz", "--trials", "3", *args])
        assert result.exit_code == 2, result.output
        assert ">= 1" in result.output

    def test_negative_oracle_every_rejected(self, runner):
        # 0 means never; a negative value used to act like 1
        result = runner.invoke(main, ["fuzz", "--trials", "3", "--oracle-every", "-1"])
        assert result.exit_code == 2, result.output
        assert "oracle-every >= 0" in result.output
        result = runner.invoke(main, ["fuzz", "--trials", "3", "--oracle-every", "0"])
        assert result.exit_code == 0, result.output
        assert "oracle_checked=0" in result.output

    def test_oracle_disagreement_is_a_violation(self, runner, monkeypatch):
        _flip_cuts(monkeypatch, lambda i: i % 2 == 0)
        result = runner.invoke(
            main, ["fuzz", "--k", "1", "--trials", "3", "--oracle-every", "1"]
        )
        assert result.exit_code == 1, result.output
        assert "\nVIOLATION[oracle]: pipeline (h0, h1, chi) = " in result.output
        assert '"violating_triple": {' in result.output

    def test_oracle_refusal_is_a_violation(self, runner, monkeypatch):
        # every irrational cut handed on off Delta: the oracle refuses each surface that has one
        _cuts_off_delta(monkeypatch)
        result = runner.invoke(
            main, ["fuzz", "--k", "1", "--trials", "10", "--oracle-every", "1"]
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        lines = [line for line in result.output.splitlines() if line.startswith("VIOLATION")]
        refusal = "VIOLATION[oracle]: the nodal cut root of "
        assert lines and all(line.startswith(refusal) for line in lines), lines
        assert all(line.endswith(" is not a zero of the discriminant") for line in lines), lines
        assert result.output.count('"violating_triple": {') == len(lines)

    def test_euler_sum_mismatch_is_a_violation(self, runner, monkeypatch):
        # read every I1 fiber as I2: the sum exceeds 12k and classify_fibers raises
        import ellsurf.weierstrass
        from ellsurf.fuzz import random_valid_triple

        kodaira = ellsurf.weierstrass.kodaira_from_valuations

        def misread(v_p, v_q, v_delta):
            kod = kodaira(v_p, v_q, v_delta)
            return ellsurf.weierstrass.KodairaType("I", 2) if kod.symbol == "I1" else kod

        monkeypatch.setattr(ellsurf.weierstrass, "kodaira_from_valuations", misread)
        result = runner.invoke(main, ["fuzz", "--k", "1", "--trials", "1", "--seed", "4"])
        assert result.exit_code == 1, result.output
        assert "\nVIOLATION[euler-sum]: Euler numbers sum to " in result.output
        assert ", expected 12: fiber classification is inconsistent\n" in result.output
        t = random_valid_triple(random.Random(4), 1)
        assert result.output.endswith(dump_json({"violating_triple": triple_to_document(t)}))

    @staticmethod
    def _fuzz_first_triple(runner, seed, *args):
        """`ellsurf fuzz` on the first triple that seed draws at k = 1, and that triple."""
        from ellsurf.fuzz import random_valid_triple

        result = runner.invoke(main, ["fuzz", "--k", "1", "--trials", "1", "--seed", str(seed), *args])
        return result, random_valid_triple(random.Random(seed), 1)

    @staticmethod
    def _assert_one_violation(result, t, kind, detail):
        """Exit 1, one VIOLATION line, of the kind, starting with detail, then t's document."""
        assert result.exit_code == 1, result.output
        lines = [line for line in result.output.splitlines() if line.startswith("VIOLATION")]
        assert len(lines) == 1 and lines[0].startswith(f"VIOLATION[{kind}]: {detail}"), lines
        assert result.output.endswith(dump_json({"violating_triple": triple_to_document(t)}))

    def test_alternation_failure_is_a_betti_consistency_violation(self, runner, monkeypatch):
        # every smooth fiber read as two circles: the count cannot alternate
        # across the cuts of seed 0's first triple
        import ellsurf.topology

        monkeypatch.setattr(ellsurf.topology, "smooth_fiber_components", lambda t, c: 2)
        result, t = self._fuzz_first_triple(runner, 0)
        assert any(r.is_real for r in t.fibers)
        detail = "circle count fails to alternate across a simple discriminant zero"
        self._assert_one_violation(result, t, "betti-consistency", detail)

    def test_six_circles_at_k1_is_a_bounds_violation(self, runner, monkeypatch):
        # seed 9 draws a circle bundle, whose h0 is the circle count of one
        # smooth fiber: six of them break h0 <= 5k and h1 <= 10k
        import ellsurf.topology

        monkeypatch.setattr(ellsurf.topology, "smooth_fiber_components", lambda t, c: 6)
        result, t = self._fuzz_first_triple(runner, 9, "--oracle-every", "0")
        assert not any(r.is_real for r in t.fibers)
        self._assert_one_violation(result, t, "bounds", "h0=6 h1=12 k=1: h0_le_5k, h1_le_10k")
        assert "VIOLATION[bounds]: h0=6 h1=12 k=1: h0_le_5k, h1_le_10k\n" in result.output

    def test_non_generic_twist_is_a_twist_betti_violation(self, runner, monkeypatch):
        # a twist that loses q: Delta = 4p^3 has a type III zero at each real root of p
        import ellsurf.fuzz
        from ellsurf.weierstrass import WeierstrassTriple

        monkeypatch.setattr(ellsurf.fuzz, "twist", lambda t: WeierstrassTriple(t.k, t.p, 0 * t.q))
        result, t = self._fuzz_first_triple(runner, 0)
        self._assert_one_violation(result, t, "twist-betti", "non-nodal real singular fibers: III at ")

    def test_identity_twist_is_a_twist_duality_violation(self, runner, monkeypatch):
        # seed 1's first triple has (h0, h1) = (1, 6), which is not self-dual
        import ellsurf.fuzz

        monkeypatch.setattr(ellsurf.fuzz, "twist", lambda t: t)
        result, t = self._fuzz_first_triple(runner, 1)
        assert (t.topology.h0, t.topology.h1) == (1, 6)
        detail = "(h0,h1,chi)=(1, 6, -4) vs twist (1, 6, -4)"
        self._assert_one_violation(result, t, "twist-duality", detail)

    def test_i0star_step_with_r_squared_on_q_is_a_violation(self, runner, monkeypatch):
        # r^2 in place of r^3 on q, the degree made up by u^2 + v^2: the new
        # fibers are type IV, not I0*
        import ellsurf.fuzz

        def r_squared_on_q(t, params):
            r = BinForm.from_linear_roots([params.a, params.b])
            return validate(t.k + 1, r ** 2 * t.p, r ** 2 * (U * U + V * V) * t.q)

        monkeypatch.setattr(ellsurf.fuzz, "i0star_transform", r_squared_on_q)
        result, t = self._fuzz_first_triple(runner, 0, "--oracle-every", "0")
        detail = "discriminant_relation: Delta_Y == r^6 * Delta_X; new_fiber_is_I0star: at u = "
        self._assert_one_violation(result, t, "i0star", detail)


class TestSearchCommand:
    def test_too_many_components_rejected(self, runner):
        result = runner.invoke(main, ["search", "--k", "1", "--components", "6"])
        assert result.exit_code == 2
        assert "bound" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["--components", "0"],
            ["--budget", "0"],
            ["--budget", "-1"],
            # checked before the bound 5k, which would read 0 and -5
            ["--k", "0"],
            ["--k", "-1", "--components", "2"],
        ],
    )
    def test_parameters_out_of_range(self, runner, args):
        result = runner.invoke(main, ["search", "--components", "1", *args])
        assert result.exit_code == 2, result.output
        assert result.output == "k, components and budget must be positive\n"

    @pytest.mark.parametrize(
        "target, refusal",
        [
            ("ellsurf.transforms.validate", lambda: WeierstrassError("refused")),
            ("ellsurf.topology.real_cuts", lambda: NotRealGeneric([])),
        ],
        ids=["validate", "real_cuts"],
    )
    def test_no_candidate_passing_is_not_found(self, runner, monkeypatch, target, refusal):
        # every candidate refused as it is built, or as not real-generic; the
        # budget is the whole ladder of all four offsets, 191 rungs each
        refused = []

        def refuse(*args):
            refused.append(args)
            raise refusal()

        monkeypatch.setattr(target, refuse)
        result = runner.invoke(main, ["search", "--k", "1", "--components", "2", "--budget", "764"])
        assert result.exit_code == 1, result.output
        assert result.output == "not found: no candidate passed verification (tried 764)\n"
        assert refused

    def test_one_component_at_k2(self, runner):
        result = runner.invoke(main, ["search", "--k", "2", "--components", "1"])
        assert result.exit_code == 0, result.output
        assert "h0=1" in result.output

    def test_two_components(self, runner, tmp_path):
        out = str(tmp_path / "found.json")
        result = runner.invoke(
            main, ["search", "--k", "1", "--components", "2", "--out", out]
        )
        assert result.exit_code == 0, result.output
        from ellsurf import betti
        from ellsurf.documents import load_triple

        assert betti(load_triple(out)).h0 == 2

    def test_rungs_below_the_bound_are_not_built(self, runner, monkeypatch):
        # (3, 8) has no sign window: its rungs j = 0..5 lie below j_min = 6,
        # count as tried, and are neither built nor verified
        import ellsurf.transforms

        built = []
        validate = ellsurf.transforms.validate

        def counting(*args):
            built.append(args)
            return validate(*args)

        monkeypatch.setattr(ellsurf.transforms, "validate", counting)
        result = runner.invoke(main, ["search", "--k", "3", "--components", "8"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("found after 7 candidate(s): h0=8 h1=2 chi=14\n")
        assert len(built) == 1

    def test_unreachable_target_exits_1(self, runner):
        result = runner.invoke(main, ["search", "--k", "2", "--components", "10"])
        assert result.exit_code == 1, result.output
        assert result.output == (
            "not found: target needs more sign windows than this family provides "
            "(pairs=6, dips=3, k=2) (tried 0)\n"
        )

    def test_budget_exhausted_exits_1(self, runner, monkeypatch):
        # all five rungs lie below j_min = 11 of (3, 9): none is built
        import ellsurf.transforms

        def refuse(*args):
            raise AssertionError("a rung below j_min was built")

        monkeypatch.setattr(ellsurf.transforms, "validate", refuse)
        result = runner.invoke(
            main, ["search", "--k", "3", "--components", "9", "--budget", "5"]
        )
        assert result.exit_code == 1, result.output
        assert result.output == "not found: candidate budget exhausted (tried 5)\n"

    def test_prints_the_verified_topology(self, runner, monkeypatch):
        import ellsurf.topology

        seen = []
        betti = ellsurf.topology.betti

        def recording(t):
            seen.append(t)
            return betti(t)

        monkeypatch.setattr(ellsurf.topology, "betti", recording)
        result = runner.invoke(main, ["search", "--k", "1", "--components", "5"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("found after 1 candidate(s): h0=5 h1=2 chi=8\n")
        # once, on the one candidate: neither compare nor the command
        # computes the topology again
        assert len(seen) == len(set(seen)) == 1

    def test_failed_invariant_is_a_violation(self, runner, monkeypatch):
        import ellsurf.topology

        def broken(*args, **kwargs):
            raise AssertionError("Euler characteristic mismatch")

        monkeypatch.setattr(ellsurf.topology, "betti", broken)
        result = runner.invoke(main, ["search", "--k", "1", "--components", "3"])
        assert result.exit_code == 1, result.output
        assert result.output == "VIOLATION: Euler characteristic mismatch\n"


class TestOracleCheckCommand:
    def test_w1_agrees(self, runner, w1_file):
        result = runner.invoke(main, ["oracle-check", w1_file])
        assert result.exit_code == 0
        assert "agree" in result.output

    def test_disagreement_exits_1(self, runner, monkeypatch):
        _flip_cuts(monkeypatch, lambda i: i == 0)
        result = runner.invoke(main, ["oracle-check", str(GOLDEN / "w1.triple.json")])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            "DISAGREEMENT: pipeline (h0, h1, chi) = (1, 2, 0) "
            "but oracle computed (2, 2, 2)\nslices: "
        )

    def test_refusal_exits_1(self, runner, monkeypatch):
        _cuts_off_delta(monkeypatch)
        result = runner.invoke(main, ["oracle-check", str(GOLDEN / "random-k2.triple.json")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert result.output.startswith("DISAGREEMENT: the nodal cut root of ")
        assert result.output.endswith(" is not a zero of the discriminant\n")

    def test_non_nodal_fiber_is_not_applicable(self, runner):
        path = str(GOLDEN / "istar-refusal.triple.json")
        result = runner.invoke(main, ["oracle-check", path])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("not applicable: non-nodal real singular fibers: ")
