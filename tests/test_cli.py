import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochainlab.cli import (
    MAX_TRIALS,
    ParseError,
    RunConfig,
    UnknownVariable,
    apply_map,
    ce_to_string,
    instance_names,
    main,
    parse_expr,
    run_verify,
)
from cochainlab.forms import PolyForm
from cochainlab.liealg import CEElement, abelian, heisenberg3
from cochainlab.nilgroup import registered_groups
from cochainlab.polyalg import MultiPoly, to_string

from conftest import COEFFS


def test_parse_polynomial():
    p = parse_expr("g1_1*g2_2 - g1_2*g2_1")
    expected = (
        MultiPoly.var("g1_1") * MultiPoly.var("g2_2")
        - MultiPoly.var("g1_2") * MultiPoly.var("g2_1")
    )
    assert p == expected


def test_parse_rational():
    assert parse_expr("1/2") == MultiPoly.const(Fraction(1, 2))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("g1_1 ^")
    assert err.value.col == 7
    with pytest.raises(ParseError) as err:
        parse_expr("g1_1 +\n* 2")
    assert err.value.line == 2


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_expr("foo + 1")


def test_parse_powers_and_parens():
    p = parse_expr("(g1_1 + 1)^2 - g1_1^2 - 2*g1_1 - 1")
    assert p.is_zero()


def test_parse_ce_element():
    alg = heisenberg3()
    a = parse_expr(r"e1/\e2 - 1/2*e2/\e3", algebra=alg)
    assert isinstance(a, CEElement)
    assert a.component((0, 1)) == (Fraction(1),)
    assert a.component((1, 2)) == (Fraction(-1, 2),)
    # antisymmetry of the wedge
    b = parse_expr(r"e2/\e1", algebra=alg)
    assert b.component((0, 1)) == (Fraction(-1),)
    assert parse_expr(r"e1/\e1", algebra=alg).is_zero()


def test_parse_form():
    f = parse_expr(r"y_1*dy_2/\dy_1")
    assert isinstance(f, PolyForm)
    assert f.coefficient((0, 1)) == -MultiPoly.var("y_1")


def test_ce_serializer_roundtrip():
    alg = heisenberg3()
    rng = random.Random(51)
    from itertools import combinations

    for degree in range(1, 4):
        comps = {
            idx: [rng.choice(COEFFS)] for idx in combinations(range(3), degree)
        }
        a = CEElement(alg, None, degree, comps)
        if a.is_zero():
            continue
        assert parse_expr(ce_to_string(a), algebra=alg) == a


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["g1_1", "g1_2", "g2_1", "y_1", "t1"]), max_size=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_poly_serializer_roundtrip(names, coeff):
    p = MultiPoly.const(coeff)
    for v in names:
        p = p * MultiPoly.var(v)
    p = p + MultiPoly.var("g1_1")
    assert parse_expr(to_string(p)) == p


def test_apply_ve_example():
    cfg = RunConfig("abelian-2")
    assert apply_map(cfg, "ve", "1/2*(g1_1*g2_2 - g1_2*g2_1)") == r"e1/\e2"


def test_apply_integrate_example():
    cfg = RunConfig("abelian-2")
    out = apply_map(cfg, "integrate", r"e1/\e2")
    assert parse_expr(out) == (
        MultiPoly.var("g1_1") * MultiPoly.var("g2_2")
        - MultiPoly.var("g1_2") * MultiPoly.var("g2_1")
    ) * Fraction(1, 2)


def test_ve_integrate_roundtrip():
    cfg = RunConfig("heisenberg3")
    for text in (r"e1/\e2", r"e3", r"e1/\e3 - 2*e2/\e3", r"e1/\e2/\e3"):
        out = apply_map(cfg, "integrate", text)
        assert apply_map(cfg, "ve", out) == ce_to_string(
            parse_expr(text, algebra=heisenberg3())
        )


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("not-an-instance")
    with pytest.raises(ValueError):
        RunConfig("matrix", trials=0)


def test_instance_registry():
    names = instance_names()
    assert "matrix" in names and "cech-circle3" in names
    assert "heisenberg3" in names and "pair-r2" in names


def test_verify_exit_codes_and_report(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "--instance", "matrix", "--trials", "3",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["unexpected_failures"] == 0
    assert report["checks"]


def test_verify_cech_expected_failures(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "--instance", "cech-circle3", "--trials", "3",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    expected = [c for c in report["checks"] if c["status"] == "expected-fail"]
    assert expected
    assert all("counterexample" in c for c in expected)
    assert {c["check"] for c in expected} == {"side_hk", "side_pk"}


def test_reports_deterministic():
    cfg = RunConfig("matrix", trials=3, seed=11)
    assert run_verify(cfg) == run_verify(cfg)


def test_usage_errors(monkeypatch, capsys):
    assert main(["verify", "--instance", "nope"]) == 2
    assert main(["ve", "/nonexistent/input", "--instance", "abelian-2"]) == 2
    assert main(["verify", "--instance", "heisenberg3", "--coeff-rep", "bogus"]) == 2
    # the maps read the instance alone, so a bound for them is refused
    assert main(["ve", "-", "--instance", "heisenberg3", "--max-p", "2"]) == 2
    assert main(["integrate", "-", "--instance", "heisenberg3", "--seed", "1"]) == 2
    # an option the instance ignores is refused, naming the option and the
    # instance, so that no report names a configuration that never ran
    ignored = [
        ("matrix", "coeff_rep", ["--coeff-rep", "standard"]),
        ("cech-circle3", "coeff_rep", ["--coeff-rep", "standard"]),
        ("pair-r1", "coeff_rep", ["--max-p", "1", "--coeff-rep", "standard"]),
        ("matrix", "max_deg", ["--max-deg", "7"]),
        ("cech-circle3", "max_deg", ["--max-deg", "0"]),
    ]
    capsys.readouterr()
    for instance, option, flags in ignored:
        assert main(["verify", "--instance", instance, *flags]) == 2
        err = capsys.readouterr().err
        assert f"the {instance} instance ignores {option}" in err
    with pytest.raises(ValueError, match="the pair-r2 instance ignores coeff_rep"):
        RunConfig("pair-r2", max_p=1, coeff_rep="standard")
    RunConfig("pair-r2", max_p=1, max_deg=3)  # pair-r<n> honours max_deg
    RunConfig("filiform4", max_deg=3, coeff_rep="standard")
    assert main(["verify", "--instance", "matrix", "--trials", str(MAX_TRIALS + 1)]) == 2
    with pytest.raises(ValueError):
        RunConfig("matrix", trials=MAX_TRIALS + 1)
    RunConfig("matrix", trials=MAX_TRIALS)
    # a zero denominator, a deep nesting and a constant power past the
    # printable coefficient size are parse errors that point at the
    # offending number, parenthesis or exponent
    nested = "(" * 5000 + "g1_1" + ")" * 5000
    for text, culprit in (("1/0*g1_1", "1"), (nested, "("), ("2^32000000*g1_1", "3")):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.line == 1 and text[err.value.col - 1] == culprit
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["ve", "-", "--instance", "abelian-1"]) == 2


def test_degree_overflow_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1_1^30*g2_2"))
    assert main(["ve", "-", "--instance", "heisenberg3"]) == 2
    assert main(["verify", "--instance", "pair-r1", "--max-p", "1", "--max-deg", "40"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: term of total degree") == 2


def test_max_p_above_instance_limit_rejected():
    with pytest.raises(ValueError):
        RunConfig("matrix", max_p=9)
    assert main(["verify", "--instance", "matrix", "--max-p", "9"]) == 2
    # pair-r<n> checks degrees up to n, not a silently clamped range
    RunConfig("pair-r2", max_p=2)
    with pytest.raises(ValueError):
        RunConfig("pair-r2", max_p=3)
    assert main(["verify", "--instance", "pair-r1", "--max-p", "3"]) == 2


def test_cech_max_p_zero_checks_p_zero_only():
    code, report = run_verify(RunConfig("cech-circle3", max_p=0, trials=2))
    assert code == 0 and report["config"]["max_p"] == 0
    assert {c["bidegree"][0] for c in report["checks"]} == {0}
    # h vanishes on p = 0, so only p-hat k = 0 can fail there
    assert {c["check"] for c in report["checks"] if c["status"] == "expected-fail"} == {"side_pk"}
    # the three-arc cover's nerve stops at p = 1, whatever larger bound is asked
    code, report = run_verify(RunConfig("cech-circle3", max_p=3, trials=1))
    assert code == 0 and {c["bidegree"][0] for c in report["checks"]} == {0, 1}


def test_map_via_files(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("g1_1*g2_2 - g1_2*g2_1")
    code = main([
        "ve", str(src), "--instance", "abelian-2", "--report", str(dst),
    ])
    assert code == 0
    assert dst.read_text().strip() == r"2*e1/\e2"


def test_list_instances(capsys):
    assert main(["list-instances"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg3" in out and "cech-circle3" in out


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"

    def run(module):
        return subprocess.run(
            [sys.executable, "-m", module, "list-instances"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )

    proc = run("cochainlab")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.split() == instance_names()
    # the module form of cli.py is not an entry point, and says which one is
    proc = run("cochainlab.cli")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "python -m cochainlab ..." in proc.stderr


#: sha256 of each sorted-key JSON report at max_p=1, trials=1, seed=3.
REPORT_DIGESTS = {
    ("matrix", "trivial"): "bb3497cd4ad62d6548c090307b8dbdd51c19ac1fcf3dac91fb1d360bca649372",
    ("abelian-1", "trivial"): "4e45fe965be712116342cf2cd6469bd9aa40fe9122a6eacda8b96be63fd6f865",
    ("abelian-2", "trivial"): "015acebaee905c679fd19f3f7600a684ac67332308d0e761adcb42b2d31ff318",
    ("abelian-3", "trivial"): "788ff806956931dd04e4b82324af1f1a77b1b88fcd377357bcc4a02aa602a8f9",
    ("heisenberg3", "trivial"): "5bd6ca80704e29f74cc8c7514e1212627ec0fd63a0c1da7dbb27c22bb94d6557",
    ("filiform4", "trivial"): "9fcb0820abe152f55d438156fa8bb2b0e62d70eed35f1b4bdb911d89e28086c7",
    ("pair-r1", "trivial"): "652169b70e05db90fa4474874d18c2b5bf83b8ce8d34d945d45af82d83a32503",
    ("pair-r2", "trivial"): "3883eae3d50e30512bbbe405971dd070afb7576a4b826c5935524fa2504f06b5",
    ("pair-r3", "trivial"): "b47363d25cad5c1c18cd89e6fd6ea74e99323847f5b7c2a220850df97ec4bbcf",
    ("cech-circle3", "trivial"): "163a79aceed2937478e67df48f5b804ccf49428ea6ff6de3d241a4081f21b8ed",
    ("heisenberg3", "standard"): "a5dba6a1ef618b4f1b90c48cf21e35e94a038432965e3305a56b53c8374a779e",
}


def test_report_digests_pinned():
    cases = [(name, "trivial") for name in instance_names()] + [("heisenberg3", "standard")]
    assert sorted(cases) == sorted(REPORT_DIGESTS)
    for name, rep in cases:
        report = run_verify(RunConfig(name, max_p=1, trials=1, seed=3, coeff_rep=rep))[1]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[name, rep], (name, rep)


def _cubic_terms(rng, count):
    """``count`` random cubic terms in g1_*..g4_*, as (text, polynomial)."""
    names = [f"g{i}_{j}" for i in range(1, 5) for j in range(1, 4)]
    terms = []
    for _ in range(count):
        coef = rng.choice([c for c in COEFFS if c])
        factors = rng.sample(names, 3)
        poly = MultiPoly.const(coef)
        for name in factors:
            poly = poly * MultiPoly.var(name)
        text = "*".join([f"{abs(coef.numerator)}/{coef.denominator}", *factors])
        terms.append(("-" if coef < 0 else "+", text, poly))
    return terms


def test_long_sum_parses_to_the_term_by_term_sum():
    terms = _cubic_terms(random.Random(17), 800)
    expected = MultiPoly.zero()
    for _, _, poly in terms:
        expected = expected + poly
    parsed = parse_expr(" ".join(f"{sign} {text}" for sign, text, _ in terms))
    assert parsed == expected
    assert to_string(parsed) == to_string(expected)


def test_cancelling_sum_parses_to_zero():
    terms = _cubic_terms(random.Random(18), 200)
    flip = {"+": "-", "-": "+"}
    chunks = [f"{sign} {text}" for sign, text, _ in terms]
    chunks += [f"{flip[sign]} {text}" for sign, text, _ in reversed(terms)]
    parsed = parse_expr(" ".join(chunks))
    assert parsed.is_zero() and parsed == MultiPoly.zero()
    # a sum that cancels is the scalar zero, so it may be raised to a power
    assert parse_expr("(g1_1 - g1_1)^2 + 3").constant_value() == 3


@pytest.mark.parametrize("name", ["abelian-7", "pair-r4"])
def test_unregistered_instance_rejected(name):
    with pytest.raises(ValueError, match=f"unknown instance '{name}'"):
        RunConfig(name, max_p=1)


@pytest.mark.parametrize("command", ["ve", "integrate"])
@pytest.mark.parametrize("name", ["matrix", "pair-r2", "cech-circle3"])
def test_maps_take_only_group_instances(monkeypatch, capsys, command, name):
    monkeypatch.setattr("sys.stdin", io.StringIO("1"))
    assert main([command, "-", "--instance", name]) == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{name}'" in err
    assert "max_p" not in err and "unknown group" not in err


def test_group_instances_are_the_registered_groups():
    """Exactly the group instances honour coeff_rep, and they are listed in
    the order of the group registry."""

    def honours_coeff_rep(name):
        try:
            RunConfig(name, max_p=1, coeff_rep="standard")
        except ValueError:
            return False
        return True

    assert [name for name in instance_names() if honours_coeff_rep(name)] == registered_groups()
