import dataclasses
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

from cochainlab import cli
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
from cochainlab.liealg import CEElement, abelian, heisenberg3, standard_rep
from cochainlab.nilgroup import registered_groups
from cochainlab.perturb import matrix_instance, verify_instance
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


#: Variable names the parser accepts and rejects (the families are listed in
#: the ``polyalg`` docstring), with what ``ve`` on abelian-2 makes of each
#: as its whole input: exit code, and standard output or the error.
NAME_TABLE = [
    ("g1_1", True, 0, "e1"),
    *((name, True, 2, f"error: group cochains only use g<i>_<j> variables, got {name!r}")
      for name in ("m0_2", "y_3", "t0", "t1", "x", "x_2")),
    *((name, False, 2, f"error: unknown variable {name!r} (line 1, column 1)")
      for name in ("y1", "g1", "t", "t1_2", "z")),
]


@pytest.mark.parametrize("name, accepted, code, message", NAME_TABLE)
def test_variable_names_accepted_and_rejected(tmp_path, capsys, name, accepted, code, message):
    if accepted:
        assert parse_expr(name) == MultiPoly.var(name)
        assert isinstance(parse_expr("d" + name), PolyForm)
    else:
        for text in (name, "d" + name):
            with pytest.raises(UnknownVariable):
                parse_expr(text)
    path = tmp_path / "input.txt"
    path.write_text(name)
    assert main(["ve", str(path), "--instance", "abelian-2"]) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).strip() == message


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
    for field, value, least in (("trials", 0, 1), ("max_p", -1, 0), ("max_deg", -1, 0)):
        with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
            RunConfig("matrix", **{field: value})
        option = "--" + field.replace("_", "-")
        assert main(["verify", "--instance", "matrix", option, str(value)]) == 2


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
    # integration reads Lie-algebra cochains: a constant is one, a form or a
    # non-constant polynomial is not
    capsys.readouterr()
    for text in ("dy_1", "g1_1"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["integrate", "-", "--instance", "heisenberg3"]) == 2
        assert "integration input must be a Lie-algebra cochain" in capsys.readouterr().err


def test_degree_overflow_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1_1^30*g2_2"))
    assert main(["ve", "-", "--instance", "heisenberg3"]) == 2
    assert main(["verify", "--instance", "pair-r1", "--max-p", "1", "--max-deg", "40"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: term of total degree") == 2


def test_an_overflowing_power_reports_its_degree(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1_1^100000000000"))
    assert main(["ve", "-", "--instance", "abelian-3"]) == 2
    assert "error: term of total degree 100000000000 exceeds cap 24" in capsys.readouterr().err


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
    ("abelian-1", "trivial"): "96950643ebbf2185f6fd5045de8edd0213cccf44cc198055f8b074c9fe5ab982",
    ("abelian-2", "trivial"): "36e6402f0e48f1c6d48e461224e18db81efc150b6e10f912e3626f7b79a5a127",
    ("abelian-3", "trivial"): "73d1e5d222feab52b4ecb2bfd3f5b7da9b4b4b44643f23898e56c4660224962b",
    ("heisenberg3", "trivial"): "5e3b63028d70eb7aa9fdd4e1ee1e78aad76d4f04de2e6d9ab811f0e9c35e36b2",
    ("filiform4", "trivial"): "f96607bf409676f8ac02ca66ab0c754c7073efb2f63c7d847e56d76ddf0a0fc1",
    ("pair-r1", "trivial"): "ab801bc032cf5ab6c88c8299aa452bf915178f2093881b83313f3c25e08ad349",
    ("pair-r2", "trivial"): "c15eed7679d24584f989d21cd9c84359c621a2438ba7509ac1a8390f4438a50e",
    ("pair-r3", "trivial"): "e002c26a95930a57b6a8bb2dce83786150a0f717de428e1e6997d04b8c2c4500",
    ("cech-circle3", "trivial"): "163a79aceed2937478e67df48f5b804ccf49428ea6ff6de3d241a4081f21b8ed",
    ("heisenberg3", "standard"): "44228b740c5353e2a551e40057e0b6f305fab550ff9f9c1ab49ca666f7337896",
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


def test_a_failing_check_exits_one(monkeypatch, tmp_path):
    # matrix with k negated: delta k + k delta is no longer 1 - j q
    def broken(seed, max_p):
        inst = matrix_instance(seed, max_p=max_p)
        return dataclasses.replace(inst, k=lambda x: -inst.k(x))

    monkeypatch.setattr(cli, "matrix_instance", broken)
    report_path = tmp_path / "report.json"
    code = main(["verify", "--instance", "matrix", "--trials", "2", "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert code == report["exit_code"] == 1
    assert failed and report["summary"]["unexpected_failures"] == len(failed)
    assert report["summary"]["expected_fail_checks_without_witness"] == []


def test_an_expected_failure_without_a_witness_exits_one(monkeypatch):
    # side_pk fails as expected on the three-arc cover, but its records lose
    # their counterexamples: each is an unexpected failure, and side_pk has
    # no witness
    def no_pk_witness(inst, **options):
        records = verify_instance(inst, **options)
        for rec in records:
            if rec["check"] == "side_pk":
                rec.pop("counterexample", None)
        return records

    monkeypatch.setattr(cli, "verify_instance", no_pk_witness)
    code, report = run_verify(RunConfig("cech-circle3", trials=2))
    pk_failures = [c for c in report["checks"] if c["check"] == "side_pk" and c["status"] == "fail"]
    assert code == 1 and pk_failures
    assert report["summary"]["unexpected_failures"] == len(pk_failures)
    assert report["summary"]["expected_fail_checks_without_witness"] == ["side_pk"]
    assert any(c["status"] == "expected-fail" for c in report["checks"])  # side_hk's


#: Inputs the maps refuse, with the message each one's error names.
MAP_INPUT_ERRORS = [
    ("ve", "g1_1 $ 2", "unexpected character '$' (line 1, column 6)"),
    ("ve", "g1_1 g2_1", "unexpected 'g2_1' (line 1, column 6)"),
    ("ve", "(g1_1", "expected ')' (line 1, column 6)"),
    ("ve", "e1", "dual-basis atoms need a Lie algebra context"),
    ("ve", "dg1_1", "differentiation input must be a polynomial cochain"),
    ("integrate", "e1^2", "only scalars can be raised to a power (line 1, column 3)"),
    ("integrate", "e1 + dg1_1", "cannot mix e-atoms and d-atoms"),
    ("integrate", r"e1 + e1/\e2", "expression is not homogeneous"),
    ("integrate", "g1_1*e1", "CE coefficients must be rational constants"),
    ("integrate", "e4", "covector index out of range"),
    ("integrate", "e0", "covector index out of range"),
    # each atom is checked where it is read, even when it cancels
    ("ve", "e1 - e1", "dual-basis atoms need a Lie algebra context (line 1, column 1)"),
    ("ve", "g1_1 + e1 - e1", "dual-basis atoms need a Lie algebra context (line 1, column 8)"),
    ("integrate", "e9 - e9", "covector index out of range (line 1, column 1)"),
    ("integrate", "e1 + dg1_1 - dg1_1", "cannot mix e-atoms and d-atoms (line 1, column 6)"),
    ("integrate", "g1_1 + e4", "covector index out of range (line 1, column 8)"),
]


@pytest.mark.parametrize("command, text, message", MAP_INPUT_ERRORS)
def test_map_input_errors_exit_two(monkeypatch, capsys, command, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([command, "-", "--instance", "heisenberg3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, text, output", [
    ("integrate", "3/2", "3/2"),
    ("integrate", "0", "0"),
    ("ve", "3/2", "3/2"),
    ("ve", "-2", "-2"),
    ("ve", "0", "0"),
])
def test_maps_of_degree_zero(monkeypatch, capsys, command, text, output):
    # a constant is a 0-cochain on either side, and each map keeps it
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([command, "-", "--instance", "heisenberg3"]) == 0
    assert capsys.readouterr().out == output + "\n"


def test_maps_refuse_what_the_command_line_cannot_ask():
    with pytest.raises(ValueError, match="trivial coefficients only"):
        apply_map(RunConfig("heisenberg3", coeff_rep="standard"), "ve", "g1_1")
    with pytest.raises(ValueError, match="unknown map 'verify'"):
        apply_map(RunConfig("heisenberg3"), "verify", "g1_1")
    alg = heisenberg3()
    vector = CEElement(alg, standard_rep(alg), 1, {(0,): (1, 0, 0)})
    with pytest.raises(ValueError, match="only scalar-coefficient"):
        ce_to_string(vector)
