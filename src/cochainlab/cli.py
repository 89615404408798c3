"""Command-line interface.

Subcommands:
  verify          run the verification suite for a registered instance
  ve              apply the differentiation map to a group-cochain expression
  integrate       apply the integration map to a Lie-algebra cochain expression
  list-instances  print the registered instance names

Expressions follow the grammar
  expr   := term (('+'|'-') term)*
  term   := factor (('*'|'/\\') factor)*
  factor := rational | var | 'e'<i> | 'd'<var> | factor '^' int | '(' expr ')'
with a var of a family listed in the polyalg docstring; parentheses nest at
most MAX_NESTING deep, a rational's denominator is nonzero and a constant
power has at most MAX_COEFF_DIGITS digits.  Exit codes: 0 success, 1 check
failure, 2 usage or parse error (a term degree past polyalg.DEGREE_CAP
included).

Every instance name is looked up in ``INSTANCES``: its suite (the records
of ``perturb.verify_instance`` or ``pairgpd.verify_pair`` and the checks
that must fail), its ``max_p`` limit and the options it honours.  The group
entries come from ``nilgroup.GROUPS``, and ``ve`` and ``integrate`` take
only those.  ``verify`` marks the expected failures and wraps the records
in the versioned report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .cech_derham import cech_instance
from .forms import Chart, PolyForm
from .liealg import CEElement, LieAlgebra
from .nilgroup import GROUPS, GroupCochain, build_group, registered_groups, trivial_poly_rep
from .pairgpd import verify_pair
from .perturb import expected_failures, matrix_instance, verify_instance
from .polyalg import (
    DegreeOverflowError,
    MultiPoly,
    add_into,
    canonical_vars,
    format_rat,
    parse_var,
    sort_sign,
    sum_of_products,
    to_string,
    var_key,
)
from .vanest import build_double_complex, r_closed, standard_poly_rep, ve_closed

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Expression parser


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownVariable(ParseError):
    pass


_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:/(?=\d)\d+)?)
    | (?P<wedge>/\\)
    | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


# A parsed value is a dict mapping tuples of atoms to MultiPoly coefficients.
# Atoms are ("e", i) for dual-basis covectors or ("d", var) for coordinate
# differentials; the empty tuple holds the scalar part.  MultiPoly is named
# as a string, as in nilgroup.Matrix, so that typing's caches hold no class.
Value = Dict[Tuple, "MultiPoly"]


def _scalar(p: MultiPoly) -> Value:
    return {(): p}


def _vmul(a: Value, b: Value) -> Value:
    out: Value = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            key = ka + kb
            if len({atom for atom in key}) != len(key):
                continue  # repeated covector wedges to zero
            add_into(out, key, pa * pb)
    return {k: v for k, v in out.items() if not v.is_zero()}


#: Deepest parenthesis nesting the parser accepts; each level costs four
#: Python frames, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 100


#: Most decimal digits a parsed constant power may have: Python's default
#: limit on int-to-str conversion, so every accepted coefficient prints.
MAX_COEFF_DIGITS = 4300


def _digits(c: Fraction) -> float:
    """Decimal digits that each power of ``c`` adds to its larger part."""
    return math.log10(max(abs(c.numerator), c.denominator))


class _Parser:
    def __init__(self, text: str, algebra: Optional[LieAlgebra] = None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.algebra = algebra
        self.covectors: Optional[str] = None  # the kind of atom read so far

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok=None, cls=ParseError):
        tok = tok if tok is not None else self.peek()
        raise cls(message, tok[2], tok[3])

    def parse(self) -> Value:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected {tok[1]!r}")
        return value

    def expr(self) -> Value:
        """A sum: the terms are collected, then added per atom key at once."""
        parts: Dict[Tuple, List[MultiPoly]] = {}
        negate = False
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.next()
            negate = tok[1] == "-"
        while True:
            for key, poly in self.term().items():
                parts.setdefault(key, []).append(-poly if negate else poly)
            tok = self.peek()
            if not (tok[0] == "op" and tok[1] in "+-"):
                sums = {key: sum_of_products((1, poly, 1) for poly in polys)
                        for key, polys in parts.items()}
                return {key: poly for key, poly in sums.items() if not poly.is_zero()}
            self.next()
            negate = tok[1] == "-"

    def term(self) -> Value:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*" or tok[0] == "wedge":
                self.next()
                value = _vmul(value, self.factor())
            else:
                return value

    def factor(self) -> Value:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "^":
                self.next()
                etok = self.next()
                if etok[0] != "number" or "/" in etok[1]:
                    self.error("exponent must be a nonnegative integer", etok)
                if set(value) - {()}:
                    self.error("only scalars can be raised to a power", tok)
                base = value.get((), MultiPoly.zero())  # a sum drops a zero
                # The length test comes first: int() refuses longer digit strings.
                if len(etok[1]) > MAX_COEFF_DIGITS or base.is_constant() and (
                    _digits(base.constant_value()) * int(etok[1]) > MAX_COEFF_DIGITS
                ):
                    self.error(
                        f"exponent too large: a constant power may have at most "
                        f"{MAX_COEFF_DIGITS} digits", etok,
                    )
                value = _scalar(base ** int(etok[1]))
            else:
                return value

    def atom(self) -> Value:
        tok = self.next()
        kind, text = tok[0], tok[1]
        if kind == "number":
            try:
                return _scalar(MultiPoly.const(Fraction(text)))
            except ZeroDivisionError:
                self.error("division by zero", tok)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nest deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            close = self.next()
            if not (close[0] == "op" and close[1] == ")"):
                self.error("expected ')'", close)
            return value
        if kind == "name":
            m = re.fullmatch(r"e(\d+)", text)
            if m:
                return self.covector("e", int(m.group(1)) - 1, tok)
            if text.startswith("d") and parse_var(text[1:]):
                return self.covector("d", text[1:], tok)
            if parse_var(text):
                return _scalar(MultiPoly.var(text))
            self.error(f"unknown variable {text!r}", tok, UnknownVariable)
        self.error(f"unexpected {text!r}" if text else "unexpected end of input", tok)

    def covector(self, kind: str, key, tok) -> Value:
        """The atom (kind, key), checked where it is read, so that an error
        names its position even when the atom cancels."""
        if kind == "e" and self.algebra is None:
            self.error("dual-basis atoms need a Lie algebra context", tok)
        if kind == "e" and not 0 <= key < self.algebra.dim:
            self.error("covector index out of range", tok, UnknownVariable)
        if self.covectors not in (None, kind):
            self.error("cannot mix e-atoms and d-atoms", tok)
        self.covectors = kind
        return {((kind, key),): MultiPoly.const(1)}


def parse_expr(text: str, algebra: Optional[LieAlgebra] = None):
    """Parse an expression to a MultiPoly, PolyForm, or CEElement.

    CE dual-basis atoms e<i> require ``algebra``; coordinate differentials
    d<var> produce a PolyForm on the chart spanned by the variables that
    appear."""
    value = _Parser(text, algebra).parse()
    kinds = {atom[0] for key in value for atom in key}
    if not value:
        return MultiPoly.zero()
    if not kinds:
        return value[()]
    degrees = {len(key) for key in value}
    if len(degrees) > 1:
        raise ParseError("expression is not homogeneous", 1, 1)
    degree = degrees.pop()
    if kinds == {"e"}:
        comps: Dict[Tuple[int, ...], List[Fraction]] = {}
        for key, poly in value.items():
            if poly.support():
                raise ParseError("CE coefficients must be rational constants", 1, 1)
            idx = tuple(atom[1] for atom in key)
            tgt, sign = sort_sign(idx)
            coef = Fraction(poly.constant_value()) * sign
            comps[tgt] = [comps.get(tgt, [Fraction(0)])[0] + coef]
        return CEElement(algebra, None, degree, comps)
    # d-atoms: build a form on the chart of all appearing variables
    coords = canonical_vars(
        {atom[1] for key in value for atom in key}
        | {v for poly in value.values() for v in poly.support()}
    )
    chart = Chart(coords)
    pos = {name: i for i, name in enumerate(coords)}
    fcomps: Dict[Tuple[int, ...], MultiPoly] = {}
    for key, poly in value.items():
        sidx, sign = sort_sign(key, key=lambda a: var_key(a[1]))
        add_into(fcomps, tuple(pos[a[1]] for a in sidx), poly * sign)
    return PolyForm(chart, degree, fcomps)


# ---------------------------------------------------------------------------
# Serializers (inverse to the parser on canonical forms)


def ce_to_string(alpha: CEElement) -> str:
    """Serialize a CE element with rational coefficients as a sum of wedge
    monomials, e.g. ``e1/\\e2``."""
    if alpha.rep.dim != 1:
        raise ValueError("only scalar-coefficient CE elements serialize to text")
    if alpha.is_zero():
        return "0"
    chunks = []
    for idx in sorted(alpha.comps):
        coef = alpha.comps[idx][0]
        body = "/\\".join(f"e{i + 1}" for i in idx)
        if not body:
            body = format_rat(abs(coef))
        elif abs(coef) != 1:
            body = f"{format_rat(abs(coef))}*{body}"
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Instances


#: Largest ``--trials``: each trial re-samples every check, so a run's time
#: grows linearly in it.
MAX_TRIALS = 1000


@dataclass
class RunConfig:
    instance: str
    max_p: int = 3
    max_deg: int = 2
    trials: int = 25
    seed: int = 0
    coeff_rep: str = "trivial"

    def __post_init__(self):
        for name, least in (("max_p", 0), ("max_deg", 0), ("trials", 1)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")
        if self.instance not in INSTANCES:
            raise ValueError(f"unknown instance {self.instance!r}")
        if self.coeff_rep not in ("trivial", "standard"):
            raise ValueError(f"unknown coefficient representation {self.coeff_rep!r}")
        # An option the instance ignores would be reported as if it had run,
        # so it must keep its default (the class attribute of its field).
        entry = INSTANCES[self.instance]
        for option in ("coeff_rep", "max_deg"):
            default, value = getattr(RunConfig, option), getattr(self, option)
            if option not in entry.reads and value != default:
                raise ValueError(f"the {self.instance} instance ignores {option}: "
                                 f"it must be {default!r}, got {value!r}")
        if entry.max_p is not None and self.max_p > entry.max_p:
            raise ValueError(
                f"the {self.instance} instance supports max_p <= {entry.max_p}, got {self.max_p}"
            )


class Instance(NamedTuple):
    """A registered instance: its ``suite(config)`` (check records, expected
    failures), its ``max_p`` limit (None: any) and the options it ``reads``."""

    suite: Callable[[RunConfig], Tuple[List[dict], Tuple[str, ...]]]
    max_p: Optional[int]
    reads: Tuple[str, ...]


# The suites name the instance builders at call time, so that a builder
# rebound in this module (as perfbench/layers.py traces) is the one called.
def _checks(inst, config: RunConfig):
    return verify_instance(inst, seed=config.seed, trials=config.trials), expected_failures(inst)


def _matrix_suite(config: RunConfig):
    return _checks(matrix_instance(config.seed, max_p=config.max_p), config)


def _group_suite(config: RunConfig):
    group = build_group(config.instance)
    rep = standard_poly_rep(group) if config.coeff_rep == "standard" else trivial_poly_rep(group)
    inst = build_double_complex(group, rep, max_p=config.max_p, sample_deg=config.max_deg)
    return _checks(inst, config)


def _pair_suite(n: int, config: RunConfig):
    return verify_pair(n, config.seed, config.trials, config.max_p, config.max_deg), ()


def _cech_suite(config: RunConfig):
    # the three-arc cover has no triple intersections: p <= 1 at most
    inst = cech_instance()
    return _checks(dataclasses.replace(inst, max_p=min(config.max_p, inst.max_p)), config)


#: Every instance ``verify`` runs, in ``list-instances`` order.
INSTANCES: Dict[str, Instance] = {
    "matrix": Instance(_matrix_suite, 3, ()),
    **{name: Instance(_group_suite, None, ("coeff_rep", "max_deg")) for name in GROUPS},
    **{f"pair-r{n}": Instance(partial(_pair_suite, n), n, ("max_deg",)) for n in (1, 2, 3)},
    "cech-circle3": Instance(_cech_suite, None, ()),
}


def instance_names() -> List[str]:
    return list(INSTANCES)


def run_verify(config: RunConfig) -> Tuple[int, dict]:
    """Run the verification suite for the configured instance; returns
    (exit code, JSON-ready report).  The side checks of an instance whose
    side conditions fail must fail with a witness; they are reported as
    expected failures."""
    checks, expected_fail = INSTANCES[config.instance].suite(config)

    unexpected = 0
    witnessed = {check: 0 for check in expected_fail}
    for rec in checks:
        if rec["check"] in expected_fail:
            if rec["status"] == "fail":
                if "counterexample" in rec:
                    rec["status"] = "expected-fail"
                    witnessed[rec["check"]] += 1
                else:
                    unexpected += 1
        elif rec["status"] == "fail":
            unexpected += 1
    missing_witness = [c for c, k in witnessed.items() if k == 0]
    code = 1 if unexpected or missing_witness else 0

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "verify",
        "config": {
            "instance": config.instance,
            "max_p": config.max_p,
            "max_deg": config.max_deg,
            "trials": config.trials,
            "seed": config.seed,
            "coeff_rep": config.coeff_rep,
        },
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": sum(1 for r in checks if r["status"] == "pass"),
            "expected_failures": sum(
                1 for r in checks if r["status"] == "expected-fail"
            ),
            "unexpected_failures": unexpected,
            "expected_fail_checks_without_witness": missing_witness,
        },
        "exit_code": code,
    }
    return code, report


# ---------------------------------------------------------------------------
# VE / R application


def _cochain_degree(poly: MultiPoly) -> int:
    degree = 0
    for v in poly.support():
        family, slot, _ = parse_var(v)
        if family != "g":
            raise ValueError(f"group cochains only use g<i>_<j> variables, got {v!r}")
        degree = max(degree, slot)
    return degree


def apply_map(config: RunConfig, map_name: str, text: str) -> str:
    """Apply the differentiation (``ve``) or integration (``integrate``)
    map to a parsed expression; returns the serialized exact result."""
    if config.coeff_rep != "trivial":
        raise ValueError("expression maps support trivial coefficients only")
    group = build_group(config.instance)
    if map_name == "ve":
        poly = parse_expr(text)
        if not isinstance(poly, MultiPoly):
            raise ValueError("differentiation input must be a polynomial cochain")
        f = GroupCochain.scalar(group, _cochain_degree(poly), poly)
        return ce_to_string(ve_closed(f))
    if map_name == "integrate":
        alpha = parse_expr(text, algebra=group.algebra)
        if isinstance(alpha, MultiPoly) and alpha.is_constant():
            alpha = CEElement(group.algebra, None, 0, {(): (alpha.constant_value(),)})
        if not isinstance(alpha, CEElement):
            raise ValueError("integration input must be a Lie-algebra cochain")
        result = r_closed(group, alpha)
        return to_string(result.values[0])
    raise ValueError(f"unknown map {map_name!r}")


# ---------------------------------------------------------------------------
# Entry point


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cochainlab",
        description="Exact verification of homotopy and van Est identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, choices=None):
        p.add_argument("--instance", required=True, choices=choices)
        p.add_argument("--report", help="write the JSON report / result here")
        return p

    pv = common(sub.add_parser("verify", help="run an instance verification suite"))
    for f in dataclasses.fields(RunConfig)[1:]:  # every option after the instance
        pv.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    # the maps read only the instance, a group: any other bound would go unused
    for name, what in (("ve", "differentiation"), ("integrate", "integration")):
        pm = common(sub.add_parser(name, help=f"apply the {what} map"), registered_groups())
        pm.add_argument("input", help="expression file, or - for stdin")
    sub.add_parser("list-instances", help="print registered instance names")
    return ap


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.command == "list-instances":
        print("\n".join(instance_names()))
        return 0

    # ve and integrate take no bounds: RunConfig's defaults stand for them
    options = {k: v for k, v in vars(args).items() if k not in ("command", "input", "report")}
    try:
        config = RunConfig(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A degree past DEGREE_CAP comes from the input or the bounds, so it is a
    # usage error, not a check failure.
    if args.command == "verify":
        try:
            code, report = run_verify(config)
        except DegreeOverflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _write(args.report, json.dumps(report, indent=2, default=str))
        return code

    try:
        text = _read_input(args.input)
        result = apply_map(config, args.command, text)
    except (OSError, ValueError, DegreeOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(args.report, result)
    return 0


if __name__ == "__main__":
    # ``python -m cochainlab.cli`` would run a second copy of this module
    # beside the one the package imported; the entry point is __main__.py.
    print("error: run the command line as `python -m cochainlab ...`", file=sys.stderr)
    sys.exit(2)
