"""Benchmark workloads: seeded inputs, the public call each input makes, and
the checks on what the call returns.

Every input goes through the same public entry points a ``cochainlab`` user
reaches: ``cli.run_verify`` with a ``RunConfig``, or ``cli.apply_map`` with
expression text.  The benchmark generates the configs and texts itself, so
the program never sees the benchmark seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

WORKLOADS = ("verify-groups", "verify-oracles", "maps-roundtrip")

#: Groups of the maps workload and their dimensions.
MAP_GROUPS = {"abelian-3": 3, "heisenberg3": 3, "filiform4": 4}
#: Highest CE degree of the basis round trips.
BASIS_MAX_DEGREE = 3
#: Degrees of the two-term random combinations, per group and pass.  With
#: the 31 basis cochains this makes 52 round trips, so one pass makes 104
#: ``apply_map`` calls and ``call_p90_ms`` has at least ten calls beyond it.
COMBO_DEGREES = (1, 1, 1, 2, 2, 2, 2)
#: Nonzero coefficients of the map inputs.
COEFFS = tuple(Fraction(c) for c in (1, -1, 2, -2, 3, "1/2", "-1/2", "3/2", "-2/3"))

EXPECTED_FAIL_CHECKS = ("side_hk", "side_pk")


def _combo_supports() -> dict:
    """The two basis cochains each combination sums, drawn once with a
    fixed seed.  How long a map call takes depends mostly on which basis
    cochains go in, so fixing them leaves the seed the coefficients and
    keeps the call mix, and its time, the same for every seed."""
    rng = random.Random("maps-roundtrip supports")
    return {
        group: [rng.sample(list(combinations(range(dim), degree)), 2) for degree in COMBO_DEGREES]
        for group, dim in MAP_GROUPS.items()
    }


COMBO_SUPPORTS = _combo_supports()


def add_source_path() -> None:
    """Make the checkout's ``src`` importable; refuse a tree without it, so
    the benchmark never measures some other installed copy."""
    if not (SOURCE / "cochainlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no cochainlab sources under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def purge_program_modules() -> None:
    for name in [n for n in sys.modules if n == "cochainlab" or n.startswith("cochainlab.")]:
        del sys.modules[name]


def setup(workload: str):
    """Import the package and build the groups, representations and
    instances the workload's calls use; returns the ``cli`` module."""
    cli = importlib.import_module("cochainlab.cli")
    if workload == "verify-groups":
        from cochainlab.nilgroup import build_group, trivial_poly_rep
        from cochainlab.vanest import build_double_complex, standard_poly_rep

        heis = build_group("heisenberg3")
        build_double_complex(heis, standard_poly_rep(heis), max_p=2)
        fil = build_group("filiform4")
        build_double_complex(fil, trivial_poly_rep(fil), max_p=2)
    elif workload == "verify-oracles":
        from cochainlab.cech_derham import cech_instance
        from cochainlab.perturb import matrix_instance

        matrix_instance(0, max_p=3)
        cech_instance()
    elif workload == "maps-roundtrip":
        from cochainlab.nilgroup import build_group

        for name in MAP_GROUPS:
            build_group(name)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cli


# ---------------------------------------------------------------------------
# Inputs


def ce_text(terms: dict) -> str:
    """Canonical text of a scalar CE cochain given as {index tuple: coef},
    written independently of ``cli.ce_to_string`` so the round trip is
    checked against the benchmark's own expectation."""
    chunks = []
    for idx in sorted(terms):
        coef = terms[idx]
        body = "/\\".join(f"e{i + 1}" for i in idx)
        mag = abs(coef)
        mag_text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if not body:
            body = mag_text
        elif mag != 1:
            body = f"{mag_text}*{body}"
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks)


def pass_inputs(workload: str, seed: int, index: int) -> list:
    """Inputs of pass ``index`` of a run with ``seed``.  Every pass draws
    fresh configs and coefficients; the mix of calls is the same in every
    pass, so call ``i`` of every pass is the same kind of call."""
    rng = random.Random(f"{workload}:{seed}:{index}")

    def seed_of():
        return rng.randrange(2**31)

    if workload == "verify-groups":
        # Five heisenberg3 calls per filiform4 call put the median call well
        # inside one mode of the two-mode call-time distribution, where it
        # is the middle of many seeded heisenberg3 calls.
        heis = dict(instance="heisenberg3", coeff_rep="standard", max_p=2, trials=1)
        fil = dict(instance="filiform4", coeff_rep="trivial", max_p=2, trials=1)
        mix = [heis, heis, fil, heis, heis, heis]
        return [("verify", dict(config, seed=seed_of())) for config in mix]
    if workload == "verify-oracles":
        # A pair-r3 call's time varies several-fold with its seed, while
        # matrix and cech-circle3 calls vary little; six of each of those to
        # two pair-r3 calls keep one heavy draw from moving the pass much.
        mix = 6 * [dict(instance="matrix", max_p=3, trials=1), dict(instance="cech-circle3", trials=1)]
        mix += 2 * [dict(instance="pair-r3", trials=1)]
        return [("verify", dict(config, seed=seed_of())) for config in mix]
    if workload == "maps-roundtrip":
        items = []
        for group, dim in MAP_GROUPS.items():
            for degree in range(BASIS_MAX_DEGREE + 1):
                for idx in combinations(range(dim), degree):
                    items.append(("roundtrip", group, ce_text({idx: rng.choice(COEFFS)})))
            for picked in COMBO_SUPPORTS[group]:
                items.append(
                    ("roundtrip", group, ce_text({idx: rng.choice(COEFFS) for idx in picked}))
                )
        return items
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Calls and checks


class Tally:
    """Operations attempted and failed, successful call times in call
    order, and the outputs for the digest.  Calls are timed with ``clock``,
    a function that returns seconds."""

    def __init__(self, clock=perf_counter):
        self.attempted = 0
        self.failed = 0
        self.call_s = []
        self.outputs = []
        self.clock = clock

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.outputs:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def _verdict_ok(code: int, report: dict) -> bool:
    """The call's own verdict: exit code 0 and, on the circle, both side
    conditions failing as expected with a witness."""
    if code != 0:
        return False
    if report["config"]["instance"] != "cech-circle3":
        return True
    witnessed = {
        rec["check"] for rec in report["checks"]
        if rec["status"] == "expected-fail" and "counterexample" in rec
    }
    return witnessed >= set(EXPECTED_FAIL_CHECKS)


def run_item(cli, item, tally: Tally) -> None:
    """Make the public call(s) of one input, timing each and counting its
    operations: check records for ``verify``, map calls for round trips.
    A call that raises counts as one failed operation; the run goes on."""
    kind = item[0]
    if kind == "verify":
        start = tally.clock()
        try:
            code, report = cli.run_verify(cli.RunConfig(**item[1]))
        except Exception as exc:  # any program error is a counted failure
            tally.attempted += 1
            tally.failed += 1
            tally.outputs.append(f"error:{type(exc).__name__}")
            return
        tally.call_s.append(tally.clock() - start)
        # A wrong verdict counts as one more failed operation beside the
        # call's check records.
        verdict_failed = 0 if _verdict_ok(code, report) else 1
        tally.attempted += len(report["checks"]) + verdict_failed
        tally.failed += verdict_failed + sum(
            1 for rec in report["checks"] if rec["status"] == "fail"
        )
        tally.outputs.append(json.dumps(report, sort_keys=True))
        return

    _, group, text = item
    config = cli.RunConfig(instance=group)
    current = text
    for map_name in ("integrate", "ve"):
        tally.attempted += 1
        start = tally.clock()
        try:
            current = cli.apply_map(config, map_name, current)
        except Exception as exc:  # any program error is a counted failure
            tally.failed += 1
            tally.outputs.append(f"error:{type(exc).__name__}")
            return
        tally.call_s.append(tally.clock() - start)
        tally.outputs.append(current)
    if current != text:
        tally.failed += 1
