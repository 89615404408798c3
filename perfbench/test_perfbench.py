"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import layers
import refclock
import workloads

HERE = Path(__file__).resolve().parent
workloads.add_source_path()

#: Spans no public call path reaches at this commit: they run only through an
#: instance's ``d_x``/``delta_y`` and ``ce_lie_derivative``, which neither
#: ``verify_instance`` nor ``apply_map`` calls.
UNREACHED = {"nilgroup.group_delta", "liealg.ce_diff"}


def traced_child(workload: str, hash_seed: str) -> dict:
    """One traced pass in a fresh process, with its own string-hash seed so
    that order-dependent counts would differ between two runs."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: traced_child(w, "1") for w in workloads.WORKLOADS}


def calls(result, prefix=""):
    return {
        name: value for name, value in result["metrics"].items()
        if name.endswith(".calls") and name.startswith(prefix)
    }


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_every_layer_metric_is_reached(traced):
    spans = list(layers.SPANS) + [layers.INSTANCE_OP]
    reached = {
        span for span in spans
        if any(result["metrics"][f"{span}.calls"] for result in traced.values())
    }
    assert reached == set(spans) - UNREACHED
    for result in traced.values():
        assert result["failed"] == 0 and result["attempted"] > 0


def test_layers_predicted_idle_stay_idle(traced):
    oracles = traced["verify-oracles"]
    assert not any(calls(oracles, "nilgroup.").values())
    assert not any(calls(oracles, "vanest.").values())
    assert not any(calls(traced["maps-roundtrip"], "perturb.").values())


def test_counts_repeat_across_processes(traced):
    for workload, first in traced.items():
        second = traced_child(workload, "2")
        assert second["digest"] == first["digest"]
        for name, value in first["metrics"].items():
            if not name.endswith("_s"):
                assert second["metrics"][name] == value, (workload, name)


def test_traced_and_untraced_digests_agree(traced):
    cli = workloads.setup("verify-oracles")
    tally = workloads.Tally()
    for item in workloads.pass_inputs("verify-oracles", 0, 0):
        workloads.run_item(cli, item, tally)
    assert tally.failed == 0
    assert tally.digest() == traced["verify-oracles"]["digest"]


def _bindings():
    """Every attribute of every program module and of the classes they
    define, by identity."""
    workloads.setup("verify-oracles")
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "cochainlab" and not name.startswith("cochainlab."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_no_wrapper_left_installed():
    before = _bindings()
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            patched = _bindings()
            assert any(getattr(v, "__perfbench_span__", None) for v in patched.values())
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_refuses_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-oracles",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reference_clock_counts_kernel_runs_and_uninstalls():
    """Timed on the clock, n runs of the reference kernel take about n times
    the reference kernel time, whatever the host's speed."""
    previous = signal.getsignal(signal.SIGALRM)
    clock = refclock.ReferenceClock()
    runs = 0
    with clock.running():
        start_wall, start = perf_counter(), clock()
        while perf_counter() - start_wall < 0.5:
            refclock.reference_kernel()
            runs += 1
        elapsed = clock() - start
    assert len(clock.kernel_s) > refclock.TICK_WINDOW + 3
    assert 0.7 < elapsed / (runs * refclock.REFERENCE_KERNEL_S) < 1.4
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
