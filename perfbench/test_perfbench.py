"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.  They
check that every metric the benchmark prints is declared in
``BENCHMARK.json``, that the modelled metrics are exactly deterministic
per seed, and that a seed other than each workload's pinned one runs and
passes its checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
from setup_clock import SetupClock  # noqa: E402
from workloads import WORKLOADS, fingerprint_json  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _one_pass(name: str, seed: int, pinned: bool, calibrate=False):
    wl = type(WORKLOADS[name])()  # fresh instance: no cached reference
    spec = measure._prepare(wl, seed, 1)[0]
    with SetupClock() as clock:
        return measure._one_pass(wl, spec, 0, pinned, clock,
                                 calibrate=calibrate)


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == measure.END_TO_END
    assert _declared("per_layer") == measure.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [
    ("0", "end_to_end"), ("1", "per_layer"),
])
def test_every_printed_metric_is_declared(trace, section):
    result = _run("--workload", "repair", "--seed", "4",
                  "--seconds", "1", "--trace", trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared(section)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_modelled_metrics_are_deterministic_per_seed(name):
    seed = WORKLOADS[name].pinned_seed
    # The second pass runs under the speed probe: sampling must not
    # perturb the modelled run either.
    first, second = (
        _one_pass(name, seed, pinned=True, calibrate=calibrate)
        for calibrate in (False, True)
    )
    assert second.scale > 0 and first.scale == 1.0
    assert first.events == second.events
    assert fingerprint_json(first.outcome) == fingerprint_json(
        second.outcome)
    assert first.outcome.samples == second.outcome.samples
    assert measure._modelled([first]) == measure._modelled([second])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_runs_and_passes_its_checks(name):
    wl = WORKLOADS[name]
    other = wl.pinned_seed + 1
    outcome = _one_pass(name, other, pinned=False).outcome
    assert outcome.problems == [] and outcome.failed == 0
    assert outcome.delivered == outcome.expected > 0
    # The pinned observables belong to the pinned seed only, so the same
    # pass checked against them must fail: the pinned checks are live.
    pinned_checks = _one_pass(name, other, pinned=True).outcome
    assert pinned_checks.failed == pinned_checks.expected > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile([2714, 3000]) == 95.0
    assert measure.tail_percentile([150, 3000]) == 90.0
    assert measure.tail_percentile([567]) == 95.0
    assert measure.tail_percentile([252]) == 95.0
    assert measure.tail_percentile([15]) == 50.0


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
