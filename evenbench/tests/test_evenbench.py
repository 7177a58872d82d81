"""Tests of the benchmark itself: smoke runs, checkers, reference values.

Run with: python3 -m pytest -q evenbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

@pytest.fixture(scope="module")
def ref():
    return reference.Reference(30)


def _smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(Path("evenbench") / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- the benchmark's contract -------------------------------------------------


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name
    assert line["failed"] == 0


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "evenbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _smoke("trees-odd", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- reference values ---------------------------------------------------------


def test_reference_bernoulli_matches_textbook_values():
    textbook = [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        Fraction(43867, 798), Fraction(-174611, 330),
    ]
    assert reference.bernoulli_even(10)[1:] == textbook


def test_reference_numerators_start_as_published(ref):
    assert ref.a[1:6] == [1, 1, 10, 945, 992250]
    assert ref.zeta_ratio(3) == Fraction(2, 945)


def test_replay_reproduces_catalan_counts_and_odd_transform(ref):
    assert [sum(1 for _ in reference.level_sequences(k)) for k in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]
    odd = [Fraction(2 * n + 1) for n in range(1, 10)]
    for k in range(1, 8):
        assert reference.replay_transform(k, odd) == ref.zeta_ratio(k)


# -- every checker rejects a corrupted output ---------------------------------


def test_numerator_checker(ref):
    good = ref.a[1:10]
    reference.check_numerators(ref, good)
    bad = list(good)
    bad[6] += 1
    with pytest.raises(reference.Mismatch):
        reference.check_numerators(ref, bad)
    with pytest.raises(reference.Mismatch):
        reference.check_numerators(ref, [Fraction(v) for v in good])


def _recursion_polynomial(k: int) -> list[Fraction]:
    sys.path.insert(0, str(ROOT / "src"))
    import evenzeta

    return list(evenzeta.numerator_polynomial(k).coeffs), list(
        evenzeta.translated_polynomial(k, half_scale=True).coeffs
    )


def test_polynomial_checker(ref):
    poly, _ = _recursion_polynomial(7)
    reference.check_polynomial(ref, 7, poly)
    for corrupt in (
        poly[:-1],  # wrong degree
        poly[:-1] + [poly[-1] + 1],  # wrong leading coefficient
        [poly[0] + 1] + poly[1:],  # wrong constant coefficient
    ):
        with pytest.raises(reference.Mismatch):
            reference.check_polynomial(ref, 7, corrupt)


def test_translated_checker(ref):
    _, translated = _recursion_polynomial(7)
    reference.check_translated(ref, 7, translated)
    flipped = list(translated)
    flipped[2] = -flipped[2]
    with pytest.raises(reference.Mismatch):
        reference.check_translated(ref, 7, flipped)
    off = list(translated)
    off[0] += 1
    with pytest.raises(reference.Mismatch):
        reference.check_translated(ref, 7, off)


def test_transform_checkers(ref):
    reference.check_odd_transform(ref, 5, ref.zeta_ratio(5))
    with pytest.raises(reference.Mismatch):
        reference.check_odd_transform(ref, 5, -ref.zeta_ratio(5))
    seq = inputs.rational_sequences(11)[0]
    value = reference.replay_transform(5, seq)
    scaled = reference.replay_transform(5, [inputs.SCALE * v for v in seq])
    reference.check_scaling(5, value, scaled, inputs.SCALE)
    with pytest.raises(reference.Mismatch):
        reference.check_scaling(5, value, scaled + Fraction(1, 10**9), inputs.SCALE)
    with pytest.raises(reference.Mismatch):
        reference.check_equal("transform", value, -value)


def test_verify_record_checker():
    suites = ["trees", "bernoulli"]
    record = {
        "status": "ok",
        "result": {"passed": True, "suites": [{"suite": s, "passed": True} for s in suites]},
    }
    reference.check_verify_record(record, suites)
    failing = json.loads(json.dumps(record))
    failing["result"]["passed"] = False
    with pytest.raises(reference.Mismatch):
        reference.check_verify_record(failing, suites)
    with pytest.raises(reference.Mismatch):
        reference.check_verify_record(record, suites + ["fn"])


# -- probes and tracing -------------------------------------------------------


def test_largest_fitting_counts_up_from_the_first_k():
    best = {2: 0.01, 3: 0.02, 4: 0.1, 5: 0.5}
    assert run.largest_fitting(best, 0.2, 2) == 4
    assert run.largest_fitting(best, 0.015, 2) == 2
    assert run.largest_fitting(best, 0.001, 2) == 1


def test_rational_probe_outputs_are_checked_at_every_k():
    bench = run.Bench(run.load_package(), "trees-rational", 3, 0.1, False, True)
    bench.prepare()
    with pytest.raises(reference.Mismatch):
        bench._check_probe_output(3, bench.replays[0][2] + 1)
    with pytest.raises(reference.Mismatch):
        bench._check_probe_output(bench.k, bench.expected[0] + 1)
    k = inputs.REPLAY_MAX + 1  # beyond the replay: kept, then scaling-checked
    good = reference.replay_transform(k, bench.inp["sequences"][0])
    bench._check_probe_output(k, good)
    with pytest.raises(reference.Mismatch):
        bench._check_probe_output(k, good + 1)
    bench.check_probe_values()
    assert bench.mismatches == []
    bench.probe_values[k] = good + 1
    bench.check_probe_values()
    assert len(bench.mismatches) == 1


def test_traced_cli_wraps_names_bound_by_from_import():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_child.py"), "verify", "--suite", "trees",
         "--max-k", "4", "--format", "json"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    assert child["exit_code"] == 0
    assert json.loads(child["stdout"])["result"]["passed"] is True
    layers = child["trace"]["layers"]
    # factor_product is looked up in trees.py through `from .recursion import`
    assert layers["recursion.factor_product"][0] > 0
    assert layers["verify.suite.trees"][0] == 1
    assert layers["cli.main"][0] == 1
    assert any(e.startswith("trees.polynomial_via_trees>") for e in child["trace"]["edges"])
