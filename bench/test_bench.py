"""Tests of the benchmark itself: negative controls, seeding, tracing.

    python3 -m pytest bench

The two negative controls show that a corrupted table and a corrupted
output byte are counted as failed commands, so ``pass_rate`` drops below 1.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import calibrate
import harness
import tracing

sys.path.insert(0, str(harness.SRC))
import chevbasis.cli  # noqa: E402
import chevbasis.roots  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner():
    return harness.Runner(chevbasis.cli.main, harness.load_digests(), harness.load_golden())


def run_bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", *args], cwd=harness.ROOT,
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_flipped_constant_fails_verify(runner, tmp_path):
    gen = harness.gen_command("G2", "default", tmp_path, csv=False)
    assert harness.run_pass(runner, [gen]).failed == 0
    copy = tmp_path / "copy"
    copy.mkdir()
    doc = json.loads(gen.outputs[0][0].read_text())
    doc["constants"][0][3] *= -1
    (copy / "G2-default.json").write_text(json.dumps(doc))

    clean = harness.run_pass(runner, [harness.verify_command("G2", "default", tmp_path)])
    tally = harness.run_pass(runner, [harness.verify_command("G2", "default", copy)])
    assert clean.failed == 0
    assert tally.failed == 1 and tally.error_rate == 1.0
    assert any("exit code 1" in p for p in tally.problems)
    assert any("jacobi failed" in p for p in tally.problems)


class CorruptingRunner(harness.Runner):
    """Alters one byte of the last output after the command has written it."""

    def execute(self, cmd):
        result = super().execute(cmd)
        path = cmd.outputs[-1][0]
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        return result


def test_altered_output_byte_is_digest_mismatch(tmp_path):
    runner = CorruptingRunner(chevbasis.cli.main, harness.load_digests(), harness.load_golden())
    tally = harness.run_pass(runner, [harness.gen_command("F4", "flipped", tmp_path, csv=True)])
    assert tally.failed == 1 and tally.error_rate == 1.0
    assert [p.rsplit(": ", 2)[1:] for p in tally.problems] == [["F4/flipped.csv", "digest mismatch"]]


def test_golden_types_match_golden_files(runner, tmp_path):
    commands = [harness.gen_command(label, "default", tmp_path, csv=False) for label in ("A2", "D4", "G2")]
    assert harness.run_pass(runner, commands).failed == 0
    for cmd in commands:
        path, key = cmd.outputs[0]
        assert path.read_bytes() == (harness.GOLDEN / harness.GOLDEN_FILES[key]).read_bytes()


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload, tmp_path):
    plans = [harness.make_plan(workload, seed, tmp_path) for seed in (7, 7, 8)]
    assert plans[0] == plans[1]
    assert plans[0] != plans[2]


def test_small_roundtrip_generates_before_verifying(tmp_path):
    for seed in range(20):
        commands = harness.make_plan("small_roundtrip", seed, tmp_path).commands
        assert len(commands) == 80
        written: set[str] = set()
        for cmd in commands:
            if cmd.verify is None:
                written.add(cmd.argv[-1])
            else:
                assert cmd.argv[2] in written


def test_kernel_time_is_left_out_of_the_clock():
    calibrator = calibrate.Calibrator(interval=0.01)
    calibrator.start()
    try:
        wall, clock, spent = time.perf_counter(), calibrator.clock(), calibrator.spent
        while time.perf_counter() - wall < 0.5:
            pass
        wall, clock, spent = (time.perf_counter() - wall, calibrator.clock() - clock,
                              calibrator.spent - spent)
    finally:
        calibrator.stop()
    assert len(calibrator.samples) >= 2 and spent > 0
    assert wall - clock == pytest.approx(spent, abs=1e-3)
    assert calibrator.scale() == calibrate.REFERENCE_S / statistics.median(calibrator.samples)


def test_nested_calls_become_child_spans(tmp_path):
    original = chevbasis.roots.generate_roots
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chevbasis.cli.generate_roots is not original
        cmd = harness.gen_command("G2", "default", tmp_path, csv=False)
        assert chevbasis.cli.main(list(cmd.argv)) == 0
    finally:
        tracer.uninstall()
    assert chevbasis.cli.generate_roots is original
    by_id = {s.id: s for s in tracer.spans}
    parents: dict[str, set] = {}
    for s in tracer.spans:
        parents.setdefault(s.name, set()).add(by_id[s.parent].name if s.parent is not None else None)
    assert parents["cli.gen"] == {None}
    assert "cli.gen" in parents["roots.generate_roots"]
    assert parents["folding.folded_table"] == {"cli.gen"}
    assert parents["serialize.to_json_bytes"] == {"cli.gen"}
    assert all(s.self_s >= 0 for s in tracer.spans)


def test_end_to_end_output_matches_benchmark_json():
    result = run_bench("--workload", "small_roundtrip", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_traced_counts_repeat_across_runs():
    runs = [run_bench("--workload", "small_roundtrip", "--seed", "5", "--trace", "1") for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    count_names = [k for k, unit in declared.items() if unit in ("count", "bytes")]
    first, second = ({k: r["metrics"][k]["value"] for k in count_names} for r in runs)
    assert first == second
    assert first["verify.sl_n_oracle.checked"] > 0 and first["closedform.closed_table.calls"] == 24


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "gen", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
