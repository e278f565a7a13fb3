"""Self-tests of the benchmark: counters, self times, checks, result line.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from checks import check_command
from tracing import Tracer, covered_length, pass_metrics, self_times
from workloads import DEFAULT_SEED, Command, build

CROSSOVER = build("crossover-roots", DEFAULT_SEED)
OMEGA_P_1CM = CROSSOVER[4]   # fails at the seed commit
SMALL_RATES = Command("rates", "rates",
                      "material = sic\nomega = omega_r\nT_W = 570\nT_M = 170\n"
                      "delta = 1.1e-7\nz = 2e-8,3e-7\n",
                      "json", 1, (1.1e-7,), (2e-8, 3e-7))
SMALL_TRACK = Command("track", "thermal-track",
                      "material = sic\nomega_31 = omega_p\nomega_32 = omega_r\n"
                      "T_W = 570\nT_M = 170\ndelta = 1e-2\nz = 1e-8,2e-7,5e-5\n",
                      "csv", 1, (1e-2,), (1e-8, 2e-7, 5e-5))

COUNT_KEYS = ("calls", "initial_panels", "splits", "evals", "failures", "nodes",
              "alpha_pair_per_root", "distance_evals_per_search")


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cli, response = run.import_package()
    return run.Runner(cli, response, tmp_path_factory.mktemp("work"))


def traced_pass(runner, commands):
    tracer = Tracer()
    with tracer.installed():
        return runner.run_pass(commands, None, tracer)


def test_outside_counts_match_engine(runner):
    result = traced_pass(runner, [CROSSOVER[0], OMEGA_P_1CM, SMALL_RATES])
    kinds = {c["kind"] for c in result.engine_calls}
    assert kinds == {"prop", "osc", "evan"}
    failed = [c for c in result.engine_calls if c["failed"]]
    assert [c["kind"] for c in failed] == ["evan"]
    for c in result.engine_calls:
        panels = 15 * c["initial_panels"] + 30 * c["splits"]
        assert c["tail"] == (1 if c["kind"] == "evan" else 0)
        assert c["evals"] == panels + c["tail"]
        if c["failed"]:
            # QuadratureToleranceError.best leaves out the tail evaluation
            assert c["reported_evals"] == panels
            assert c["splits"] == c["budget"]
        else:
            assert c["reported_evals"] == c["evals"]


def test_per_layer_counts_repeat(runner):
    commands = [CROSSOVER[0], CROSSOVER[2], SMALL_TRACK]
    first, second = (pass_metrics(p.spans, p.engine_calls)
                     for p in (traced_pass(runner, commands), traced_pass(runner, commands)))
    counts = {k: v for k, v in first.items() if k.endswith(COUNT_KEYS)}
    assert counts["analysis.closest_thermal.calls"] == 3
    assert counts["response.alpha_pair_per_root"] > 20
    assert counts == {k: second[k] for k in counts}


def test_self_time_is_span_minus_child_coverage():
    # (id, parent, request, thread, name, start, end, nodes)
    spans = [
        (1, None, 0, 0, "cli.run_command", 0.0, 10.0, None),
        (2, 1, 0, 0, "analysis.scan", 1.0, 4.0, None),
        (3, 1, 0, 1, "response.alpha_pair", 3.0, 6.0, None),
        (4, 2, 0, 0, "atom.steady_state", 2.0, 3.0, None),
        (5, 1, 0, 1, "response.alpha_pair", 8.0, 12.0, None),
    ]
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    m = pass_metrics(spans, [])
    assert (m["cli.self_s"], m["analysis.self_s"], m["atom.self_s"],
            m["response.self_s"]) == (3.0, 2.0, 1.0, 7.0)


def _corrupt(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_corrupted_row_counts_as_failed(runner):
    clean = runner.run_pass([SMALL_TRACK, SMALL_RATES])
    assert (clean.attempted, clean.failed, clean.problems) == (5, 0, [])

    track = runner.workdir / "track.csv"
    header, first, *_ = [ln for ln in track.read_text().splitlines() if not ln.startswith("#")]
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)          # p1 of the first row
    _corrupt(track, first, ",".join(cells))
    outcome = check_command(SMALL_TRACK, 0, track, None)
    assert outcome.status == ["bad", "ok", "ok"]

    rates = runner.workdir / "rates.json"
    doc = json.loads(rates.read_text())
    doc["rows"][1][2] *= 1.01                         # alpha_W of the second row
    rates.write_text(json.dumps(doc))
    outcome = check_command(SMALL_RATES, 0, rates, None)
    assert (outcome.failed, outcome.bad) == (1, 1)


def test_reference_comparison_catches_a_shifted_value(runner):
    reference = run.load_reference("crossover-roots")
    ok = runner.run_pass(CROSSOVER[:1], reference)
    assert ok.problems == []
    shifted = json.loads(json.dumps(reference))
    shifted["commands"][0]["rows"][0][2] *= 1.001      # z_star
    bad = runner.run_pass(CROSSOVER[:1], shifted)
    assert (bad.failed, bad.bad) == (1, 1)


def test_known_failure_is_an_error_row_not_a_bad_row(runner):
    result = runner.run_pass([OMEGA_P_1CM], run.load_reference("crossover-roots"))
    assert (result.attempted, result.failed, result.bad, result.problems) == (1, 1, 0, [])


def test_other_config_is_not_compared_with_the_reference(runner):
    moved = replace(CROSSOVER[0], config=CROSSOVER[0].config.replace("1e-2", "2e-2"))
    result = runner.run_pass([moved], run.load_reference("crossover-roots"))
    assert result.bad == 1


def _bench(root, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    proc = _bench(run.ROOT, "--workload", "crossover-roots", "--seed", "5",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 5 == result["attempted"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "resonant-track", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
