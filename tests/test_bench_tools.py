"""Tests for the machine-readable benchmark harness and the diff gate."""

import json

import pytest

from repro.obs.bench import (
    core_benchmarks,
    load_bench_record,
    run_benchmarks,
    write_bench_record,
)


def _tiny_record(**times):
    """A benchmarks mapping from name -> wall_time_s (plus optional rps)."""
    return {
        name: {"wall_time_s": value, "repeats": 1}
        for name, value in times.items()
    }


class TestHarness:
    def test_core_benchmarks_run_and_record(self, tmp_path):
        # Tiny sizes: this is a correctness test of the harness, not a perf run.
        results = run_benchmarks(
            core_benchmarks(n=24, fast_n=48, parallel_trials=4),
            repeats=1,
        )
        names = set(results)
        assert names == {
            "deployment_sampling",
            "pairwise_distances",
            "gain_matrix_construction",
            "single_round_resolve",
            "full_execution_engine",
            "fast_path_execution",
            "fast_path_execution_probes",
            "link_class_partition",
            "parallel_trials_w1",
            "parallel_trials_w2",
            "parallel_trials_w4",
        }
        for entry in results.values():
            assert entry["wall_time_s"] > 0.0
            assert entry["mean_s"] >= entry["wall_time_s"]
        engine = results["full_execution_engine"]
        assert engine["rounds"] > 0
        assert engine["rounds_per_sec"] > 0
        assert engine["peak_active"] == 24
        fast = results["fast_path_execution"]
        assert fast["peak_active"] == 48
        assert fast["solved"] is True
        probed = results["fast_path_execution_probes"]
        # The probes variant runs the identical seeded workload — same
        # round count — and actually records one probe per round.
        assert probed["rounds"] == fast["rounds"]
        assert probed["probe_rounds"] == fast["rounds"]
        for workers in (1, 2, 4):
            entry = results[f"parallel_trials_w{workers}"]
            assert entry["workers"] == workers
            assert entry["trials"] == 4
            assert entry["cpu_count"] >= 1
        # The seed-sharding contract, visible at the bench level: every
        # worker count executes the same per-trial work.
        assert (
            results["parallel_trials_w1"]["rounds"]
            == results["parallel_trials_w2"]["rounds"]
            == results["parallel_trials_w4"]["rounds"]
        )

        path = tmp_path / "bench.json"
        document = write_bench_record(results, path)
        loaded = load_bench_record(path)
        assert loaded["benchmarks"] == json.loads(json.dumps(document["benchmarks"]))
        assert loaded["environment"]["git_sha"]
        assert loaded["environment"]["package_version"]

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            run_benchmarks([], repeats=0)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not a repro-bench"):
            load_bench_record(path)

    def test_committed_baseline_is_loadable(self):
        """The in-repo BENCH_core.json must stay valid."""
        from pathlib import Path

        baseline = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        document = load_bench_record(baseline)
        benchmarks = document["benchmarks"]
        assert "full_execution_engine" in benchmarks
        for entry in benchmarks.values():
            assert entry["wall_time_s"] > 0.0
        assert benchmarks["full_execution_engine"]["rounds_per_sec"] > 0


class TestBenchDiff:
    @pytest.fixture
    def bench_diff(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"
        spec = importlib.util.spec_from_file_location("bench_diff", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _write(self, tmp_path, name, benchmarks):
        path = tmp_path / name
        write_bench_record(benchmarks, path)
        return str(path)

    def test_within_threshold_passes(self, bench_diff, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", _tiny_record(a=1.0, b=2.0))
        candidate = self._write(tmp_path, "cand.json", _tiny_record(a=1.1, b=1.9))
        assert bench_diff.main([baseline, candidate]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_regression_beyond_threshold_fails(self, bench_diff, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", _tiny_record(a=1.0))
        candidate = self._write(tmp_path, "cand.json", _tiny_record(a=1.3))
        assert bench_diff.main([baseline, candidate]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "a" in out

    def test_custom_threshold(self, bench_diff, tmp_path):
        baseline = self._write(tmp_path, "base.json", _tiny_record(a=1.0))
        candidate = self._write(tmp_path, "cand.json", _tiny_record(a=1.3))
        assert bench_diff.main([baseline, candidate, "--threshold", "0.5"]) == 0

    def test_added_and_removed_benchmarks_do_not_fail(
        self, bench_diff, tmp_path, capsys
    ):
        baseline = self._write(tmp_path, "base.json", _tiny_record(old=1.0, keep=1.0))
        candidate = self._write(tmp_path, "cand.json", _tiny_record(new=9.9, keep=1.0))
        assert bench_diff.main([baseline, candidate]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "removed" in out
        # One-sided entries are labelled explicitly and summarised.
        assert "added benchmarks (report-only, never gated): new" in out
        assert "removed benchmarks (report-only, never gated): old" in out

    def test_one_sided_rows_carry_verdicts(self, bench_diff, tmp_path):
        baseline = self._write(tmp_path, "base.json", _tiny_record(old=1.0))
        candidate = self._write(tmp_path, "cand.json", _tiny_record(new=2.0))
        rows, regressions = bench_diff.compare_records(
            load_bench_record(baseline), load_bench_record(candidate)
        )
        assert regressions == []
        verdicts = {row[0]: row[-1] for row in rows}
        assert verdicts == {"new": "added", "old": "removed"}
        # Added rows show a candidate time only; removed the reverse.
        by_name = {row[0]: row for row in rows}
        assert by_name["new"][1] == "-" and by_name["new"][2] != "-"
        assert by_name["old"][2] == "-" and by_name["old"][1] != "-"

    def test_scaling_benchmarks_are_report_only(self, bench_diff, tmp_path, capsys):
        # A 10x wall-time blowup on the hardware-dependent entries must
        # not trip the gate; the tool reports speedup ratios instead.
        times = {
            "parallel_trials_w1": 1.0,
            "parallel_trials_w2": 0.6,
        }
        baseline = self._write(tmp_path, "base.json", _tiny_record(**times))
        slower = {name: value * 10 for name, value in times.items()}
        candidate = self._write(tmp_path, "cand.json", _tiny_record(**slower))
        assert bench_diff.main([baseline, candidate]) == 0
        out = capsys.readouterr().out
        assert "report-only" in out
        assert "w2: 1.67x" in out

    def test_compare_records_reports_rps_delta(self, bench_diff, tmp_path):
        base = {"x": {"wall_time_s": 1.0, "rounds_per_sec": 100.0}}
        cand = {"x": {"wall_time_s": 1.0, "rounds_per_sec": 150.0}}
        rows, regressions = bench_diff.compare_records(
            load_bench_record(self._write(tmp_path, "b.json", base)),
            load_bench_record(self._write(tmp_path, "c.json", cand)),
        )
        assert regressions == []
        assert any("+50.0%" in cell for row in rows for cell in row)

    @pytest.mark.parametrize("bad_rate", [float("nan"), float("inf"), 0.0, None])
    def test_non_finite_rates_suppress_rps_delta(
        self, bench_diff, tmp_path, capsys, bad_rate
    ):
        # TrialStats.rounds_per_second legitimately reports NaN for
        # zero/NaN wall times, and NaN is truthy — the delta must be
        # suppressed, not rendered as "nan%", and never crash the gate.
        base = {"x": {"wall_time_s": 1.0, "rounds_per_sec": bad_rate}}
        cand = {"x": {"wall_time_s": 1.0, "rounds_per_sec": 150.0}}
        rows, regressions = bench_diff.compare_records(
            load_bench_record(self._write(tmp_path, "b.json", base)),
            load_bench_record(self._write(tmp_path, "c.json", cand)),
        )
        assert regressions == []
        (row,) = rows
        assert row[4] == ""  # rounds/s delta column stays blank
        assert bench_diff.main(
            [
                self._write(tmp_path, "b2.json", base),
                self._write(tmp_path, "c2.json", cand),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "nan" not in out.lower()

    def test_nan_scaling_baseline_reports_nothing(self, bench_diff, tmp_path):
        record = load_bench_record(
            self._write(
                tmp_path,
                "nan.json",
                _tiny_record(
                    parallel_trials_w1=float("nan"), parallel_trials_w2=0.5
                ),
            )
        )
        assert bench_diff.parallel_speedups(record) == {}
