"""Unit tests for the repro-bench CLI."""

import json

import pytest

from repro.core.cli import build_parser, main


class TestParser:
    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_fig_commands_parse(self):
        for name in ("fig1", "fig2", "fig3"):
            args = build_parser().parse_args([name, "--quick", "--max-rf", "3"])
            assert args.command == name
            assert args.quick is True
            assert args.max_rf == 3

    def test_db_filter(self):
        args = build_parser().parse_args(["fig1", "--db", "hbase"])
        assert args.dbs == ["hbase"]

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(["fig2", "--jobs", "4",
                                          "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_jobs_default_serial_cache_on(self):
        args = build_parser().parse_args(["fig3", "--quick"])
        assert args.jobs == 1
        assert args.no_cache is False

    def test_invalid_db_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--db", "mongodb"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_failover_parses(self):
        args = build_parser().parse_args(
            ["failover", "--quick", "--db", "cassandra",
             "--fault", "crash", "--fault", "slow_disk",
             "--timeline", "--jobs", "4"])
        assert args.command == "failover"
        assert args.dbs == ["cassandra"]
        assert args.faults == ["crash", "slow_disk"]
        assert args.timeline is True
        assert args.jobs == 4

    def test_failover_invalid_fault_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["failover", "--fault", "meteor"])


class TestCommands:
    def test_table1_prints_workloads(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "read_mostly" in out
        assert "scan_short_ranges" in out
        assert "Zipfian" in out or "zipfian" in out

    def test_fig1_end_to_end_jobs_and_cache(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        argv = ["fig1", "--quick", "--max-rf", "1", "--db", "hbase",
                "--jobs", "2"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Fig.1 (hbase)" in first.out
        assert "[1/1] fig1/hbase/rf=1" in first.err
        # Second invocation reuses the cell cache and prints the same
        # table (progress marks the cell as cached).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_failover_end_to_end_cached_identical(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        argv = ["failover", "--quick", "--db", "hbase", "--timeline"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Failover campaign (hbase)" in first.out
        assert "crash n0" in first.out      # injection marker
        assert "restart n0" in first.out
        assert "detect s" in first.out      # availability columns
        # The cached rerun is bit-identical (the acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err


class TestAdaptiveCommand:
    def test_adaptive_parses(self):
        args = build_parser().parse_args(
            ["adaptive", "--quick", "--policy", "static-one",
             "--policy", "stepwise", "--timeline", "--digests",
             "--jobs", "4"])
        assert args.command == "adaptive"
        assert args.policies == ["static-one", "stepwise"]
        assert args.timeline is True
        assert args.digests is True
        assert args.jobs == 4

    def test_adaptive_defaults_all_policies(self):
        args = build_parser().parse_args(["adaptive"])
        assert args.policies is None  # cmd_adaptive expands to all
        assert args.jobs == 1 and args.no_cache is False

    def test_adaptive_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adaptive", "--policy", "prayer"])

    def test_adaptive_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        cells = ["--policy", "static-one", "--policy", "stepwise",
                 "--timeline", "--digests"]
        argv = ["adaptive", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Adaptive consistency (cassandra, RF=3)" in first.out
        assert "SLO: p95 <=" in first.out
        assert "digest stepwise" in first.out
        assert "decisions" in first.out  # timeline header
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # A serial run against the same cache matches too: jobs only
        # changes scheduling, never decisions — the digest lines embed
        # the decision-log identity.
        assert main(["adaptive", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out

    def test_adaptive_report_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "cache"))
        report = tmp_path / "adaptive.json"
        argv = ["adaptive", "--quick", "--policy", "static-one",
                "--report", str(report)]
        assert main(argv) == 0
        capsys.readouterr()
        import json as json_module
        payload = json_module.loads(report.read_text())
        summary = payload["static-one"]["1200.0"]
        assert "decisions" in summary and "consistency" in summary


class TestTailCommand:
    def test_tail_parses(self):
        args = build_parser().parse_args(
            ["tail", "--quick", "--db", "cassandra",
             "--mode", "none", "--mode", "hedge",
             "--scenario", "slow_replica", "--jobs", "4"])
        assert args.command == "tail"
        assert args.dbs == ["cassandra"]
        assert args.modes == ["none", "hedge"]
        assert args.scenarios == ["slow_replica"]
        assert args.jobs == 4

    def test_tail_defaults_cover_both_dbs_all_modes(self):
        args = build_parser().parse_args(["tail"])
        assert args.dbs is None  # main() expands this to both databases
        assert args.modes is None  # cmd_tail falls back to TAIL_MODES
        assert args.scenarios is None
        assert args.jobs == 1 and args.no_cache is False

    def test_tail_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tail", "--mode", "prayer"])

    def test_tail_invalid_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tail", "--scenario", "meteor"])

    def test_tail_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        cells = ["--db", "cassandra", "--scenario", "overload",
                 "--mode", "none", "--mode", "deadline"]
        argv = ["tail", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Tail-latency defenses (cassandra)" in first.out
        assert "shed" in first.out
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # So is a serial run against the same cache: jobs only changes
        # scheduling, never results.
        assert main(["tail", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out


class TestSurgeCommand:
    def test_surge_parses(self):
        args = build_parser().parse_args(
            ["surge", "--quick", "--db", "cassandra",
             "--mode", "undefended", "--mode", "full",
             "--scenario", "flash_crowd", "--strict", "--jobs", "4"])
        assert args.command == "surge"
        assert args.dbs == ["cassandra"]
        assert args.modes == ["undefended", "full"]
        assert args.scenarios == ["flash_crowd"]
        assert args.strict is True
        assert args.jobs == 4

    def test_surge_defaults_cover_both_dbs_full_matrix(self):
        args = build_parser().parse_args(["surge"])
        assert args.dbs is None  # main() expands this to both databases
        assert args.modes is None  # cmd_surge falls back to SURGE_MODES
        assert args.scenarios is None
        assert args.jobs == 1 and args.no_cache is False

    def test_surge_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["surge", "--mode", "prayer"])

    def test_surge_invalid_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["surge", "--scenario", "meteor"])

    def test_surge_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "cache"))
        report = tmp_path / "surge.json"
        cells = ["--db", "cassandra", "--scenario", "steady",
                 "--mode", "undefended", "--mode", "full", "--strict",
                 "--report", str(report)]
        argv = ["surge", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Flash-crowd survival (cassandra)" in first.out
        assert "goodput/s" in first.out
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # So is a serial run against the same cache: jobs only changes
        # scheduling, never results.
        assert main(["surge", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out
        # The JSON report carries the open-loop accounting.
        import json as json_module
        payload = json_module.loads(report.read_text())
        summary = payload["cassandra"]["steady"]["full"]
        assert summary["offered"] > 0
        assert "clienttier" in summary and "consistency" in summary


class TestPerfGateCommand:
    """The perf gate must never compare a fresh report with itself."""

    @staticmethod
    def _report(stress_per_s: float) -> dict:
        from repro.core.perf import SCHEMA_VERSION
        return {"schema": SCHEMA_VERSION, "python": "3", "quick": True,
                "stages": {"event_churn": {
                    "ops": 1, "wall_s": 1.0, "per_s": stress_per_s,
                    "unit": "events"}}}

    @pytest.fixture
    def suite(self, monkeypatch):
        """Replace the suite with a canned report; count the runs."""
        import repro.core.cli as cli_mod
        runs = []

        def fake_suite(quick=False, progress=None):
            runs.append(quick)
            return self._report(1_000.0)

        monkeypatch.setattr(cli_mod, "run_perf_suite", fake_suite)
        return runs

    def test_out_equal_to_baseline_is_refused(self, tmp_path, suite,
                                              capsys):
        baseline = tmp_path / "BENCH_perf.json"
        baseline.write_text(json.dumps(self._report(5_000.0)))
        before = baseline.read_text()
        code = main(["perf", "--quick", "--out", str(baseline),
                     "--baseline", str(baseline)])
        assert code == 2
        assert "would overwrite --baseline" in capsys.readouterr().err
        assert suite == []
        assert baseline.read_text() == before

    def test_default_out_resolving_to_baseline_is_refused(
            self, tmp_path, monkeypatch, suite):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_perf.json").write_text(
            json.dumps(self._report(5_000.0)))
        # The default --out is BENCH_perf.json; the same file named via
        # another spelling must still be recognised.
        assert main(["perf", "--quick",
                     "--baseline", str(tmp_path / "BENCH_perf.json")]) == 2
        assert main(["perf", "--quick",
                     "--baseline", "./BENCH_perf.json"]) == 2
        assert suite == []

    def test_gate_compares_against_the_baseline_before_writing(
            self, tmp_path, suite, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(5_000.0)))
        out = tmp_path / "current.json"
        code = main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline)])
        # 1k/s against a 5k/s baseline is an 80% drop: the gate trips
        # and the fresh report is still written for inspection.
        assert code == 1
        assert "perf gate: FAIL" in capsys.readouterr().err
        assert suite == [True]
        assert json.loads(out.read_text())["stages"]["event_churn"][
            "per_s"] == 1_000.0
        assert json.loads(baseline.read_text())["stages"]["event_churn"][
            "per_s"] == 5_000.0
