"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import (
    EXPERIMENTS,
    GENERATED_BEGIN,
    GENERATED_END,
    catalogue_markdown,
    main,
)


class TestList:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "tab08", "ext-swap"):
            assert name in out

    def test_list_prints_dash_and_underscore_aliases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Both accepted spellings of every dashed name are printed.
        for name in ("ext_cluster_router", "ext-cluster-router",
                     "ext_prefix_cache", "ext-prefix-cache",
                     "ext_sched_policy", "ext-sched-policy"):
            assert name in out

    def test_cluster_experiment_registered(self):
        assert "ext-cluster-router" in EXPERIMENTS
        assert EXPERIMENTS["ext-cluster-router"].module == "ext_cluster_router"

    def test_sched_experiment_registered(self):
        assert EXPERIMENTS["ext-sched-policy"].module == "ext_sched_policy"
        assert (
            EXPERIMENTS["ext-sched-policy"].bench
            == "benchmarks/bench_ext_sched.py"
        )

    def test_large_models_experiment_registered(self):
        # Regression: ext_large_models had a main() but no catalogue
        # entry, so `repro run` could not reach it.
        assert EXPERIMENTS["ext-large-models"].module == "ext_large_models"

    def test_catalogue_covers_every_eval_artifact(self):
        # Every table and figure of the paper's evaluation is runnable.
        expected = {
            "fig02", "fig03", "fig04", "tab03", "fig07", "tab06",
            "fig08", "tab07", "fig09", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "tab08", "tab09", "tab10",
        }
        assert expected <= set(EXPERIMENTS)

    def test_every_entry_names_module_and_paper_anchor(self):
        import importlib

        for name, experiment in EXPERIMENTS.items():
            assert experiment.description
            assert experiment.paper
            # The module exists and is runnable (has a main printer).
            module = importlib.import_module(
                f"repro.experiments.{experiment.module}"
            )
            assert callable(module.main), name


class TestMarkdownCatalogue:
    def test_markdown_lists_every_experiment(self, capsys):
        assert main(["list", "--markdown"]) == 0
        out = capsys.readouterr().out
        for name, experiment in EXPERIMENTS.items():
            assert f"`{experiment.module}`" in out
            assert f"`{name}`" in out

    def test_markdown_is_a_table(self):
        lines = catalogue_markdown().splitlines()
        assert lines[0].startswith("| Experiment |")
        # Header + separator + one row per experiment, then a blank
        # line and the observability-flags footer paragraph.
        table = lines[: 2 + len(EXPERIMENTS)]
        assert all(line.startswith("|") for line in table)
        assert lines[2 + len(EXPERIMENTS)] == ""
        footer = "\n".join(lines[2 + len(EXPERIMENTS):])
        for flag in ("--telemetry", "--trace-out", "--check-trace"):
            assert flag in footer

    def test_check_passes_on_fresh_file(self, tmp_path):
        path = tmp_path / "paper_map.md"
        path.write_text(
            f"# map\n\n{GENERATED_BEGIN}\n{catalogue_markdown()}\n"
            f"{GENERATED_END}\n"
        )
        assert main(["list", "--markdown", "--check", str(path)]) == 0

    def test_check_fails_on_stale_file(self, tmp_path, capsys):
        path = tmp_path / "paper_map.md"
        path.write_text(
            f"{GENERATED_BEGIN}\n| old table |\n{GENERATED_END}\n"
        )
        assert main(["list", "--markdown", "--check", str(path)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_check_fails_without_markers(self, tmp_path, capsys):
        path = tmp_path / "paper_map.md"
        path.write_text("no markers here\n")
        assert main(["list", "--markdown", "--check", str(path)]) == 1
        assert "markers" in capsys.readouterr().err

    def test_check_fails_on_missing_file(self, tmp_path):
        path = tmp_path / "absent.md"
        assert main(["list", "--markdown", "--check", str(path)]) == 1

    def test_check_requires_markdown_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["list", "--check", str(tmp_path / "x.md")])

    # Freshness of the committed docs/paper_map.md is covered once, in
    # tests/test_docs.py (mirroring the CI docs job's invocation).


class TestRun:
    def test_run_fast_experiment(self, capsys):
        assert main(["run", "tab08"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
        assert "Yi-6B" in out

    def test_run_accepts_module_style_names(self, capsys):
        # `repro run ext_sharing` == `repro run ext-sharing`.
        assert main(["run", "ext_sharing"]) == 0
        assert "Prefix sharing" in capsys.readouterr().out
        assert "ext-prefix-cache" in EXPERIMENTS

    def test_run_multiple(self, capsys):
        assert main(["run", "tab08", "tab10"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out and "Table 10" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_telemetry_flags(self, capsys, tmp_path):
        from repro.metrics.telemetry import active

        trace = tmp_path / "trace.jsonl"
        assert main([
            "run", "fig12", "--telemetry",
            "--trace-out", str(trace), "--check-trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "== engine ==" in out
        assert "trace-check: all invariants hold" in out
        assert trace.exists()
        # The registry is uninstalled again afterwards.
        assert active() is None

    def test_trace_consumers_share_one_build(self, capsys, tmp_path,
                                             monkeypatch):
        # The registry builds record dicts on demand; the four trace
        # consumers must share one build rather than rebuild the log.
        from repro.metrics.telemetry import TelemetryRegistry

        builds = []
        trace_records = TelemetryRegistry.trace_records

        def counted(registry):
            builds.append(registry)
            return trace_records(registry)

        monkeypatch.setattr(TelemetryRegistry, "trace_records", counted)
        trace = tmp_path / "trace.jsonl"
        spans = tmp_path / "spans.jsonl"
        assert main([
            "run", "fig12", "--trace-out", str(trace),
            "--spans-out", str(spans), "--attribution", "--check-trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "trace-check: all invariants hold" in out
        assert trace.exists() and spans.exists()
        assert len(builds) == 1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
