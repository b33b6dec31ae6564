"""Tests for the command-line interface."""

import pytest

from cadinterop.cli import main

RACY = """
module race (clk);
  input clk;
  reg clk, b, d, flag;
  wire a;
  assign a = b;
  always @(posedge clk) if (a != d) flag = 1; else flag = 0;
  always @(posedge clk) b = d;
  initial begin d = 1'b1; b = 1'b0; flag = 1'b0; clk = 1'b0; #5 clk = 1'b1; end
endmodule
"""

CLEAN_FF = """
module ff (clk, d, q);
  input clk, d; output q; reg q;
  always @(posedge clk) q <= d;
endmodule
"""


class TestChecklist:
    def test_default_scenario(self, capsys):
        assert main(["checklist"]) == 0
        out = capsys.readouterr().out
        assert "full-asic" in out and "[ ]" in out

    def test_named_scenario(self, capsys):
        assert main(["checklist", "--scenario", "netlist-handoff"]) == 0
        assert "netlist-handoff" in capsys.readouterr().out

    def test_unknown_scenario(self, capsys):
        assert main(["checklist", "--scenario", "nope"]) == 2
        assert "available" in capsys.readouterr().err


class TestMethodology:
    def test_stats_printed(self, capsys):
        assert main(["methodology"]) == 0
        out = capsys.readouterr().out
        assert "tasks        200" in out
        assert "scenario pruning" in out


class TestRaces:
    def test_racy_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "race.v"
        path.write_text(RACY)
        assert main(["races", str(path), "--observe", "flag", "--until", "100"]) == 1
        assert "RACE" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ff.v"
        path.write_text(CLEAN_FF + "\n")
        # No stimulus: trivially deterministic.
        assert main(["races", str(path), "--until", "100"]) == 0
        assert "race-free" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["races", "/nonexistent.v"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.v"
        path.write_text("module ???")
        assert main(["races", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestSubsets:
    def test_portable_module(self, tmp_path, capsys):
        path = tmp_path / "ff.v"
        path.write_text(CLEAN_FF)
        assert main(["subsets", str(path)]) == 0
        out = capsys.readouterr().out
        assert "portable across all vendors: True" in out

    def test_unportable_module(self, tmp_path, capsys):
        path = tmp_path / "dly.v"
        path.write_text(
            "module dly (a, y); input a; output y; assign #5 y = ~a; endmodule"
        )
        assert main(["subsets", str(path)]) == 1
        assert "rejects" in capsys.readouterr().out


class TestNaming:
    def test_clean_names(self, capsys):
        assert main(["naming", "clk", "rst_n"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations(self, capsys):
        assert main(["naming", "cntr_reset1", "cntr_reset2", "in"]) == 1
        out = capsys.readouterr().out
        assert "alias" in out and "keyword" in out

    def test_max_length_flag(self, capsys):
        assert main(["naming", "--max-length", "32", "a_rather_long_name"]) == 0


class TestMigrateBatch:
    def write_vl(self, tmp_path, name="mixed1"):
        from cadinterop.schematic import io_vl
        from cadinterop.schematic.samples import build_sample_schematic, build_vl_libraries

        cell = build_sample_schematic(build_vl_libraries())
        cell.name = name
        path = tmp_path / f"{name}.vl"
        path.write_text(io_vl.dump_schematic(cell))
        return path

    def test_generated_corpus_runs_clean(self, capsys):
        assert main(["migrate-batch", "--generate", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 designs" in out and "3 migrated" in out and "3/3 clean" in out

    def test_cache_dir_makes_second_run_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["migrate-batch", "--generate", "4", "--cache-dir", cache]) == 0
        assert "4 migrated, 0 from cache" in capsys.readouterr().out
        assert main(["migrate-batch", "--generate", "4", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "0 migrated, 4 from cache" in out and "4 hits" in out

    def test_vl_file_and_directory_inputs(self, tmp_path, capsys):
        self.write_vl(tmp_path, "alpha")
        self.write_vl(tmp_path, "beta")
        assert main(["migrate-batch", str(tmp_path)]) == 0
        assert "2 designs" in capsys.readouterr().out
        assert main(["migrate-batch", str(tmp_path / "alpha.vl")]) == 0
        assert "1 designs" in capsys.readouterr().out

    def test_profile_flag_prints_stage_table(self, capsys):
        assert main(["migrate-batch", "--generate", "2", "--profile", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "verification" in out and "farm:digest" in out
        assert "gen000" in out  # per-design rows

    def test_out_writes_translated_designs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        self.write_vl(tmp_path, "alpha")
        assert main(["migrate-batch", str(tmp_path / "alpha.vl"),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "alpha.cd").exists()
        assert "wrote 1 translated" in capsys.readouterr().out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert main(["migrate-batch", str(tmp_path / "nope.vl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main(["migrate-batch", str(tmp_path)]) == 2
        assert "no .vl schematics" in capsys.readouterr().err

    def test_no_inputs_is_an_error(self, capsys):
        assert main(["migrate-batch"]) == 2
        assert "nothing to migrate" in capsys.readouterr().err

    def test_nonpositive_jobs_is_an_error(self, capsys):
        assert main(["migrate-batch", "--generate", "1", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestTrace:
    def test_trace_migrate_batch_prints_tree_and_stats(self, capsys):
        assert main(["trace", "migrate-batch", "--generate", "2"]) == 0
        out = capsys.readouterr().out
        assert "cli:migrate-batch" in out
        assert "farm:run" in out and "migrate:verification" in out
        assert "metric" in out and "farm.designs.migrated" in out

    def test_trace_writes_valid_files(self, tmp_path, capsys):
        from cadinterop.obs import read_trace, validate_trace

        trace_file = tmp_path / "t.jsonl"
        assert main(["trace", "--trace-out", str(trace_file),
                     "migrate-batch", "--generate", "2", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert validate_trace(trace_file) == []
        trace = read_trace(trace_file)
        names = [s["name"] for s in trace["spans"]]
        assert "cli:migrate-batch" in names and "farm:run" in names
        # The trace file is the one metrics output.
        metrics = trace["metrics"]
        assert metrics["farm.designs.migrated"]["value"] == 2
        assert not any(name.startswith("lineage.") for name in metrics)

    def test_metrics_out_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--metrics-out", str(tmp_path / "m.json"),
                  "naming", "clk"])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_trace_disables_globals_afterwards(self, capsys):
        from cadinterop.obs import get_metrics, get_tracer

        assert main(["trace", "migrate-batch", "--generate", "1"]) == 0
        capsys.readouterr()
        assert not get_tracer().enabled and not get_metrics().enabled

    def test_trace_propagates_wrapped_exit_code(self, capsys):
        assert main(["trace", "migrate-batch"]) == 2
        assert "nothing to migrate" in capsys.readouterr().err

    def test_trace_without_a_command_is_an_error(self, capsys):
        assert main(["trace"]) == 2
        assert "give a cadinterop command" in capsys.readouterr().err

    def test_trace_cannot_wrap_itself(self, capsys):
        assert main(["trace", "trace", "migrate-batch"]) == 2
        assert "cannot wrap" in capsys.readouterr().err

    def test_other_commands_traceable(self, capsys):
        assert main(["trace", "naming", "clk", "rst"]) == 0
        out = capsys.readouterr().out
        assert "cli:naming" in out and "2 name(s) clean" in out


class TestStats:
    def test_stats_renders_a_written_trace(self, tmp_path, capsys):
        from cadinterop.obs import LossReport, read_trace

        trace_file = tmp_path / "t.jsonl"
        assert main(["trace", "--trace-out", str(trace_file),
                     "migrate-batch", "--generate", "2"]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "farm:run" in out and "span" in out
        # The lineage records' loss summary, as ``trace`` reported it.
        summary = LossReport.from_records(read_trace(trace_file)["lineage"]).summary()
        assert "1 losses" in summary and out.count(summary) == 1

    def test_stats_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def one_span_trace(self, path, metrics):
        from cadinterop.obs import validate_trace, write_trace

        span = {"span_id": "s1", "parent_id": None, "name": "op", "start": 0.0,
                "seconds": 0.1, "status": "ok", "attrs": {}}
        write_trace(path, [span], metrics, trace_id="t")
        assert validate_trace(path) == []
        return str(path)

    @pytest.mark.parametrize("second", [
        {"type": "histogram", "buckets": [0.5], "counts": [1, 0], "sum": 0.1,
         "count": 1},
        {"type": "counter", "value": 1},
    ], ids=["buckets", "type"])
    def test_stats_reports_traces_that_cannot_merge(self, tmp_path, capsys, second):
        from cadinterop.obs import DEFAULT_BUCKETS

        # Each file is valid alone; together their ``h`` metrics disagree.
        first = {"type": "histogram", "buckets": list(DEFAULT_BUCKETS),
                 "counts": [1] + [0] * len(DEFAULT_BUCKETS), "sum": 0.0005,
                 "count": 1}
        paths = [self.one_span_trace(tmp_path / "a.jsonl", {"h": first}),
                 self.one_span_trace(tmp_path / "b.jsonl", {"h": second})]
        assert main(["stats", *paths]) == 2
        err = capsys.readouterr().err
        assert "cannot read trace" in err and paths[1] in err

    def test_nameless_metric_is_refused_everywhere(self, tmp_path, capsys):
        import json

        from cadinterop.obs import TRACE_FORMAT, read_trace, validate_trace

        path = tmp_path / "nameless.jsonl"
        path.write_text(
            json.dumps({"record": "meta", "format": TRACE_FORMAT, "trace_id": "t"})
            + "\n" + json.dumps({"record": "metric", "type": "counter", "value": 1})
            + "\n"
        )
        message = "line 2: metric without a name"
        with pytest.raises(ValueError) as refused:
            read_trace(path)
        assert str(refused.value) == message
        assert message in validate_trace(path)
        for command in ("stats", "audit"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"cannot read trace {path}: {message}" in err, command


class TestMigrateBatchObservability:
    """``trace`` is the one way to record a batch: migrate-batch has no
    trace flags of its own."""

    @pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out", "--lineage-out"])
    def test_trace_flags_are_rejected(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["migrate-batch", "--generate", "1", flag, str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_traced_batch_writes_v2_trace_with_linked_records(self, tmp_path, capsys):
        from cadinterop.obs import LossReport, get_lineage, read_trace, validate_trace

        lineage_file = tmp_path / "lineage.jsonl"
        assert main(["trace", "--trace-out", str(lineage_file),
                     "migrate-batch", "--generate", "4"]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert "lineage:" in out and "losses" in out  # loss summary printed
        assert not get_lineage().enabled  # torn down after the run
        assert validate_trace(lineage_file) == []
        trace = read_trace(lineage_file)
        assert trace["meta"]["format"] == 2
        assert trace["lineage"]
        # Printed once, in the trace's own loss report.
        summary = LossReport.from_records(trace["lineage"]).summary()
        assert out.count(summary) == 1
        # Acceptance: every lineage record resolves to a span in this file.
        span_ids = {s["span_id"] for s in trace["spans"]}
        assert all(r["span_id"] in span_ids for r in trace["lineage"])

    def test_profiled_batch_prints_the_loss_summary_once(self, capsys):
        assert main(["trace", "migrate-batch", "--generate", "4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "verification" in out  # the stage table
        assert "top lossy designs" in out  # the loss report
        assert out.count("lineage: ") == 1

    def test_audit_is_the_same_for_every_job_count(self, tmp_path, capsys):
        audits = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.jsonl"
            assert main(["trace", "--trace-out", str(path),
                         "migrate-batch", "--generate", "4", "--jobs", jobs]) == 0
            capsys.readouterr()
            assert main(["audit", "--json", str(path)]) == 0
            audits.append(capsys.readouterr().out)
        assert audits[0] == audits[1]

    def test_generated_corpus_loss_matches_issue_totals(self, tmp_path, capsys):
        # Acceptance criterion: the audited approximation count for the
        # 8-design corpus equals the SCALING snap warnings an uninstrumented
        # run of the same corpus logs.
        from cadinterop.common.diagnostics import Category, Severity
        from cadinterop.obs import read_trace
        from cadinterop.schematic.migrate import Migrator
        from cadinterop.schematic.samples import (
            build_sample_plan,
            build_vl_libraries,
            generate_chain_schematic,
        )

        libraries = build_vl_libraries()
        plan = build_sample_plan(source_libraries=libraries)
        shapes = [(1, 2, 3, 0), (2, 2, 4, 1), (1, 3, 5, 0), (2, 4, 4, 2)]
        expected = 0
        for index in range(8):
            pages, chains, stages, offgrid = shapes[index % len(shapes)]
            cell = generate_chain_schematic(
                libraries, pages=pages, chains_per_page=chains, stages=stages,
                seed=index, offgrid_labels=offgrid,
            )
            result = Migrator(plan).migrate(cell)
            expected += sum(
                1 for issue in result.log
                if issue.category is Category.SCALING
                and issue.severity is Severity.WARNING
            )
        assert expected > 0  # the corpus is intentionally lossy

        lineage_file = tmp_path / "l.jsonl"
        assert main(["trace", "--trace-out", str(lineage_file),
                     "migrate-batch", "--generate", "8"]) == 0
        capsys.readouterr()
        records = read_trace(lineage_file)["lineage"]
        approximated = [r for r in records if r["verb"] == "approximated"]
        assert len(approximated) == expected
        assert all(r["stage"] == "scaling" for r in approximated)


class TestAudit:
    def write_lineage_trace(self, tmp_path, name="l.jsonl", generate="4"):
        path = tmp_path / name
        assert main(["trace", "--trace-out", str(path),
                     "migrate-batch", "--generate", generate]) == 0
        return path

    def test_audit_renders_loss_matrix(self, tmp_path, capsys):
        path = self.write_lineage_trace(tmp_path)
        capsys.readouterr()
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lineage:" in out and "losses" in out
        assert "stage" in out and "scaling" in out and "replacement" in out
        assert "dialect" in out and "top lossy designs" in out

    def test_audit_json_output(self, tmp_path, capsys):
        import json

        path = self.write_lineage_trace(tmp_path)
        capsys.readouterr()
        assert main(["audit", "--json", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] > 0
        assert data["losses"] == data["by_verb"]["approximated"] + \
            data["by_verb"]["dropped"]
        assert "scaling" in data["matrix"]

    def test_audit_merges_globbed_traces(self, tmp_path, capsys):
        import json

        first = self.write_lineage_trace(tmp_path, "a.jsonl", generate="2")
        self.write_lineage_trace(tmp_path, "b.jsonl", generate="2")
        capsys.readouterr()
        assert main(["audit", "--json", str(first)]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["audit", "--json", str(tmp_path / "*.jsonl")]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["total"] == 2 * single["total"]

    def test_audit_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_audit_of_lineage_free_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        assert main(["trace", "--trace-out", str(trace_file),
                     "naming", "clk"]) == 0
        capsys.readouterr()
        assert main(["audit", str(trace_file)]) == 0
        assert "(no lineage records)" in capsys.readouterr().out


class TestStatsMultiFile:
    def write_trace(self, tmp_path, name, generate="2"):
        path = tmp_path / name
        assert main(["trace", "--trace-out", str(path),
                     "migrate-batch", "--generate", generate]) == 0
        return path

    def test_stats_merges_multiple_traces(self, tmp_path, capsys):
        import re

        from cadinterop.obs import LossReport, read_trace

        a = self.write_trace(tmp_path, "a.jsonl")
        b = self.write_trace(tmp_path, "b.jsonl", generate="3")
        capsys.readouterr()
        assert main(["stats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        # Both trace ids are announced and the counters add up (2 + 3).
        assert out.count("trace ") >= 2
        migrated = re.search(r"farm\.designs\.migrated\s+counter\s+(\d+)", out)
        assert migrated and int(migrated.group(1)) == 5
        # The span tree is a single-file affair; merged views stay flat.
        assert "└─" not in out
        # The loss summary covers the lineage records of both files.
        records = read_trace(a)["lineage"] + read_trace(b)["lineage"]
        assert LossReport.from_records(records).summary() in out

    def test_stats_accepts_globs(self, tmp_path, capsys):
        self.write_trace(tmp_path, "a.jsonl")
        self.write_trace(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "*.jsonl")]) == 0
        assert capsys.readouterr().out.count("trace ") >= 2

    def test_stats_single_file_still_prints_tree(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["stats", str(a)]) == 0
        assert "└─" in capsys.readouterr().out
