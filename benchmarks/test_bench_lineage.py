"""E17 — semantic-loss lineage matrix over the 8-design CI corpus.

The provenance layer turns the paper's qualitative claim — tool boundaries
lose design information — into a counted, per-stage loss matrix.  Rows:
the same 8-design corpus CI migrates (4 of its designs carry off-grid
wire-label anchors), run through a lineage-enabled farm; the loss report
is cross-checked against the IssueLog of an uninstrumented run so the
audit trail can never drift from the diagnostics.

Regenerate:
    PYTHONPATH=src python -m pytest benchmarks/test_bench_lineage.py -s --benchmark-disable
or from the shell:
    make audit
"""

from cadinterop.common.diagnostics import Category, Severity
from cadinterop.farm import MigrationFarm
from cadinterop.obs import (
    LOSS_VERBS,
    LineageRecorder,
    ObsContext,
    Tracer,
    installed,
)
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.samples import build_sample_plan, generate_chain_schematic

#: The CI corpus shapes: (pages, chains/page, stages, off-grid labels).
CI_SHAPES = [(1, 2, 3, 0), (2, 2, 4, 1), (1, 3, 5, 0), (2, 4, 4, 2)]
CI_DESIGNS = 8


def ci_corpus(vl_libraries):
    corpus = []
    for index in range(CI_DESIGNS):
        pages, chains, stages, offgrid = CI_SHAPES[index % len(CI_SHAPES)]
        cell = generate_chain_schematic(
            vl_libraries, pages=pages, chains_per_page=chains, stages=stages,
            seed=index, offgrid_labels=offgrid,
        )
        cell.name = f"gen{index:03d}_{cell.name}"
        corpus.append(cell)
    return corpus


class TestLineageMatrix:
    def test_loss_matrix_over_ci_corpus(self, vl_libraries):
        corpus = ci_corpus(vl_libraries)
        plan = build_sample_plan(source_libraries=vl_libraries)

        with installed(ObsContext(Tracer(), lineage=LineageRecorder())):
            report = MigrationFarm(plan, jobs=2, executor="process").run(corpus)
        assert report.migrated == CI_DESIGNS
        loss = report.loss
        assert loss is not None and loss.total > 0
        assert loss.unlinked == 0  # every record resolves to a span

        rows = {
            "designs": CI_DESIGNS,
            "records": loss.total,
            "losses": loss.losses,
            "by_verb": {v: c for v, c in loss.by_verb.items() if c},
            "matrix": {
                stage: {v: c for v, c in row.items() if c}
                for stage, row in sorted(loss.matrix.items())
            },
            "top_lossy": loss.top_lossy_designs(),
        }
        print(f"\nE17 rows: {rows}")

        # The loss budget is fully explained: only the scaling stage loses
        # anything on this corpus, exactly one snap per nudged label.
        expected_snaps = sum(
            CI_SHAPES[i % len(CI_SHAPES)][3] for i in range(CI_DESIGNS)
        )
        assert loss.losses == expected_snaps
        assert loss.stage_count("scaling", "approximated") == expected_snaps
        for stage, row in loss.matrix.items():
            if stage != "scaling":
                assert all(row[verb] == 0 for verb in LOSS_VERBS), stage
        # Exactly one dialect pair, and it owns every record.
        (pair, dialect_row), = loss.dialects.items()
        assert "->" in pair and sum(dialect_row.values()) == loss.total

    def test_matrix_matches_uninstrumented_issue_log(self, vl_libraries):
        """Parity: the audit trail counts what the diagnostics already say."""
        corpus = ci_corpus(vl_libraries)
        plan = build_sample_plan(source_libraries=vl_libraries)

        expected = {}
        for cell in corpus:
            result = Migrator(plan).migrate(cell)
            snaps = sum(
                1 for issue in result.log
                if issue.category is Category.SCALING
                and issue.severity is Severity.WARNING
            )
            if snaps:
                expected[result.schematic.name] = snaps

        recorder = LineageRecorder()
        with installed(ObsContext(lineage=recorder)):
            MigrationFarm(plan, jobs=1).run(corpus)
        records = recorder.records()

        observed = {}
        for record in records:
            if record["verb"] == "approximated":
                observed[record["design"]] = observed.get(record["design"], 0) + 1
        print(f"\nE17 parity: issue-log snaps {expected} == lineage {observed}")
        assert observed == expected and expected
