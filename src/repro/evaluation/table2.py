"""Reproduction of Table 2: migrating the four datasets to full databases.

For each dataset bundle (DBLP, IMDB, MONDIAL, YELP), the harness learns one
program per target table from the bundle's example document, packages them as
a :class:`~repro.runtime.plan.MigrationPlan`, executes it on a generated full
document into the in-memory backend, checks its key constraints, and reports
the Table 2 columns: #tables, #cols, total
and per-table synthesis time, total rows, total and per-table execution time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..datasets import all_datasets
from ..datasets.base import DatasetBundle
from ..migration.engine import MigrationEngine, MigrationError
from ..runtime.backends.memory import MemoryBackend
from ..runtime.executor import execute_plan
from ..runtime.plan import MigrationPlan


@dataclass
class DatasetReport:
    """One row of Table 2."""

    name: str
    fmt: str
    num_tables: int
    num_columns: int
    document_nodes: int
    synthesis_total_s: float
    synthesis_avg_s: float
    total_rows: int
    execution_total_s: float
    execution_avg_s: float
    tables_matching_ground_truth: int
    fk_violations: int
    error: str = ""

    def as_row(self) -> Dict[str, object]:
        return {
            "dataset": self.name,
            "format": self.fmt,
            "#tables": self.num_tables,
            "#cols": self.num_columns,
            "doc_nodes": self.document_nodes,
            "synth_total_s": round(self.synthesis_total_s, 2),
            "synth_avg_s": round(self.synthesis_avg_s, 2),
            "#rows": self.total_rows,
            "exec_total_s": round(self.execution_total_s, 2),
            "exec_avg_s": round(self.execution_avg_s, 2),
            "tables_ok": self.tables_matching_ground_truth,
            "fk_violations": self.fk_violations,
        }


@dataclass
class Table2Report:
    """The complete Table 2 reproduction."""

    datasets: List[DatasetReport]

    def render(self) -> str:
        header = (
            f"{'dataset':9} {'fmt':5} {'#tab':5} {'#col':5} {'nodes':8} {'synTot(s)':10} "
            f"{'synAvg(s)':10} {'#rows':8} {'exeTot(s)':10} {'exeAvg(s)':10} {'ok':4} {'fkV':4}"
        )
        lines = [header, "-" * len(header)]
        for report in self.datasets:
            row = report.as_row()
            lines.append(
                f"{row['dataset']:9} {row['format']:5} {row['#tables']:<5} {row['#cols']:<5} "
                f"{row['doc_nodes']:<8} {row['synth_total_s']:<10} {row['synth_avg_s']:<10} "
                f"{row['#rows']:<8} {row['exec_total_s']:<10} {row['exec_avg_s']:<10} "
                f"{row['tables_ok']:<4} {row['fk_violations']:<4}"
            )
            if report.error:
                lines.append(f"    error: {report.error}")
        return "\n".join(lines)


def run_dataset(bundle: DatasetBundle, *, scale: int) -> DatasetReport:
    """Migrate one dataset bundle and compare against its ground truth."""
    spec = bundle.migration_spec()
    document = bundle.generate(scale)
    start = time.perf_counter()
    try:
        programs, _ = MigrationEngine().learn(spec)
    except MigrationError as error:
        return DatasetReport(
            name=bundle.name,
            fmt=bundle.format,
            num_tables=bundle.num_tables,
            num_columns=bundle.num_columns,
            document_nodes=document.size(),
            synthesis_total_s=0.0,
            synthesis_avg_s=0.0,
            total_rows=0,
            execution_total_s=0.0,
            execution_avg_s=0.0,
            tables_matching_ground_truth=0,
            fk_violations=0,
            error=str(error),
        )
    synthesis_time = time.perf_counter() - start
    plan = MigrationPlan.from_programs(spec.schema, programs)
    # The report counts FK violations instead of raising on the first one.
    report = execute_plan(plan, document, MemoryBackend(validate=False))
    expected = bundle.ground_truth(scale)
    matching = sum(
        1 for table, count in expected.items() if report.per_table_rows.get(table) == count
    )
    violations = report.backend.database.validate_foreign_keys()
    tables = max(1, bundle.num_tables)
    return DatasetReport(
        name=bundle.name,
        fmt=bundle.format,
        num_tables=bundle.num_tables,
        num_columns=bundle.num_columns,
        document_nodes=document.size(),
        synthesis_total_s=synthesis_time,
        synthesis_avg_s=synthesis_time / tables,
        total_rows=report.total_rows,
        execution_total_s=report.execution_time,
        execution_avg_s=report.execution_time / tables,
        tables_matching_ground_truth=matching,
        fk_violations=len(violations),
    )


def run_table2(
    *, scale: int = 10, datasets: Optional[Dict[str, DatasetBundle]] = None
) -> Table2Report:
    """Run the Table 2 experiment across all (or selected) datasets."""
    bundles = datasets if datasets is not None else all_datasets(scale)
    reports = [run_dataset(bundle, scale=scale) for bundle in bundles.values()]
    return Table2Report(datasets=reports)
