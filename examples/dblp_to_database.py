"""Migrate a (synthetic) DBLP document to a full relational database (Table 2 scenario).

Run with ``python examples/dblp_to_database.py``.
"""

import time

from repro.codegen import generate_sql_dump
from repro.datasets import dblp
from repro.migration import MigrationEngine
from repro.runtime import MemoryBackend, MigrationPlan, execute_plan

bundle = dblp.dataset(scale=5)
print(f"{bundle.name}: {bundle.num_tables} tables, {bundle.num_columns} columns")

spec = bundle.migration_spec()
start = time.perf_counter()
programs, _ = MigrationEngine().learn(spec)
synthesis_time = time.perf_counter() - start
plan = MigrationPlan.from_programs(spec.schema, programs)
report = execute_plan(plan, bundle.generate(5), MemoryBackend())
database = report.backend.database

print(f"synthesis: {synthesis_time:.1f}s  execution: {report.execution_time:.2f}s")
print("rows per table:")
for table, count in report.per_table_rows.items():
    print(f"  {table:22} {count}")
print("foreign-key violations:", len(database.validate_foreign_keys()))

sql = generate_sql_dump(database)
print("\nSQL dump preview:")
print("\n".join(sql.splitlines()[:12]))
