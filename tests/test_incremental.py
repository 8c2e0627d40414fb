"""The one learn path: spec diffing, the spec store, and byte-identity.

The load-bearing property: a learn through the spec store (reused programs +
re-synthesis of the affected tables) must produce a plan **byte-identical**
to a cold learn of the same edited spec — same programs, same θ-cost, same
key rules.  The tests drive every single-edit class the diff layer
recognizes (add/remove/rename table, add/remove column, key-rule change)
plus randomized single edits, in both serial and ``--jobs`` mode, and the
store through the CLI.
"""

import json
import os
import random

import pytest

from repro.datasets import dblp, imdb, yelp
from repro.dsl.serialize import schema_to_json
from repro.hdt import hdt_to_xml
from repro.migration.engine import MigrationSpec, TableExampleSpec
from repro.relational.schema import DatabaseSchema, ForeignKey, TableSchema
from repro.runtime import (
    ContextStore,
    MigrationPlan,
    diff_specs,
    learn_incremental,
    reusable_plans,
)
from repro.runtime.cli import main as cli_main
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.synthesizer import Synthesizer

CONFIG = SynthesisConfig.for_migration()


# --------------------------------------------------------------------------- #
# Spec-editing helpers
# --------------------------------------------------------------------------- #


def _copy_table(table, *, name=None, drop=None, retarget=None):
    retarget = retarget or {}
    columns = [c for c in table.columns if c.name != drop]
    return TableSchema(
        name=name if name is not None else table.name,
        columns=columns,
        primary_key=table.primary_key,
        foreign_keys=[
            ForeignKey(fk.column, retarget.get(fk.target_table, fk.target_table), fk.target_column)
            for fk in table.foreign_keys
        ],
        natural_keys=table.natural_keys,
    )


def _rebuild(spec, tables, examples):
    return MigrationSpec(
        schema=DatabaseSchema(name=spec.schema.name, tables=tables),
        example_tree=spec.example_tree,
        table_examples=[
            TableExampleSpec(table=t.name, rows=[tuple(r) for r in examples[t.name]])
            for t in tables
        ],
    )


def _examples_of(spec):
    return {e.table: [tuple(r) for r in e.rows] for e in spec.table_examples}


def drop_table(spec, victim):
    tables = [_copy_table(t) for t in spec.schema.tables if t.name != victim]
    return _rebuild(spec, tables, _examples_of(spec))


def rename_table(spec, old, new):
    retarget = {old: new}
    tables = [
        _copy_table(t, name=new if t.name == old else t.name, retarget=retarget)
        for t in spec.schema.tables
    ]
    examples = _examples_of(spec)
    examples[new] = examples.pop(old)
    return _rebuild(spec, tables, examples)


def drop_column(spec, table_name, column):
    examples = _examples_of(spec)
    tables = []
    for t in spec.schema.tables:
        if t.name != table_name:
            tables.append(_copy_table(t))
            continue
        index = t.column_names.index(column)
        tables.append(_copy_table(t, drop=column))
        examples[table_name] = [
            tuple(v for i, v in enumerate(row) if i != index)
            for row in examples[table_name]
        ]
    return _rebuild(spec, tables, examples)


def removable_tables(spec):
    """Tables no foreign key points at — safe to drop from the schema."""
    referenced = {fk.target_table for t in spec.schema.tables for fk in t.foreign_keys}
    return [t.name for t in spec.schema.topological_order() if t.name not in referenced]


def droppable_columns(spec):
    """(table, column) pairs whose removal keeps the schema valid."""
    referenced = {
        (fk.target_table, fk.target_column)
        for t in spec.schema.tables
        for fk in t.foreign_keys
    }
    pairs = []
    for t in spec.schema.tables:
        fk_columns = {fk.column for fk in t.foreign_keys}
        data = t.data_columns()
        if len(data) < 2:
            continue
        for c in data:
            if c == t.primary_key or c in fk_columns:
                continue
            if (t.name, c) in referenced:
                continue
            pairs.append((t.name, c))
    return pairs


def plan_body(plan):
    """The plan minus provenance metadata — the byte-identity comparand."""
    payload = {k: v for k, v in plan.to_json().items() if k not in ("metadata",)}
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def full_spec():
    return dblp.dataset().migration_spec()


@pytest.fixture(scope="module")
def cold_plan(full_spec):
    return MigrationPlan.learn(full_spec, engine=None, jobs=1)


# --------------------------------------------------------------------------- #
# The diff layer
# --------------------------------------------------------------------------- #


def test_diff_identical_spec(full_spec):
    diff = diff_specs(full_spec.schema, _examples_of(full_spec), full_spec)
    assert diff.identical()
    assert diff.reusable_programs == full_spec.schema.num_tables
    assert not diff.removed and not diff.added and not diff.changed


def test_diff_added_and_removed_table(full_spec):
    victim = removable_tables(full_spec)[-1]
    base = drop_table(full_spec, victim)
    # base → full: the victim is new.
    diff = diff_specs(base.schema, _examples_of(base), full_spec)
    assert diff.added == [victim]
    assert diff.tables[victim].reuse_program is False
    others = [n for n in diff.tables if n != victim]
    assert all(diff.tables[n].status == "unchanged" for n in others)
    assert all(diff.tables[n].reuse_keys for n in others)
    # full → base: the victim is gone.
    diff = diff_specs(full_spec.schema, _examples_of(full_spec), base)
    assert diff.removed == [victim]
    assert diff.identical() is False
    assert diff.reusable_programs == len(base.schema.tables)


def test_diff_renamed_table_keeps_referrers_unchanged(full_spec):
    referenced = sorted(
        {fk.target_table for t in full_spec.schema.tables for fk in t.foreign_keys}
    )
    old = referenced[0]
    renamed = rename_table(full_spec, old, f"{old}_v2")
    diff = diff_specs(full_spec.schema, _examples_of(full_spec), renamed)
    assert diff.renamed == {f"{old}_v2": old}
    referrers = [
        t.name
        for t in renamed.schema.tables
        if any(fk.target_table == f"{old}_v2" for fk in t.foreign_keys)
    ]
    assert referrers
    for name in referrers:
        assert diff.tables[name].status == "unchanged"
        assert diff.tables[name].reuse_keys
    assert diff.reusable_programs == full_spec.schema.num_tables


def test_diff_column_edit_reuses_other_programs_but_not_target_keys(full_spec):
    table, column = droppable_columns(full_spec)[0]
    base = drop_column(full_spec, table, column)
    diff = diff_specs(base.schema, _examples_of(base), full_spec)
    change = diff.tables[table]
    assert change.status == "changed"
    assert change.reuse_program is False  # the synthesis task itself changed
    referrers = [
        t.name
        for t in full_spec.schema.tables
        if any(fk.target_table == table for fk in t.foreign_keys)
    ]
    for name in referrers:
        assert diff.tables[name].reuse_program
        assert not diff.tables[name].reuse_keys  # target's program changed
    untouched = set(diff.tables) - {table} - set(referrers)
    assert all(diff.tables[n].reuse_keys for n in untouched)


def test_diff_ambiguous_rename_degrades_to_added():
    tree = dblp.dataset().migration_spec().example_tree
    twins = [
        TableSchema(
            name=name,
            columns=[c for c in dblp.dataset().migration_spec().schema.tables[0].columns],
            primary_key=dblp.dataset().migration_spec().schema.tables[0].primary_key,
            natural_keys=dblp.dataset().migration_spec().schema.tables[0].natural_keys,
        )
        for name in ("twin_a", "twin_b")
    ]
    rows = [("x",)] if len(twins[0].data_columns()) == 1 else [
        tuple("x" for _ in twins[0].data_columns())
    ]
    old = MigrationSpec(
        schema=DatabaseSchema(name="twins", tables=twins),
        example_tree=tree,
        table_examples=[TableExampleSpec(t.name, [tuple(rows[0])]) for t in twins],
    )
    renamed = [_copy_table(t, name=t.name + "_x") for t in twins]
    new = MigrationSpec(
        schema=DatabaseSchema(name="twins", tables=renamed),
        example_tree=tree,
        table_examples=[TableExampleSpec(t.name, [tuple(rows[0])]) for t in renamed],
    )
    diff = diff_specs(old.schema, _examples_of(old), new)
    # Both candidates match both spares: no unique witness, so no rename.
    assert sorted(diff.added) == ["twin_a_x", "twin_b_x"]
    assert sorted(diff.removed) == ["twin_a", "twin_b"]


def test_reusable_plans_rewrites_renamed_fk_targets(full_spec, cold_plan):
    referenced = sorted(
        {fk.target_table for t in full_spec.schema.tables for fk in t.foreign_keys}
    )
    old = referenced[0]
    renamed = rename_table(full_spec, old, f"{old}_v2")
    diff = diff_specs(full_spec.schema, _examples_of(full_spec), renamed)
    reuse, reuse_keys = reusable_plans(diff, cold_plan, renamed.schema)
    assert set(reuse) == set(renamed.schema.table_names)
    assert reuse_keys == set(renamed.schema.table_names)
    for name, table_plan in reuse.items():
        for rule in table_plan.foreign_key_rules:
            assert rule.target_table in renamed.schema.table_names


# --------------------------------------------------------------------------- #
# The spec store
# --------------------------------------------------------------------------- #


def test_store_treats_corruption_as_miss(tmp_path, full_spec):
    store = ContextStore(str(tmp_path))
    learn_incremental(full_spec, store, config=CONFIG)
    # Corrupt snapshots read as misses.
    snapshot_path = store.snapshot_path(full_spec, CONFIG)
    with open(snapshot_path, "w", encoding="utf-8") as handle:
        handle.write("]")
    assert store.snapshots_for(full_spec.example_tree, CONFIG) == []


def test_best_base_prefers_max_reuse(tmp_path, full_spec):
    store = ContextStore(str(tmp_path))
    victims = removable_tables(full_spec)
    small = drop_table(drop_table(full_spec, victims[-1]), victims[-2])
    large = drop_table(full_spec, victims[-1])
    learn_incremental(small, store, config=CONFIG)
    learn_incremental(large, store, config=CONFIG)
    snapshot, diff = store.best_base(full_spec, CONFIG)
    assert len(snapshot.plan.tables) == len(large.schema.tables)
    assert diff.reusable_programs == len(large.schema.tables)


def test_snapshots_are_config_keyed(tmp_path, full_spec):
    """Programs learned under other search bounds are never reuse candidates:
    a config switch must trigger a full re-learn, byte-identical to a cold
    learn under the new config."""
    from dataclasses import replace

    store = ContextStore(str(tmp_path))
    learn_incremental(full_spec, store, config=CONFIG)
    tight = replace(CONFIG, max_column_program_length=2, max_column_programs=4)
    assert store.best_base(full_spec, tight) is None
    plan, report = learn_incremental(full_spec, store, config=tight)
    assert report.tables_reused == []
    assert len(report.tables_synthesized) == full_spec.schema.num_tables
    from repro.migration.engine import MigrationEngine

    programs, _ = MigrationEngine(tight).learn(full_spec)
    cold = MigrationPlan.from_programs(full_spec.schema, programs)
    assert plan_body(plan) == plan_body(cold)
    # Both snapshots coexist; the original config still gets its exact hit.
    plan, report = learn_incremental(full_spec, store, config=CONFIG)
    assert report.tables_synthesized == []


# --------------------------------------------------------------------------- #
# Byte-identity of incremental vs cold learning
# --------------------------------------------------------------------------- #


def test_cold_incremental_matches_plain_learn(tmp_path, full_spec, cold_plan):
    store = ContextStore(str(tmp_path))
    plan, report = learn_incremental(full_spec, store, config=CONFIG)
    assert plan_body(plan) == plan_body(cold_plan)
    assert report.cold


def test_exact_relearn_reuses_everything(tmp_path, full_spec, cold_plan):
    store = ContextStore(str(tmp_path))
    learn_incremental(full_spec, store, config=CONFIG)
    plan, report = learn_incremental(full_spec, store, config=CONFIG)
    assert report.tables_synthesized == []
    assert report.diff is not None and report.diff.identical()
    assert plan_body(plan) == plan_body(cold_plan)


def test_add_one_table_synthesizes_only_that_table(tmp_path, full_spec, cold_plan):
    victim = removable_tables(full_spec)[-1]
    store = ContextStore(str(tmp_path))
    learn_incremental(drop_table(full_spec, victim), store, config=CONFIG)
    plan, report = learn_incremental(full_spec, store, config=CONFIG)
    assert report.tables_synthesized == [victim]
    assert plan_body(plan) == plan_body(cold_plan)


def test_add_one_column_synthesizes_only_that_table(tmp_path, full_spec, cold_plan):
    table, column = droppable_columns(full_spec)[0]
    store = ContextStore(str(tmp_path))
    learn_incremental(drop_column(full_spec, table, column), store, config=CONFIG)
    plan, report = learn_incremental(full_spec, store, config=CONFIG)
    assert report.tables_synthesized == [table]
    assert plan_body(plan) == plan_body(cold_plan)


def test_rename_table_synthesizes_nothing(tmp_path, full_spec):
    referenced = sorted(
        {fk.target_table for t in full_spec.schema.tables for fk in t.foreign_keys}
    )
    renamed_spec = rename_table(full_spec, referenced[0], f"{referenced[0]}_v2")
    store = ContextStore(str(tmp_path))
    learn_incremental(full_spec, store, config=CONFIG)
    plan, report = learn_incremental(renamed_spec, store, config=CONFIG)
    assert report.tables_synthesized == []
    cold = MigrationPlan.learn(renamed_spec)
    assert plan_body(plan) == plan_body(cold)


def test_incremental_with_jobs_seeds_workers(tmp_path, full_spec, cold_plan):
    victim = removable_tables(full_spec)[-1]
    table, column = droppable_columns(full_spec)[0]
    base = drop_column(drop_table(full_spec, victim), table, column)
    store = ContextStore(str(tmp_path))
    learn_incremental(base, store, config=CONFIG)
    plan, report = learn_incremental(full_spec, store, config=CONFIG, jobs=2)
    assert sorted(report.tables_synthesized) == sorted([victim, table])
    assert plan_body(plan) == plan_body(cold_plan)


def test_property_random_single_edits_are_byte_identical(tmp_path, full_spec):
    """Every random single edit: incremental == cold, bit for bit."""
    rnd = random.Random(20260727)
    store = ContextStore(str(tmp_path))
    learn_incremental(full_spec, store, config=CONFIG)
    for trial in range(5):
        kind = rnd.choice(["drop_table", "drop_column", "rename"])
        if kind == "drop_table":
            victim = rnd.choice(removable_tables(full_spec))
            edited = drop_table(full_spec, victim)
        elif kind == "drop_column":
            table, column = rnd.choice(droppable_columns(full_spec))
            edited = drop_column(full_spec, table, column)
        else:
            name = rnd.choice(full_spec.schema.table_names)
            edited = rename_table(full_spec, name, f"{name}_r{trial}")
        plan, report = learn_incremental(edited, store, config=CONFIG)
        cold = MigrationPlan.learn(edited)
        assert plan_body(plan) == plan_body(cold), (kind, report.tables_synthesized)


@pytest.mark.parametrize("module", [imdb, yelp], ids=["imdb", "yelp"])
def test_drop_table_and_drop_column_are_byte_identical_beyond_dblp(tmp_path, module):
    """One drop-table and one drop-column edit per other Table 2 spec:
    learned through the store primed with the full spec, each plan equals a
    cold learn of the edited spec."""
    spec = module.dataset().migration_spec()
    rnd = random.Random(20260727)
    store = ContextStore(str(tmp_path))
    learn_incremental(spec, store, config=CONFIG)
    edits = [
        drop_table(spec, rnd.choice(removable_tables(spec))),
        drop_column(spec, *rnd.choice(droppable_columns(spec))),
    ]
    for edited in edits:
        plan, report = learn_incremental(edited, store, config=CONFIG)
        assert not report.cold
        assert plan_body(plan) == plan_body(MigrationPlan.learn(edited)), report.tables_synthesized


# --------------------------------------------------------------------------- #
# The store through the CLI
# --------------------------------------------------------------------------- #


def _write_spec(tmp_path, spec, name):
    """``spec`` as an explicit-mode spec file whose store is ``tmp_path/cache``."""
    (tmp_path / "example.xml").write_text(hdt_to_xml(spec.example_tree))
    payload = {
        "format": "xml",
        "schema": schema_to_json(spec.schema),
        "example_document": "example.xml",
        "examples": {e.table: [list(row) for row in e.rows] for e in spec.table_examples},
        "cache_dir": str(tmp_path / "cache"),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _saved_body(path):
    plan = MigrationPlan.load(str(path))
    assert plan.source_format == "xml"
    plan.source_format = None
    return plan_body(plan)


def _files_under(directory):
    return sorted(
        os.path.join(root, name) for root, _, names in os.walk(directory) for name in names
    )


def test_cli_learns_through_the_one_spec_store(tmp_path, capsys, monkeypatch, full_spec, cold_plan):
    victim = removable_tables(full_spec)[-1]
    full = _write_spec(tmp_path, full_spec, "full")
    edited = _write_spec(tmp_path, drop_table(full_spec, victim), "edited")
    synthesized = []
    synthesize = Synthesizer.synthesize

    def spy(self, task):
        synthesized.append(task.name)
        return synthesize(self, task)

    monkeypatch.setattr(Synthesizer, "synthesize", spy)

    # 1. A cold learn synthesizes every table.
    assert cli_main(["learn", "--spec", full, "--plan-out", str(tmp_path / "cold.json")]) == 0
    assert len(synthesized) == 9
    assert "learned: 9/9 tables synthesized, 0/9 reused" in capsys.readouterr().out
    assert _saved_body(tmp_path / "cold.json") == plan_body(cold_plan)
    stored = _files_under(tmp_path / "cache")
    assert len(stored) == 1 and stored[0].endswith(".spec.json")

    # 2. The same spec again: an exact hit, no synthesis at all.
    def no_synthesis(self, task):  # pragma: no cover - failure path
        raise AssertionError("an exact hit must not synthesize")

    monkeypatch.setattr(Synthesizer, "synthesize", no_synthesis)
    assert cli_main(["learn", "--spec", full]) == 0
    assert "plan: cache hit: 9/9 tables reused" in capsys.readouterr().out
    monkeypatch.setattr(Synthesizer, "synthesize", spy)

    # 3. The spec minus one table, then the full spec, into a fresh store:
    # only that table is synthesized (--verbose shows its diagnostics alone),
    # and the plan is the cold one.
    fresh = str(tmp_path / "fresh")
    assert cli_main(["learn", "--spec", edited, "--cache-dir", fresh]) == 0
    synthesized.clear()
    capsys.readouterr()
    warm = str(tmp_path / "warm.json")
    assert cli_main(["learn", "--spec", full, "--cache-dir", fresh, "--plan-out", warm, "--verbose"]) == 0
    assert synthesized == [f"table:{victim}"]
    out = capsys.readouterr().out
    assert "learned: 1/9 tables synthesized, 8/9 reused" in out
    assert out.count("synthesis diagnostics for ") == 1 and f"diagnostics for {victim}:" in out
    assert _saved_body(warm) == plan_body(cold_plan)

    # 4. --no-cache learns cold and leaves no store behind.
    synthesized.clear()
    none = tmp_path / "none"
    assert cli_main(["learn", "--spec", full, "--no-cache", "--cache-dir", str(none)]) == 0
    assert len(synthesized) == 9
    assert "(cache disabled)" in capsys.readouterr().out
    assert not none.exists() and _files_under(tmp_path / "cache") == stored
