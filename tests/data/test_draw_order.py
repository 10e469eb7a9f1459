"""Draw-order contract of the batched columnar generator.

``DatasetGenerator.generate`` fills each column with a single batched
pass (:meth:`_column_values`); ``_value_for`` is the per-value
reference path it replaced.  Both must consume each column's named RNG
stream in the same per-row draw sequence — null draw first, then the
ordinal draw, then the kind draw — so the batched rewrite cannot have
changed a single generated value.  These tests pin that contract: a
reordered or hoisted draw in the batched loops shows up as a value
mismatch against the reference path.
"""

import pytest

from repro.data.generator import DatasetGenerator
from repro.data.schema import (
    Column,
    ColumnKind,
    TableSchema,
    warehouse_dim_schema,
    warehouse_fact_schema,
)
from repro.sim.rng import RngStreams

#: One column per kind, with nulls, skew, and bounded domains in the
#: mix so every branch of the batched loops is exercised.
ALL_KINDS_SCHEMA = TableSchema(
    "draworder",
    [
        Column("ident", ColumnKind.INT64),  # row-index identity
        Column("bucket", ColumnKind.INT64, distinct_values=20),
        Column("hot", ColumnKind.INT64, distinct_values=50, zipf_skew=0.9),
        Column("spend", ColumnKind.DOUBLE, null_fraction=0.1),
        Column("ratio", ColumnKind.DOUBLE, distinct_values=8),
        Column("flag", ColumnKind.BOOL, null_fraction=0.05),
        Column("at", ColumnKind.TIMESTAMP),
        Column("region", ColumnKind.STRING, distinct_values=16, zipf_skew=0.6),
        Column("note", ColumnKind.STRING, null_fraction=0.2, avg_string_len=12),
    ],
)


def reference_rows(schema, seed, num_rows):
    """Row-major generation through the reference `_value_for` path."""
    gen = DatasetGenerator(schema, seed=seed)
    columns = {col.name: [] for col in schema.columns}
    # Row-major iteration order: per-column streams make this produce
    # the same per-column draw sequence as a column-major pass.
    for row_index in range(num_rows):
        for col in schema.columns:
            columns[col.name].append(gen._value_for(col, row_index))
    return columns


@pytest.mark.parametrize(
    "schema",
    [ALL_KINDS_SCHEMA, warehouse_fact_schema(), warehouse_dim_schema()],
    ids=lambda s: s.name,
)
def test_batched_generate_matches_reference_path(schema):
    batched = DatasetGenerator(schema, seed=33).generate(400).columns
    assert batched == reference_rows(schema, 33, 400)


def test_row_major_equals_column_major_reference():
    """The contract that makes the batched rewrite safe at all: each
    column owns its stream, so interleaving columns (row-major) and
    finishing one column at a time (column-major) consume every stream
    identically."""
    gen = DatasetGenerator(ALL_KINDS_SCHEMA, seed=9)
    column_major = {
        col.name: [gen._value_for(col, i) for i in range(200)]
        for col in ALL_KINDS_SCHEMA.columns
    }
    assert column_major == reference_rows(ALL_KINDS_SCHEMA, 9, 200)


def test_string_streams_are_name_derived_not_order_derived():
    """Per-ordinal string spawns depend only on (column, ordinal): the
    same ordinal yields the same string no matter how many draws
    happened before it."""
    schema = TableSchema(
        "s", [Column("region", ColumnKind.STRING, distinct_values=4)]
    )
    a = DatasetGenerator(schema, seed=3)._string_value(
        schema.column("region"), 2
    )
    gen = DatasetGenerator(schema, seed=3)
    gen.generate(100)  # burn plenty of draws first
    assert gen._string_value(schema.column("region"), 2) == a


@pytest.mark.parametrize(
    "schema", [ALL_KINDS_SCHEMA, warehouse_dim_schema()], ids=lambda s: s.name
)
def test_memoized_strings_equal_fresh_builds(schema):
    """A generator builds each (column, ordinal) string once and reuses
    it; every value equals the string the reference ``_value_for`` path
    builds from scratch on a fresh generator."""
    batched = DatasetGenerator(schema, seed=41).generate(400).columns
    fresh = DatasetGenerator(schema, seed=41)
    for col in schema.columns:
        if col.kind != ColumnKind.STRING:
            continue
        for row_index in range(400):
            fresh._strings.clear()  # nothing memoized: build every string
            assert batched[col.name][row_index] == fresh._value_for(col, row_index)


def test_one_string_stream_per_distinct_ordinal(monkeypatch):
    spawned = []
    spawn = RngStreams.spawn

    def counting_spawn(self, name):
        spawned.append(name)
        return spawn(self, name)

    monkeypatch.setattr(RngStreams, "spawn", counting_spawn)
    columns = DatasetGenerator(ALL_KINDS_SCHEMA, seed=41).generate(400).columns
    strings = [name for name in spawned if name.startswith("strings:")]
    region = [name for name in strings if name.startswith("strings:region:")]
    notes = [value for value in columns["note"] if value is not None]
    # 400 region rows over 16 ordinals: one stream per distinct ordinal.
    assert len(region) == len(set(columns["region"])) <= 16
    # The unbounded note column has one ordinal per row.
    assert len(strings) == len(set(strings)) == len(region) + len(notes)
