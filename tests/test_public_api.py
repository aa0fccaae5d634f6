"""Guard rails on the public API surface and error hierarchy."""

import importlib

import pytest

import repro
from repro.errors import (
    BenchmarkError,
    CatalogError,
    CsvFormatError,
    DataError,
    DiscoveryError,
    ReproError,
    SchemaError,
    SpoolError,
    SqlError,
    SqlExecutionError,
    SqlLexError,
    SqlParseError,
    SqlPlanError,
    ValidatorError,
)

PUBLIC_MODULES = [
    "repro",
    "repro.bench",
    "repro.core",
    "repro.datagen",
    "repro.db",
    "repro.discovery",
    "repro.sql",
    "repro.storage",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_exports_are_usable():
    db = repro.Database("api")
    table = db.create_table(
        repro.TableSchema(
            "t",
            [repro.Column("a", repro.DataType.INTEGER)],
        )
    )
    table.insert({"a": 1})
    result = repro.discover_inds(db, repro.DiscoveryConfig())
    assert result.satisfied_count == 0  # one attribute, no candidates


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            BenchmarkError, CatalogError, CsvFormatError, DataError,
            DiscoveryError, SchemaError, SpoolError, SqlError,
            SqlExecutionError, SqlLexError, SqlParseError, SqlPlanError,
            ValidatorError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    @pytest.mark.parametrize(
        "exc", [SqlLexError, SqlParseError, SqlPlanError, SqlExecutionError]
    )
    def test_sql_errors_share_base(self, exc):
        assert issubclass(exc, SqlError)

    def test_one_catch_all(self):
        with pytest.raises(ReproError):
            repro.Database("")


def test_ind_str_is_stable():
    """The '[=' rendering is part of the public output format (CLI, docs)."""
    ind = repro.IND(
        repro.AttributeRef("child", "pid"), repro.AttributeRef("parent", "id")
    )
    assert str(ind) == "child.pid [= parent.id"


class TestKnobRatchet:
    """Pinned knob counts: adding a config field or a ``discover`` option
    must come with a deliberate edit here (and a bench row that earns it).
    """

    def test_discovery_config_field_count(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.DiscoveryConfig)]
        assert len(fields) == 26, fields

    def test_discover_option_count(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        commands = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = [
            action.option_strings[0]
            for action in commands.choices["discover"]._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)
        ]
        assert len(options) == 17, options


class TestRemovedPipelineKnobs:
    """Export and the sampling pretest run in-process only; nothing else
    schedules the pipeline, so the knobs that chose another way are gone.
    """

    @pytest.mark.parametrize(
        "name", ("parallel_export", "parallel_pretest", "overlap")
    )
    def test_config_rejects_removed_field(self, name):
        with pytest.raises(TypeError, match=name):
            repro.DiscoveryConfig(**{name: True})

    def test_parallel_package_has_no_graph_scheduler(self):
        import repro.parallel

        removed = {"GraphNode", "GraphResult", "OverlapRun", "run_overlapped"}
        assert not removed & set(repro.parallel.__all__)
        for name in removed:
            assert not hasattr(repro.parallel, name), name
