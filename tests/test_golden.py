"""Byte-identity of suite records against fixtures written by an earlier commit."""

import importlib.util
import warnings
from pathlib import Path

import pytest

from hvnet.harness import run_suite
from hvnet.records import records_to_jsonl

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "data" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("name", sorted(make_golden.GOLDEN_CONFIGS))
def test_records_match_golden_fixture(name):
    expected = make_golden.fixture_path(name).read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_suite(make_golden.GOLDEN_CONFIGS[name])
    assert records_to_jsonl(records) == expected
