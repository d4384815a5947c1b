"""Record types: every dataclass of the package is slotted."""

import dataclasses
import importlib
import pkgutil

import pytest

import baselcost

RECORDS = {
    f"{name}.{cls.__name__}": cls
    for name in sorted(m.name for m in pkgutil.iter_modules(baselcost.__path__))
    for cls in vars(importlib.import_module(f"baselcost.{name}")).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    and cls.__module__ == f"baselcost.{name}"
}


def test_record_types_are_found():
    assert "model.ScenarioResult" in RECORDS and len(RECORDS) >= 16


@pytest.mark.parametrize("name", RECORDS)
def test_record_has_no_instance_dict(name):
    assert RECORDS[name].__dictoffset__ == 0
