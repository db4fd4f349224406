"""Every public name the package exports is exercised by a test module and
held to the error contract: an export either works end to end and is
tested, or is removed."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import pgpfr
from test_api_contract import CASES

TESTS = Path(__file__).resolve().parent


def exports() -> list[str]:
    return sorted(name for name, obj in vars(pgpfr).items()
                  if not name.startswith("_") and not inspect.ismodule(obj))


def test_every_export_is_referenced_by_a_test_module():
    names = exports()
    assert names
    text = "\n".join(p.read_text() for p in sorted(TESTS.glob("test_*.py"))
                     if p.name != Path(__file__).name)
    unreferenced = [name for name in names if not re.search(rf"\b{name}\b", text)]
    assert not unreferenced, f"exported but referenced by no test module: {unreferenced}"


def test_every_export_has_a_contract_case():
    names = set(exports())
    assert names == set(CASES), (
        f"exported without a case in test_api_contract.CASES: {sorted(names - set(CASES))}; "
        f"a case but not exported: {sorted(set(CASES) - names)}")


# module-level internals: importable from their modules, not exported, and
# without an error contract
@pytest.mark.parametrize("module, name", [
    ("classifier", "AdamState"), ("classifier", "IncrementalClassifier"),
    ("classifier", "adam_step"), ("classifier", "expand"), ("dataio", "TaskDataset"),
    ("dataio", "batches"), ("dataio", "split_schedule"), ("engine", "run_task0"),
    ("engine", "run_incremental_task"), ("extractor", "Extractor"),
    ("extractor", "train_task0"), ("losses", "LossValueGrad"), ("losses", "total_loss"),
    ("metrics", "accuracy"), ("metrics", "ifm"), ("numerics", "cosine_sim"),
    ("prototypes", "register"), ("replay", "merge"),
])
def test_internal_is_importable_from_its_module_only(module, name):
    assert callable(getattr(importlib.import_module(f"pgpfr.{module}"), name))
    assert name not in exports()
