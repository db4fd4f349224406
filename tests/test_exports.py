"""Every public name the package exports is exercised by a test module: an
export either works end to end and is tested, or is removed."""

import inspect
import re
from pathlib import Path

import pgpfr

TESTS = Path(__file__).resolve().parent


def test_every_export_is_referenced_by_a_test_module():
    exports = sorted(name for name, obj in vars(pgpfr).items()
                     if not name.startswith("_") and not inspect.ismodule(obj))
    assert exports
    text = "\n".join(p.read_text() for p in sorted(TESTS.glob("test_*.py"))
                     if p.name != Path(__file__).name)
    unreferenced = [name for name in exports if not re.search(rf"\b{name}\b", text)]
    assert not unreferenced, f"exported but referenced by no test module: {unreferenced}"
