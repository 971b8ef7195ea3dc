"""README.md names only what the package has: every backticked
`module.name` or `Class.attr` resolves, and so does every backticked
call `name(...)`."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import queeralg
from queeralg.coeffalg import preset_base_field
from queeralg.mapsuper import tensor_lie
from queeralg.queer import build_q
from queeralg.scalars import Tower

README = Path(__file__).resolve().parent.parent / "README.md"
# dotted names in the prose about a variable, not about the package
PROSE = {"m.algebra"}


@pytest.fixture(scope="module")
def package():
    """The package's modules by short name, its classes by name, and a
    built instance of each class whose README attributes are set on
    instances (QueerData.units, MapSuper.gen_root, ...)."""
    modules = {info.name: importlib.import_module(f"queeralg.{info.name}")
               for info in pkgutil.iter_modules(queeralg.__path__)}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    K = Tower()
    qd = build_q(K, 2)
    instances = {"QueerData": qd,
                 "MapSuper": tensor_lie(qd, preset_base_field(K))}
    return modules, classes, instances


def _text():
    return README.read_text(encoding="utf-8")


def test_readme_dotted_names_resolve(package):
    modules, classes, instances = package
    refs = [m.group(1, 2) for m in
            re.finditer(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)[^`]*`", _text())
            if f"{m[1]}.{m[2]}" not in PROSE]
    assert len(refs) >= 40
    missing = []
    for head, attr in refs:
        owners = [modules.get(head), classes.get(head), instances.get(head)]
        if not any(o is not None and hasattr(o, attr) for o in owners):
            missing.append(f"{head}.{attr}")
    assert missing == []


def test_readme_calls_resolve(package):
    """A backticked call names a module-level function or class, or an
    attribute of a class of the package."""
    modules, classes, _ = package
    names = {name for mod in modules.values() for name in vars(mod)}
    names |= {name for cls in classes.values() for name in dir(cls)}
    calls = re.findall(r"`([A-Za-z_]\w*)\(", _text())
    assert calls
    assert sorted({c for c in calls if c not in names}) == []
