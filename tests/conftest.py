"""Loads the suite's hypothesis profile, and collects acceptance-criterion
outcomes to print one pass/fail line per criterion after the test run."""

import importlib
import pkgutil

import pytest
from hypothesis import settings

import queeralg

# Exact arithmetic has no meaningful per-example deadline on a loaded host,
# and a failure should print the blob that reproduces it.  Tests that set
# their own max_examples keep it.
settings.register_profile("queeralg", deadline=None, print_blob=True)
settings.load_profile("queeralg")

_acceptance_results = {}


@pytest.fixture
def refuse_zero_rows(monkeypatch):
    """The work guard of the entry form: every queeralg module that binds
    graded.zero_rows gets a version that raises, so no dense zero matrix
    is filled."""
    def refuse(*args):
        raise AssertionError("a dense zero matrix was filled")
    patched = []
    for info in pkgutil.iter_modules(queeralg.__path__):
        mod = importlib.import_module(f"queeralg.{info.name}")
        if "zero_rows" in vars(mod):
            monkeypatch.setattr(mod, "zero_rows", refuse)
            patched.append(info.name)
    assert "graded" in patched


@pytest.fixture
def refuse_oracles(monkeypatch):
    """The work guard of the certificates: every binding of the
    span-closure density oracle (density_type_from_maps and
    operator_closure_dim) and of the odd-supercommutant solve
    (graded.odd_schur), in the package and each of its modules, gets a
    version that raises."""
    names = ("density_type_from_maps", "operator_closure_dim", "odd_schur")

    def refuse(*args, **kwargs):
        raise AssertionError("a density oracle or odd Schur solve ran")
    patched = set()
    for mod in [queeralg] + [importlib.import_module(f"queeralg.{info.name}")
                             for info in pkgutil.iter_modules(
                                 queeralg.__path__)]:
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, refuse)
                patched.add(name)
    assert patched == set(names)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if name.startswith("test_criterion_"):
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results,
                       key=lambda s: int(s.split("_")[2])):
        num = name.split("_")[2]
        label = " ".join(name.split("_")[3:])
        status = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num} [{status}]: {label}")
