"""Loads the suite's hypothesis profile, and collects acceptance-criterion
outcomes to print one pass/fail line per criterion after the test run."""

from hypothesis import settings

# Exact arithmetic has no meaningful per-example deadline on a loaded host,
# and a failure should print the blob that reproduces it.  Tests that set
# their own max_examples keep it.
settings.register_profile("queeralg", deadline=None, print_blob=True)
settings.load_profile("queeralg")

_acceptance_results = {}


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
