"""The benchmark's workloads (perfbench/workloads.py) on their tiny pools.

cartan-corpus calls library functions by name (`build_H`,
`HModule.as_lie_module`, `density_type_from_maps`, `is_isomorphic_flat`
and `GradedMap.rows`), not only the CLI, so a change to any of them
fails here, and not only in benchmark runs.  Each task's answer must pass
the workload's own check."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _workloads_module().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pool_answers_pass_their_checks(name, tmp_path):
    wl = WORKLOADS[name](3, tmp_path, tiny=True)
    assert wl.pool
    for k in range(len(wl.pool)):
        raw = wl.run(k)
        data = wl.answer(k, raw)
        assert wl.check(k, raw, data) == [], (name, k)
