"""Self-test of the benchmark, on tiny inputs:

    python3 perfbench/selftest.py

- every workload prints every end-to-end metric of BENCHMARK.json with its
  unit (untraced) and every per-layer metric with its unit (traced), and
  its answers check out;
- the written spans nest (every child lies inside its parent, so no self
  time is negative), each task's top-level spans fit inside its measured
  time, and the time outside every span is a small share of the traced
  wall time;
- two traced runs at one seed, in separate processes, give identical work
  counters (every per-layer metric that is not a time);
- in a directory that holds only BENCHMARK.json and the benchmark's files,
  the command fails without printing a result;
- a task that raises is counted as failed and its time is left out; it
  makes the run incorrect unless the workload names it a known defect.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_UNITS = {"s", "ns"}
SEED = 3
UNATTRIBUTED_MAX = 0.1   # share of traced wall time outside every span


def run(spec, workload, trace, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    return res


def check_metrics(res, wanted, label):
    got = res["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        (label, sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (label, m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (label, m["name"])


def check_spans(path, label):
    """Spans nest, and each task's top-level spans fit in its time."""
    spans, task_s = [], {}
    for line in path.read_text().splitlines():
        f = line.split("\t")
        if f[0] == "span":
            spans.append((int(f[2]), int(f[3]), int(f[4]), int(f[5])))
        elif f[0] == "task":
            rec = dict(x.split("=", 1) for x in f[1:])
            task_s[int(rec["task"])] = float(rec["seconds"])
    assert spans and task_s, (label, "empty trace")
    children = defaultdict(int)
    root_ns = defaultdict(int)
    for start, end, parent, task in spans:
        assert start <= end, (label, "span ends before it starts")
        if parent < 0:
            root_ns[task] += end - start
            continue
        p_start, p_end, _, p_task = spans[parent]
        assert p_start <= start and end <= p_end and p_task == task, \
            (label, "span outside its parent")
        children[parent] += end - start
    assert all(children[i] <= e - s for i, (s, e, _, _) in enumerate(spans)), \
        (label, "children longer than their parent")
    for task, seconds in task_s.items():
        assert root_ns[task] / 1e9 <= seconds + 1e-6, \
            (label, f"task {task}: spans {root_ns[task]} ns, task {seconds} s")


class Raising:
    """A workload whose second input raises; `known` names it a known
    defect."""

    name = "raising"
    pool = [0, 1]

    def __init__(self, known):
        self.known = known

    def run(self, k):
        if k == 1:
            time.sleep(0.05)
            raise KeyError(k)
        return k

    def known_defect(self, k, exc):
        return "a known defect" if self.known and k == 1 else None

    def answer(self, k, raw):
        return bytes([raw])

    def check(self, k, raw, data):
        return []

    def shape(self, k, raw):
        return {}


def check_raising_task():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench   # pylint: disable=import-outside-toplevel
    for known in (False, True):
        out = bench.timed_run(Raising(known), 0)
        res = bench.result(out, {})
        assert out.attempted == 3 and out.raised == {1}, vars(out)
        assert (out.errors, out.known) == ((0, 1) if known else (1, 0))
        assert res["correct"] is known and res["failed"] == 1, res
        metrics, _ = bench.end_to_end(out, [1.0])
        assert metrics["wall_s"][0] < 0.02, ("raised task timed", metrics)
    print("ok  a raising task: failed 1 of 3 and not timed; correct false, "
          "or true when it is a known defect")


def main() -> int:
    check_raising_task()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        name = wl["name"]
        res = result_of(run(spec, name, 0))
        check_metrics(res, spec["end_to_end"], name)
        assert all(v["value"] > 0 for v in res["metrics"].values()), res
        first = result_of(run(spec, name, 1))
        check_metrics(first, spec["per_layer"], name + " traced")
        m = {k: v["value"] for k, v in first["metrics"].items()}
        assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s")), m
        assert 0 <= m["trace.unattributed_s"] \
            <= UNATTRIBUTED_MAX * m["trace.wall_s"], (name, "unattributed", m)
        check_spans(ROOT / ".bench_work" / f"trace-{name}-{SEED}.tsv", name)
        second = result_of(run(spec, name, 1))
        counters = [m["name"] for m in spec["per_layer"]
                    if m["unit"] not in TIME_UNITS]
        diff = [c for c in counters if first["metrics"][c]["value"]
                != second["metrics"][c]["value"]]
        assert not diff, (name, "counters differ between traced runs", diff)
        print(f"ok  {name}: metrics, units, answers, {len(counters)} "
              "counters repeat")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = run(spec, name, 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0 and not last.startswith("{"), proc.stdout
        print("ok  without the program's sources: exit code "
              f"{proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
