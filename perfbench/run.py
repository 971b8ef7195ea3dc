"""Benchmark of queeralg: time to an exact, checked answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a checkout, in this
process and on one thread, as a closed loop with one client: the next task
starts when the previous one has finished.  Every answer is checked, and
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics.  It runs tasks until at least
one full pass over the workload's input pool plus one repeated task are
done and S seconds have elapsed.  Shared hosts change speed by 10-20 %
within a minute, so every time it reports is normalised.  A fixed
reference loop that does not use queeralg is timed between tasks, around
each set-up probe and, from a timer, every TICK_S seconds during a task
(that time is taken out of the task's time).  Each measured time is then
scaled by REF_S over the median reference time around and during it.  The
measured times and the reference time are printed next to the metrics.

--trace 1 runs the first inputs of the pool (at most the workload's
TRACED) once untraced and once with every queeralg layer wrapped from
outside (tracer.py), and reports per-layer self times and work counters.
Its spans go to .bench_work/trace-<workload>-<seed>.tsv.

A task that raises is counted as failed and the run goes on; its time is
left out of the timed metrics.  It makes the run incorrect unless the
workload names it as a known, documented defect of the program (see
Workload.known_defect), which is reported as failed all the same.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from math import gcd
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
REF_S = 0.002     # nominal time of one reference loop (see reference_loop)
REF_REPEAT = 5    # reference loops per speed sample between tasks
TICK_S = 0.25     # interval of the speed samples taken during a task


def reference_loop():
    """Fixed integer work of the kind the program's Q(i) arithmetic does
    (products, remainders, gcds, small tuples).  It does not use queeralg,
    so no change to the program can move it."""
    a, b, d = 3, 5, 7
    for _ in range(4000):
        a, b, d = (a * 7 - b * 3) % 1000003 + 1, (a * 3 + b * 7) % 999983, \
            d * 3 % 10007 + 1
        gcd(gcd(a, b), d)


def speed_sample() -> float:
    """Median time of REF_REPEAT reference loops, right now."""
    times = []
    for _ in range(REF_REPEAT):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class TaskTicks:
    """While active, a SIGALRM timer runs one reference loop every TICK_S
    seconds in the main thread, between the program's bytecodes, and
    records how long it took and how long it paused the task."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.paused += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def load_program():
    """Put the checkout's sources on the path and import every layer."""
    src = ROOT / "src"
    if not (src / "queeralg" / "__init__.py").is_file():
        print(f"error: no queeralg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    for name in tracer.MODULES:
        __import__(f"queeralg.{name}")


def make_workload(name, seed, workdir: Path, tiny: bool):
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, tiny=tiny)


def setup_probe(args):
    """Child process for setup_s: import, write the inputs, report when the
    first task could start (CLOCK_MONOTONIC is shared by all processes)."""
    load_program()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        make_workload(args.workload, args.seed, workdir, args.tiny)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_PROBES):
        before = speed_sample()
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        raw = float(proc.stdout.strip().splitlines()[-1]) - t0
        out.append(raw * 2 * REF_S / (before + speed_sample()))
    return out


class Outcomes:
    """Task times and verdicts of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, bytes] = {}
        self.times: list[float] = []
        self.speed: list[float] = []   # speed samples between tasks
        self.ticks: list[list[float]] = []   # speed samples during each task
        self.shapes: list[dict] = []   # per correct task: wl.shape
        self.raised: set[int] = set()   # tasks that raised
        self.errors = self.known = self.wrong = self.nondet = 0

    def execute(self, k: int, i: int, sample_speed=False):
        """Task k, on input i of the pool."""
        ticks = TaskTicks()
        t0 = time.perf_counter()
        exc = None
        try:
            with ticks if sample_speed else contextlib.nullcontext():
                raw = self.wl.run(i)
        except Exception as e:   # a task that raises is counted; the run goes on
            raw, exc = None, e
        self.times.append(time.perf_counter() - t0 - ticks.paused)
        self.ticks.append(ticks.samples)
        if exc is not None:
            self.raised.add(len(self.times) - 1)
            err = traceback.format_exception_only(exc)[-1].strip()
            known = self.wl.known_defect(i, exc)
            if known:
                self.known += 1
                print(f"task {k}: raised {err}: known defect, {known}",
                      file=sys.stderr)
            else:
                self.errors += 1
                print(f"task {k}: raised {err}", file=sys.stderr)
        return raw

    def judge(self, k: int, i: int, raw):
        if raw is None:
            return
        data = self.wl.answer(i, raw)
        problems = self.wl.check(i, raw, data)
        if problems:
            self.wrong += 1
            print(f"task {k}: wrong answer: {'; '.join(problems)}",
                  file=sys.stderr)
            return
        self.shapes.append(self.wl.shape(i, raw))
        if self.first.setdefault(i, data) != data:
            self.nondet += 1
            print(f"task {k}: answer differs from the first run of input {i}",
                  file=sys.stderr)

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return self.errors + self.known + self.wrong + self.nondet

    @property
    def correct(self):
        """No wrong or changed answer and no raise but a known defect."""
        return self.errors + self.wrong + self.nondet == 0

    def normalized(self):
        """Task times at the nominal machine speed: each is scaled by REF_S
        over the median of the speed samples just before, during and just
        after it."""
        sp = self.speed
        return [t * REF_S / statistics.median([sp[k], sp[k + 1]]
                                              + self.ticks[k])
                for k, t in enumerate(self.times)]

    def completed(self, times):
        """The times of the tasks that did not raise."""
        return [t for k, t in enumerate(times) if k not in self.raised]

    def pass_times(self, times):
        """Per full pass over the pool, the time of its tasks that did not
        raise."""
        p = len(self.wl.pool)
        return [sum(t for k, t in enumerate(times[s:s + p], s)
                    if k not in self.raised)
                for s in range(0, len(times) - p + 1, p)]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(wl, seconds):
    out = Outcomes(wl)
    start = time.perf_counter()
    k = 0
    while k <= len(wl.pool) or time.perf_counter() - start < seconds:
        i = k % len(wl.pool)
        out.speed.append(speed_sample())
        out.judge(k, i, out.execute(k, i, sample_speed=True))
        k += 1
    out.speed.append(speed_sample())
    return out


def end_to_end(out, setup):
    times = out.normalized()
    # at least one task completes in every run that can be correct
    done = out.completed(times) or [0.0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(out.pass_times(times)), "s"),
        "task_p50_s": (statistics.median(done), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    # The tail is a metric only where at least ten samples lie beyond it,
    # which holds for cartan-corpus alone; every workload must print every
    # metric, so it is a note here.
    p90 = nearest_rank(done, 0.9)
    beyond = sum(1 for t in done if t > p90)
    raw_passes = out.pass_times(out.times)
    raw_p50 = statistics.median(out.completed(out.times) or [0.0])
    speed = statistics.median(out.speed + sum(out.ticks, []))
    notes = [f"tasks: {len(done)} timed of {len(times)} over a pool of "
             f"{len(out.wl.pool)} inputs ({len(raw_passes)} full passes)",
             f"task_p90_s: {p90:.6f} s with {beyond} samples beyond it",
             f"measured: wall_s {statistics.median(raw_passes):.4f} s, "
             f"task_p50_s {raw_p50:.4f} s; reference "
             f"loop {speed * 1e3:.4f} ms (nominal {REF_S * 1e3:g} ms)",
             f"setup probes: {len(setup)}",
             fail_note(out)]
    conclusive = [sh["conclusive"] for sh in out.shapes if "conclusive" in sh]
    if conclusive:
        notes.append(f"conclusive tables: {sum(conclusive)} of "
                     f"{len(conclusive)} correct tasks")
    return metrics, notes


def fail_note(out):
    return (f"fail_frac: {out.failed}/{out.attempted} (raised {out.errors}, "
            f"raised by a known defect {out.known}, wrong {out.wrong}, "
            f"nondeterministic {out.nondet})")


def traced_run(args, wl):
    """Inputs 0 .. pool-1 untraced, then the same inputs traced."""
    out = Outcomes(wl)
    pool = min(len(wl.pool), wl.TRACED or len(wl.pool))
    for i in range(pool):
        out.judge(i, i, out.execute(i, i))
    tr = tracer.Tracer()
    tr.install()
    raws = []
    try:
        for i in range(pool):
            tr.task = i
            raws.append(out.execute(pool + i, i))
    finally:
        tr.uninstall()
    tasks = []
    for i, raw in enumerate(raws):
        k = pool + i
        out.judge(k, i, raw)
        rec = {"task": i, "input": json.dumps(wl.pool[i], default=str),
               "seconds": round(out.times[k], 6),
               "scalars.tower_height.max": tr.task_height[i]}
        if raw is not None:
            rec.update(wl.shape(i, raw))
        tasks.append(rec)
    untraced = sum(out.times[:pool])
    traced = sum(out.times[pool:])
    metrics = layer_metrics(tr, untraced, traced)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-{args.seed}.tsv"
    tr.write(path, tasks)
    notes = [f"spans: {len(tr.sp_name)} written to {path.relative_to(ROOT)}"]
    notes += [f"task {t['task']}: " + ", ".join(
        f"{k}={v}" for k, v in t.items() if k not in ("task", "input"))
        for t in tasks]
    notes.append(fail_note(out))
    return out, metrics, notes


def layer_metrics(tr, untraced, traced):
    st = tr.self_times()
    c = tr.counters

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def group_self(prefix):
        return sum((v[1] for k, v in st.items()
                    if k.startswith(prefix + ".")), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    heights = [int(k[5:]) for k, v in c.items() if k.startswith("mul.h") and v]
    m = {
        "scalars.mul.h0": (c["mul.h0"], "count"),
        "scalars.mul.h1": (c["mul.h1"], "count"),
        "scalars.mul.h2plus": (sum(v for k, v in c.items()
                                   if k.startswith("mul.h")
                                   and int(k[5:]) >= 2), "count"),
        "scalars.addsub.calls": (c["addsub.calls"], "count"),
        "scalars.inv.calls": (c["inv.calls"], "count"),
        "scalars.adjoin_sqrt.extended": (c["adjoin_sqrt.extended"], "count"),
        "scalars.tower_height.max": (max(heights, default=0), "level"),
        "scalars.coeff_bits.max": (max(c["num_bits.max"], c["den_bits.max"]),
                                   "bits"),
        "scalars.num_bits.max": (c["num_bits.max"], "bits"),
        "scalars.den_bits.max": (c["den_bits.max"], "bits"),
        "scalars.muladd_ns.h0": (tracer.muladd_ns(tr.samples[0]), "ns"),
        "scalars.muladd_ns.h1": (tracer.muladd_ns(tr.samples[1]), "ns"),
        "graded.mat_rref.calls": (calls("graded.mat_rref"), "count"),
        "graded.mat_rref.self_s": (self_s("graded.mat_rref"), "s"),
        "graded.mat_rref.cells": (c["mat_rref.cells"], "count"),
        "graded.mat_rref.cells_max": (c["mat_rref.cells_max"], "count"),
        "graded.mat_mul.self_s": (self_s("graded.mat_mul"), "s"),
        "graded.Span.add.calls": (c["span.add"], "count"),
        "graded.Span.add.useful_ratio": (ratio(c["span.grew"], c["span.add"]),
                                         "ratio"),
        "graded.Span.self_s": (group_self("graded.Span"), "s"),
        "graded.commutant.self_s": (self_s("graded.commutant"), "s"),
    }
    adds, grew = tr.inclusive_adds("assocsuper.density_type_from_maps")
    m.update({
        "assocsuper.density_type_from_maps.calls":
            (calls("assocsuper.density_type_from_maps"), "count"),
        "assocsuper.density_type_from_maps.self_s":
            (self_s("assocsuper.density_type_from_maps"), "s"),
        "assocsuper.density_type_from_maps.span_adds": (adds, "count"),
        "assocsuper.density_type_from_maps.useful_ratio":
            (ratio(grew, adds), "ratio"),
        "assocsuper.operator_closure_dim.self_s":
            (self_s("assocsuper.operator_closure_dim"), "s"),
    })
    for name in ("liesuper.is_isomorphic_flat", "liesuper.module_hom_basis",
                 "liesuper.subalgebra", "queer.build_q", "coeffalg.radical",
                 "coeffalg.support", "coeffalg.IdealRep.verify",
                 "coeffalg.gamma_from_spec", "mapsuper.invariants",
                 "mapsuper.ann_and_support_gamma", "mapsuper.tensor_lie",
                 "cartanmod.i_psi", "hwmod.TruncatedVerma.init",
                 "hwmod.TruncatedVerma.singular_dims",
                 "hwmod.WeightModule.singular_spaces",
                 "products.schur_data", "products.hat_tensor_weight",
                 "products.tensor_same_algebra", "products.ev_hat",
                 "products.ev_hat_gamma", "products.restrict_to_invariants",
                 "products.hom_space_weight"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("mapsuper.InvariantSub.coords_of", "cartanmod.build_H",
                 "hwmod.TruncatedVerma.block", "hwmod.is_irreducible_hw",
                 "products.is_isomorphic_weight"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cartanmod.HModule.self_s"] = (group_self("cartanmod.HModule"), "s")
    m["hwmod.TruncatedVerma.act_on.calls"] = (c["act_on.calls"], "count")
    m["hwmod.TruncatedVerma.act_on.memo_hit_ratio"] = (
        ratio(c["act_on.calls"] - tr.act_on_distinct(), c["act_on.calls"]),
        "ratio")
    m["hwmod.SimpleQuotient.self_s"] = (group_self("hwmod.SimpleQuotient"), "s")
    adds, grew = tr.inclusive_adds("hwmod.WeightModule.spin_span")
    m["hwmod.WeightModule.spin_span.self_s"] = (
        self_s("hwmod.WeightModule.spin_span"), "s")
    m["hwmod.WeightModule.spin_span.useful_ratio"] = (ratio(grew, adds),
                                                      "ratio")
    tests, pairs = tr.classify_iso_tests()
    m["products.classify_enumerate.iso_tests"] = (tests, "count")
    m["products.classify_enumerate.pairs"] = (pairs, "count")
    m["products.classify_enumerate.self_s"] = (
        self_s("products.classify_enumerate"), "s")
    # the CLI layer's own time: argument parsing, dispatch, report emission
    m["cli.main.self_s"] = (group_self("cli"), "s")
    spanned = tr.root_seconds()
    m.update({
        "trace.spans": (len(tr.sp_name), "count"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.unattributed_s": (traced - spanned, "s"),
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    load_program()
    setup = measure_setup(args) if not args.trace else []
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, workdir, args.tiny)
        if args.trace:
            out, metrics, notes = traced_run(args, wl)
        else:
            out = timed_run(wl, args.seconds)
            metrics, notes = end_to_end(out, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps(result(out, metrics)))
    return 0


def result(out, metrics) -> dict:
    """The result line.  Every failed task counts in `failed`.  A task that
    gave a wrong answer, did not repeat its first answer or raised other
    than by a known defect makes the whole run incorrect."""
    return {"correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
