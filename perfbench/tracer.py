"""Tracing of the queeralg layers from outside the program.

`Tracer.install` wraps the public functions of every queeralg module and
the public methods of every class defined there, and rebinds each module
global that names a wrapped function, so that `from .x import f` call
sites are traced as well.  Each wrapped call records a span (name,
start, end, parent span, task id) into flat in-memory arrays; the spans
are written out only when the run ends.  Scalar arithmetic is far too
frequent for spans, so `Scalar` operations only feed work counters; their
time stays in the self time of the span that called them.

Nothing here changes what the program computes: wrappers call the
original function with the original arguments and return its result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

MODULES = ("scalars", "graded", "assocsuper", "liesuper", "queer", "coeffalg",
           "mapsuper", "cartanmod", "hwmod", "products", "verify", "cli")

# The scalars layer (Q(i) triples, Scalar, Tower) runs millions of times
# per task, so it only feeds counters.  The parity accessors are the only
# other methods hot enough that their spans would dominate the trace
# without marking a layer boundary.  TruncatedVerma.act_on is recursive and
# memoised: it is counted (calls, distinct keys) instead.
NO_SPAN = {"graded.GradedSpace.parity", "liesuper.GradedSpaceMixed.parity",
           "hwmod.TruncatedVerma.act_on"}
SAMPLE_EVERY = 509   # one multiply in this many is kept for the cost probe
SAMPLE_CAP = 64      # operand pairs kept per tower height
MUL_KEYS = tuple(f"mul.h{h}" for h in range(64))


def _height(co) -> int:
    """Tower level needed by a coefficient dict: the index of the highest
    generator any of its monomial masks uses (0 for Q(i))."""
    return max(co).bit_length() if co else 0


class Tracer:
    """Spans and work counters of one traced pass; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.sp_name = array("l")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("l")
        self.sp_task = array("l")
        self._stack: list[int] = []
        self.task = -1
        self.counters: Counter = Counter()
        self.span_adds = array("q")      # per span: Span.add attempts below it
        self.span_grew = array("q")      # per span: attempts that grew a span
        self.radicands: list[tuple[int, str]] = []
        self.samples: dict[int, list] = {0: [], 1: []}
        self.task_height: Counter = Counter()
        self._act_keys: set = set()
        self._act_owners: list = []
        self._patches: list = []
        self._mul_seen = 0
        self._modules: list = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name: str, fn):
        nid = self._nid(name)
        stack = self._stack
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_task = self.sp_parent, self.sp_task
        adds, grew = self.span_adds, self.span_grew
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            sp_task.append(self.task)
            sp_end.append(0)
            adds.append(0)
            grew.append(0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                sp_end[idx] = clock()
                stack.pop()
                if stack:
                    parent = stack[-1]
                    adds[parent] += adds[idx]
                    grew[parent] += grew[idx]
        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"queeralg.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}   # id(original function) -> wrapper
        for short, mod in mods.items():
            if short == "scalars":
                continue   # counted by _install_scalars, never spanned
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    w = self._wrap(f"{short}.{attr}", obj)
                    if w is not obj:
                        wrapped[id(obj)] = w
                        self._set(mod, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        # rebind names imported with `from .x import f` (and the package's
        # own re-exports) to the wrappers
        pkg = importlib.import_module("queeralg")
        for mod in list(mods.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and vars(mod)[attr] is not w:
                    self._set(mod, attr, w)
        self._modules = list(mods.values()) + [pkg]
        self._install_scalars(mods["scalars"])
        self._install_graded(mods["graded"])
        self._install_act_on(mods["hwmod"])

    def _wrap(self, name, fn):
        if name in NO_SPAN or inspect.isgeneratorfunction(fn):
            return fn
        return self._span_wrapper(name, fn)

    def _wrap_class(self, short, cls):
        for attr, obj in list(cls.__dict__.items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            label = "init" if attr == "__init__" else attr
            name = f"{short}.{cls.__name__}.{label}"
            if isinstance(obj, (classmethod, staticmethod)):
                w = self._wrap(name, obj.__func__)
                if w is not obj.__func__:
                    self._set(cls, attr, type(obj)(w))
            elif inspect.isfunction(obj):
                w = self._wrap(name, obj)
                if w is not obj:
                    self._set(cls, attr, w)

    def _install_scalars(self, scalars):
        Scalar, Tower = scalars.Scalar, scalars.Tower
        c = self.counters
        th = self.task_height
        samples = self.samples
        orig_mul = Scalar.__dict__["__mul__"]

        def mul(a, b):
            out = orig_mul(a, b)
            if out is NotImplemented:
                return out
            h = _height(a.co)
            if isinstance(b, Scalar):
                hb = _height(b.co)
                if hb > h:
                    h = hb
            c[MUL_KEYS[h]] += 1
            if h > th[self.task]:
                th[self.task] = h
            num = den = 0
            for (x, y, d) in out.co.values():
                nb = max(abs(x).bit_length(), abs(y).bit_length())
                if nb > num:
                    num = nb
                if d.bit_length() > den:
                    den = d.bit_length()
            if num > c["num_bits.max"]:
                c["num_bits.max"] = num
            if den > c["den_bits.max"]:
                c["den_bits.max"] = den
            self._mul_seen += 1
            if self._mul_seen % SAMPLE_EVERY == 0 and h in samples and \
                    isinstance(b, Scalar) and len(samples[h]) < SAMPLE_CAP:
                samples[h].append((a, b))
            return out

        for attr in ("__mul__", "__rmul__"):
            self._set(Scalar, attr, mul)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._set(Scalar, attr, self._counting(Scalar.__dict__[attr],
                                                   "addsub.calls"))
        for attr in ("inv", "__truediv__", "__rtruediv__"):
            self._set(Scalar, attr, self._counting(Scalar.__dict__[attr],
                                                   "inv.calls"))
        orig_adjoin = Tower.__dict__["adjoin_sqrt"]

        def adjoin_sqrt(tower, d):
            before = tower.height
            out = orig_adjoin(tower, d)
            if tower.height > before:
                c["adjoin_sqrt.extended"] += 1
                self.radicands.append((self.task, str(tower.gens[-1])))
            return out
        self._set(Tower, "adjoin_sqrt", adjoin_sqrt)

    def _counting(self, fn, key):
        c = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            c[key] += 1
            return fn(*args)
        return wrapper

    def _install_graded(self, graded):
        """Span.add outcomes, credited to the enclosing span and (when it
        closes) to every span above it; mat_rref input cells."""
        c = self.counters
        adds, grew, stack = self.span_adds, self.span_grew, self._stack
        add = graded.Span.__dict__["add"]   # already the span wrapper

        @functools.wraps(add)
        def counted_add(span, vec):
            out = add(span, vec)
            c["span.add"] += 1
            if out:
                c["span.grew"] += 1
            if stack:
                adds[stack[-1]] += 1
                grew[stack[-1]] += bool(out)
            return out
        self._set(graded.Span, "add", counted_add)

        rref = graded.mat_rref           # already the span wrapper

        @functools.wraps(rref)
        def counted_rref(rows, ncols, tower):
            cells = len(rows) * ncols
            c["mat_rref.cells"] += cells
            if cells > c["mat_rref.cells_max"]:
                c["mat_rref.cells_max"] = cells
            return rref(rows, ncols, tower)
        for mod in self._modules:
            if vars(mod).get("mat_rref") is rref:
                self._set(mod, "mat_rref", counted_rref)

    def _install_act_on(self, hwmod):
        cls = hwmod.TruncatedVerma
        act_on = cls.__dict__["act_on"]
        c, keys, owners = self.counters, self._act_keys, self._act_owners

        @functools.wraps(act_on)
        def counted(vm, gen, mono, h):
            c["act_on.calls"] += 1
            if not owners or owners[-1] is not vm:
                owners.append(vm)   # keeps ids unique while keys refer to them
            keys.add((id(vm), gen, mono, h))
            return act_on(vm, gen, mono, h)
        self._set(cls, "act_on", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._act_owners.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds).  A span's self time
        is its duration minus the durations of its direct children; spans
        nest strictly because the run has one thread."""
        n = len(self.sp_name)
        child = [0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += self.sp_end[i] - self.sp_start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            nid = self.sp_name[i]
            calls[nid] += 1
            self_ns[nid] += self.sp_end[i] - self.sp_start[i] - child[i]
        return {self.names[k]: (calls[k], self_ns[k] / 1e9) for k in calls}

    def root_seconds(self) -> float:
        return sum(self.sp_end[i] - self.sp_start[i]
                   for i in range(len(self.sp_name))
                   if self.sp_parent[i] < 0) / 1e9

    def inclusive_adds(self, name: str):
        """Span.add attempts and growths below all spans of one name that
        are not nested in another span of the same name."""
        nid = self._name_id.get(name)
        total = useful = 0
        if nid is None:
            return 0, 0
        for i in range(len(self.sp_name)):
            if self.sp_name[i] != nid:
                continue
            p = self.sp_parent[i]
            while p >= 0 and self.sp_name[p] != nid:
                p = self.sp_parent[p]
            if p < 0:
                total += self.span_adds[i]
                useful += self.span_grew[i]
        return total, useful

    def classify_iso_tests(self):
        """Exact isomorphism tests classify_enumerate ran on pairs of built
        modules, and the number of such pairs.  Tests of the catalog's
        twist stability come before the first module is built and are not
        pair tests."""
        name = self._name_id.get
        enum, iso = name("products.classify_enumerate"), \
            name("products.is_isomorphic_weight")
        builders = {name("products.ev_hat"), name("products.ev_hat_gamma")}
        built: Counter = Counter()
        first_build: dict = {}
        tests: Counter = Counter()
        for i in range(len(self.sp_name)):
            p = self.sp_parent[i]
            if p < 0 or self.sp_name[p] != enum:
                continue
            if self.sp_name[i] in builders:
                built[p] += 1
                first_build.setdefault(p, self.sp_start[i])
            elif self.sp_name[i] == iso and p in first_build:
                tests[p] += 1
        pairs = sum(b * (b - 1) // 2 for b in built.values())
        return sum(tests.values()), pairs

    def act_on_distinct(self) -> int:
        return len(self._act_keys)

    def write(self, path, tasks):
        """Spans as tab-separated lines (name, start ns, end ns, parent
        index, task), then one line per task and per adjoined radicand."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\ttask\n")
            names = self.names
            for i in range(len(self.sp_name)):
                fh.write(f"span\t{names[self.sp_name[i]]}\t{self.sp_start[i]}"
                         f"\t{self.sp_end[i]}\t{self.sp_parent[i]}"
                         f"\t{self.sp_task[i]}\n")
            for rec in tasks:
                fh.write("task\t" + "\t".join(f"{k}={v}" for k, v in
                                              rec.items()) + "\n")
            for task, rad in self.radicands:
                fh.write(f"radicand\t{task}\t{rad}\n")


def muladd_ns(pairs, repeat: int = 200) -> float:
    """Median cost in ns of one `a * b + a` on the sampled operand pairs,
    timed with the untraced Scalar methods; 0.0 when nothing was sampled."""
    if not pairs:
        return 0.0
    per_pair = []
    clock = time.perf_counter_ns
    for a, b in pairs:
        best = None
        for _ in range(3):
            t0 = clock()
            for _ in range(repeat):
                a * b + a
            dt = (clock() - t0) / repeat
            best = dt if best is None or dt < best else best
        per_pair.append(best)
    per_pair.sort()
    return float(per_pair[len(per_pair) // 2])
