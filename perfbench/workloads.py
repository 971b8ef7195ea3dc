"""The benchmark's workloads: seeded input generators, the tasks that run
the program on those inputs, and the checks of every answer.

A workload holds a fixed pool of inputs drawn from the seed.  Task k runs
input k mod len(pool), so a run that goes past one pass repeats inputs and
every repeat must reproduce the first answer byte for byte.  Generators
use only `random.Random(seed)` and write JSON input files; the program
sees nothing but those inputs.
"""

from __future__ import annotations

import importlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path


def _qa(name):
    return importlib.import_module(f"queeralg.{name}")


def _clifford_rank(psi) -> int:
    """Rank of the symmetric form psi([hbar_a, hbar_b]) on the odd Cartan
    part of q(n) over the base field, computed independently of the
    program.  hbar_a is the odd diagonal e_a - e_{a+1} of gl(n+1); the
    bracket 2*diag(products) is projected to trace zero, and psi(h_a) =
    lam_a - lam_{a+1} with lam_{n+1} = 0."""
    n = len(psi)
    lam = [Fraction(sum(psi[i:])) for i in range(n)] + [Fraction(0)]
    size = n + 1

    def value(diag):
        mean = Fraction(sum(diag), size)
        return sum(l * (x - mean) for l, x in zip(lam, diag))

    hbar = [[1 if k == a else -1 if k == a + 1 else 0 for k in range(size)]
            for a in range(n)]
    gram = [[value([2 * x * y for x, y in zip(hbar[a], hbar[b])])
             for b in range(n)] for a in range(n)]
    rank = 0
    for c in range(n):
        piv = next((k for k in range(rank, n) if gram[k][c] != 0), None)
        if piv is None:
            continue
        gram[rank], gram[piv] = gram[piv], gram[rank]
        for k in range(n):
            if k != rank and gram[k][c] != 0:
                f = gram[k][c] / gram[rank][c]
                gram[k] = [x - f * y for x, y in zip(gram[k], gram[rank])]
        rank += 1
    return rank


def _positive_roots(n):
    """Positive roots of A_n in simple-root coordinates (intervals)."""
    return [tuple(1 if i <= k <= j else 0 for k in range(n))
            for i in range(n) for j in range(i, n)]


def pbw_count(n, beta) -> int:
    """Number of PBW monomials of weight -beta in the lowering part of q(n):
    a multiset of even negative roots times a set of odd ones.  Written
    independently of the program's own monomial enumeration."""
    roots = _positive_roots(n)
    box = sorted(product(*(range(b + 1) for b in beta)), key=sum)
    ways = {w: int(not any(w)) for w in box}   # even multisets, by weight
    for root in roots:
        for w in box:   # increasing weight: ways[w - root] already uses root
            prev = tuple(a - b for a, b in zip(w, root))
            if min(prev) >= 0:
                ways[w] += ways[prev]
    total = 0
    for k in range(len(roots) + 1):
        for odd in combinations(roots, k):
            rest = tuple(b - sum(r[i] for r in odd) for i, b in enumerate(beta))
            if min(rest) >= 0:
                total += ways[rest]
    return total


class Workload:
    """Base: a pool of inputs, a task runner and an answer check."""

    name = ""
    pool: list
    TRACED = None   # inputs a traced run covers (None: the whole pool)

    def run(self, k: int):
        """Run the program on input k; returns the raw result."""
        raise NotImplementedError

    def answer(self, k: int, raw) -> bytes:
        """Deterministic bytes of the answer (compared across repeats)."""
        raise NotImplementedError

    def check(self, k: int, raw, data: bytes) -> list[str]:
        """Failed checks of one answer; empty when correct."""
        raise NotImplementedError

    def shape(self, k: int, raw) -> dict:
        """Per-task facts recorded in the trace (e.g. h_mod.dim)."""
        return {}

    def known_defect(self, k: int, exc: Exception) -> str | None:
        """What known, documented defect of the program input k raised
        `exc` by, or None when the failure is not a known one."""
        return None


class _CliWorkload(Workload):
    def _cli(self, argv, out: Path) -> int:
        if out.exists():
            out.unlink()
        return _qa("cli").main(argv + ["--format", "structured",
                                       "--out", str(out)])

    def answer(self, k, raw):
        return raw[1]


class ClassifyTwisted4(_CliWorkload):
    """Irreducible modules of the Z2-equivariant subalgebra of
    q(2) (x) K[t]/(t^4 - r^4) under t -> -t with diag_conj (1, 1, -1)."""

    name = "classify-twisted4"
    R_CHOICES = (2, 3, 4)

    def __init__(self, seed, workdir: Path, tiny=False):
        rng = random.Random(seed)
        r = rng.choice(self.R_CHOICES)
        self.roots = [str(r), str(-r), f"{r}*i", f"-{r}*i"]
        self.catalog = "trivial" if tiny else "trivial,adjoint"
        alg = {"type": "poly_quotient",
               "modulus": [str(-r ** 4), "0", "0", "0", "1"],
               "roots": self.roots}
        grp = {"generators": [{
            "order": 2,
            "on_algebra": {"type": "substitute_t", "scale": "-1"},
            "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}
        self.alg_path = workdir / "algebra.json"
        self.grp_path = workdir / "group.json"
        self.alg_path.write_text(json.dumps(alg))
        self.grp_path.write_text(json.dumps(grp))
        self.out = workdir / "classify.json"
        self.pool = [{"r": r}]

    def run(self, k):
        rc = self._cli(["classify", "--n", "2", "--algebra", str(self.alg_path),
                        "--group", str(self.grp_path),
                        "--catalog", self.catalog], self.out)
        return rc, self.out.read_bytes() if rc == 0 else b""

    def _orbits(self):
        # t -> -t sends the root rho to -rho
        neg = {"-" + s if not s.startswith("-") else s[1:]: k
               for k, s in enumerate(self.roots)}
        return {frozenset((k, neg[s])) for k, s in enumerate(self.roots)}

    def check(self, k, raw, data):
        rc, _ = raw
        if rc != 0:
            return [f"exit code {rc}"]
        rep = json.loads(data)
        bad = []
        rows = rep["rows"]
        n_classes = len(self.catalog.split(","))
        orbits = self._orbits()
        if len(rows) != n_classes ** len(orbits):
            bad.append(f"{len(rows)} rows")
        dims = sorted(r["dim"] for r in rows)
        if n_classes == 2 and not (dims[:3] == [1, 16, 16]
                                   and dims[3] in (128, 256)):
            bad.append(f"dims {dims}")
        if n_classes == 1 and dims != [1]:
            bad.append(f"dims {dims}")
        if not (rep["twisted"] and rep["pairwise_distinct"]):
            bad.append("not twisted or not pairwise distinct")
        if not all(r["irreducible"] for r in rows):
            bad.append("a row is not irreducible")
        for r in rows:
            supp = set(r["support"])
            if any(o & supp and not o <= supp for o in orbits):
                bad.append(f"support {sorted(supp)} is not a union of orbits")
        return bad


class DimsQ3(_CliWorkload):
    """Weight tables of simple highest-weight q(3)-modules, truncated to
    a fixed depth.

    The cost of one table depends strongly on psi (about 0.7 s to 2.3 s at
    depth 3, 8 s to 18 s at depth 4), so a run averages over many distinct
    draws: depth 3, and a pool of 32 functionals sampled without
    replacement from the 86 of Clifford rank 3 in the box {-1..3}^3.  The
    table is truncated, so psi need not be dominant, and no draw is
    filtered on its outcome: a draw on which the program raises counts as
    a failed task (see KNOWN_DEFECT).  At depth 3 a rank-3 table cannot
    be conclusive (that needs three zero heights in the window), so
    conclusive is checked against the rows and counted, not required."""

    name = "dims-q3"
    DEPTH = 3
    POOL = 32
    TRACED = 8      # keeps the traced run (two passes) well under 3 min
    VALUES = range(-1, 4)  # psi(h_i) in {-1..3}
    RANK = 3               # Clifford rank 3, so h_mod.dim = 4
    # The one draw of the box whose table fails at depth 3: SimpleQuotient
    # raises KeyError because Span keeps its rows only partly reduced
    # (ROADMAP item 1).  It stays in the draws; a task on it that fails
    # that way is counted as failed without making the run incorrect, and
    # any other failure, on it or on another psi, makes the run incorrect.
    KNOWN_DEFECT = {(2, -1, 1): "SimpleQuotient KeyError (ROADMAP item 1)"}

    def __init__(self, seed, workdir: Path, tiny=False):
        rng = random.Random(seed)
        self.depth = 2 if tiny else self.DEPTH
        box = [list(v) for v in product(self.VALUES, repeat=3)
               if _clifford_rank(v) == self.RANK]
        self.pool = []
        for k, psi in enumerate(rng.sample(box, 2 if tiny else self.POOL)):
            path = workdir / f"psi{k}.json"
            path.write_text(json.dumps({"values": [
                [f"h{i + 1}", "1", str(v)] for i, v in enumerate(psi)]}))
            self.pool.append({"psi": psi, "path": path})
        self.out = workdir / "dims.json"

    def run(self, k):
        rc = self._cli(["dims", "--n", "3", "--psi", str(self.pool[k]["path"]),
                        "--depth", str(self.depth)], self.out)
        return rc, self.out.read_bytes() if rc == 0 else b""

    def check(self, k, raw, data):
        rc, _ = raw
        if rc != 0:
            return [f"exit code {rc}"]
        rep = json.loads(data)
        hdim = 2 ** -(-self.RANK // 2)
        bad = []
        heights = [0] * (self.depth + 1)
        for r in rep["rows"]:
            if sum(r["weight_coords"]) <= self.depth:
                heights[sum(r["weight_coords"])] += r["simple_dim"]
        # conclusive: the quotient vanishes on 3 consecutive heights (the
        # height of the highest root of q(3)) inside the window
        band = any(not any(heights[h:h + 3])
                   for h in range(1, self.depth - 1))
        if rep["conclusive"] != band:
            bad.append(f"conclusive is {rep['conclusive']} but the simple "
                       f"dims by height are {heights}")
        if rep["highest_weight_dim"] != hdim:
            bad.append(f"highest_weight_dim {rep['highest_weight_dim']}")
        top = [r for r in rep["rows"] if not any(r["weight_coords"])]
        if len(top) != 1 or top[0]["simple_dim"] != hdim:
            bad.append("top weight block is not the Cartan module")
        for r in rep["rows"]:
            beta = tuple(r["weight_coords"])
            if sum(beta) > self.depth:
                bad.append(f"weight {beta} outside the window")
            want = pbw_count(3, beta) * rep["highest_weight_dim"]
            if r["induced_dim"] != want:
                bad.append(f"induced_dim {r['induced_dim']} != {want} "
                           f"at {beta}")
            if r["simple_dim"] > r["induced_dim"]:
                bad.append(f"simple_dim > induced_dim at {beta}")
        return bad

    def known_defect(self, k, exc):
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        if (isinstance(exc, KeyError) and tb is not None
                and tb.tb_frame.f_code.co_qualname == "SimpleQuotient.__init__"):
            return self.KNOWN_DEFECT.get(tuple(self.pool[k]["psi"]))
        return None

    def shape(self, k, raw):
        rc, data = raw
        if rc != 0:
            return {}
        rep = json.loads(data)
        return {"h_mod.dim": rep["highest_weight_dim"],
                "conclusive": rep["conclusive"]}


_ALGEBRAS = (
    ("base field", {"type": "poly_quotient", "modulus": ["0", "1"],
                    "roots": ["0"]}, 1),
    ("dual numbers", {"type": "poly_quotient", "modulus": ["0", "0", "1"],
                      "roots": [["0", 2]]}, 2),
    ("two points", {"type": "poly_quotient", "modulus": ["-1", "0", "1"],
                    "roots": ["1", "-1"]}, 2),
)


class CartanCorpus(Workload):
    """Random functionals on the even Cartan part of q(2) (x) A, for A
    cycling through the base field, the dual numbers and two points: the
    Clifford module, the density oracle, a rebuild with reversed pivots,
    the isomorphism test and the largest killed ideal."""

    name = "cartan-corpus"
    POOL = 150   # task costs are heavy-tailed (tower height 0 to 3)

    def __init__(self, seed, workdir: Path, tiny=False):
        rng = random.Random(seed)
        self.pool = []
        for k in range(6 if tiny else self.POOL):
            label, spec, dim_a = _ALGEBRAS[k % len(_ALGEBRAS)]
            n_even = 2 * dim_a
            vals = [(0, 0)] * n_even
            while all(v == (0, 0) for v in vals):
                vals = [(rng.randint(-3, 3), rng.randint(-1, 1))
                        for _ in range(n_even)]
            self.pool.append({"algebra": label, "spec": spec,
                              "values": vals})
        (workdir / "functionals.json").write_text(json.dumps(self.pool))

    def run(self, k):
        inp = self.pool[k]
        scalars, queer, coeffalg = _qa("scalars"), _qa("queer"), _qa("coeffalg")
        cartanmod, assocsuper = _qa("cartanmod"), _qa("assocsuper")
        liesuper = _qa("liesuper")
        tower = scalars.Tower()
        qd = queer.build_q(tower, 2)
        ctx = cartanmod.CartanAlgebra(
            qd, coeffalg.algebra_from_spec(tower, inp["spec"]))
        psi = cartanmod.PsiFunctional(
            ctx, [tower.from_int(x) + tower.i() * y for x, y in inp["values"]])
        h = cartanmod.build_H(psi)
        mod = h.as_lie_module()
        dens = assocsuper.density_type_from_maps(mod.mats, mod.space, tower)
        h2 = cartanmod.build_H(psi,
                               pivot_order=list(range(h.rank))[::-1] or None)
        iso, _ = liesuper.is_isomorphic_flat(mod, h2.as_lie_module())
        ideal = cartanmod.i_psi(psi)
        return {"tower": tower, "psi": psi, "h": h, "density": dens,
                "iso": iso, "ideal": ideal}

    def answer(self, k, raw):
        h = raw["h"]
        return json.dumps({
            "dim": h.dim, "rank": h.rank,
            "density": [raw["density"].kind, raw["density"].closure_dim],
            "iso": raw["iso"],
            "ideal": [[str(x) for x in v] for v in raw["ideal"].basis],
            "cartan": [[[str(x) for x in row] for row in m.rows]
                       for m in h.cartan_mats]}, sort_keys=True).encode()

    def check(self, k, raw, data):
        h, psi = raw["h"], raw["psi"]
        bad = []
        if h.dim != 2 ** -(-h.rank // 2):
            bad.append(f"dim {h.dim} for rank {h.rank}")
        if not raw["density"].certifies_irreducible:
            bad.append(f"density oracle: {raw['density']!r}")
        if not raw["iso"]:
            bad.append("rebuilt module not isomorphic")
        for k_even, value in enumerate(psi.values):
            rows = h.cartan_mats[k_even].rows
            if any(x != (value if i == j else 0)
                   for i, row in enumerate(rows) for j, x in enumerate(row)):
                bad.append(f"even Cartan generator {k_even} does not act "
                           "by psi")
        return bad

    def shape(self, k, raw):
        return {"h_mod.dim": raw["h"].dim}


WORKLOADS = {w.name: w for w in (ClassifyTwisted4, DimsQ3, CartanCorpus)}
