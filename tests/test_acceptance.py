"""Acceptance gate: every criterion runs exactly (zero tolerance) within
its stated wall-clock budget.  One summary line per criterion is printed
by the conftest reporter."""

import json
import random
import time
from pathlib import Path

from queeralg.assocsuper import (QuadraticPair, assoc_tensor, classify_simple,
                                 clifford, clifford_generators,
                                 density_type_from_maps, make_Q)
from queeralg.cartanmod import CartanAlgebra, PsiFunctional
from queeralg.cli import main as cli_main
from queeralg.coeffalg import gamma_from_spec, preset_base_field, zero_ideal
from queeralg.graded import EVEN
from queeralg.hwmod import (check_psi0_ideal, is_irreducible_hw,
                            simple_quotient, top_psi, verma)
from queeralg.liesuper import (WeightModule, direct_sum_weight,
                               hom_space_weight, is_isomorphic_weight,
                               is_simple)
from queeralg.mapsuper import (ann_and_support, ev_rank, invariants,
                               tensor_lie)
from queeralg.products import (Catalog, assoc_check, classify_enumerate,
                               ev_hat, ev_pullback,
                               hat_tensor_weight, outer_factors, q1_module,
                               restrict_to_invariants, tensor_same_algebra,
                               trivial_q_module, weight_schur_data)
from queeralg.queer import build_q, cartan_generation_check
from queeralg.scalars import Tower
from queeralg.verify import cartan_random_corpus, Checks, _pbw_count
from queeralg.verify import _two_point, _dual, _four_point


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, \
            f"runtime {elapsed:.1f}s exceeded budget {self.limit}s"
        return elapsed


def test_criterion_1_tensor_square_of_rank_one_queer_module():
    budget = Budget(1.0)
    K = Tower()
    t = classify_simple(assoc_tensor(make_Q(K, 1), make_Q(K, 1)))
    assert (t.kind, t.m, t.n) == ("M", 1, 1)
    m = q1_module(K)
    s = weight_schur_data(m)
    prod, info = hat_tensor_weight(*outer_factors(m, m, s, s))
    assert info["split"]
    assert prod.dim == 2 and info["minus"].dim == 2
    ok, _ = is_isomorphic_weight(info["plus"], info["minus"])
    assert ok
    budget.check()


def test_criterion_2_structure_suite():
    budget = Budget(30.0)
    K = Tower()
    for n, dim, pos in ((2, 16, 3), (3, 30, 6)):
        qd = build_q(K, n)
        qd.algebra.check()  # exact Jacobi/skew sweep over all triples
        assert qd.dim == dim
        assert len(qd.roots.positive_pairs) == pos
        assert cartan_generation_check(qd)
        assert is_simple(qd.algebra)
    budget.check()


def test_criterion_3_clifford_suite():
    budget = Budget(60.0)
    rng = random.Random(7)
    for r in range(1, 7):
        for _ in range(5):
            K = Tower()
            while True:
                rows = [[K.zero()] * r for _ in range(r)]
                for i in range(r):
                    for j in range(i, r):
                        rows[i][j] = rows[j][i] = K.from_int(rng.randint(-2, 2))
                q = QuadraticPair(K, rows)
                if q.radical_dim() == 0:
                    break
            alg = clifford(q)
            assert alg.dim == 2 ** r
            t = classify_simple(alg)
            assert (t.kind == "Q") == (r % 2 == 1)
            carrier, gens = clifford_generators(q)
            assert carrier.dim == 2 ** -(-r // 2)
            d = density_type_from_maps(gens, carrier, K)
            assert d.kind == ("qcomm" if r % 2 else "full")
        # a degenerate form of each size is not graded simple: duplicate
        # the last generator's row and column
        K = Tower()
        rows = [[K.from_int(1 if i == j else 0) for j in range(r)]
                for i in range(r)]
        if r >= 2:
            for i in range(r):
                rows[i][r - 1] = rows[i][r - 2]
                rows[r - 1][i] = rows[r - 2][i]
        else:
            rows[0][0] = K.zero()
        q = QuadraticPair(K, rows)
        assert q.radical_dim() > 0
        assert classify_simple(clifford(q)).kind == "not_simple"
    budget.check()


def test_criterion_4_cartan_bijection_corpus():
    budget = Budget(120.0)
    rng = random.Random(7)
    ck = Checks()

    def base(t):
        return build_q(t, 2), preset_base_field(t)

    def dual(t):
        return build_q(t, 2), _dual(t)

    def two(t):
        return build_q(t, 2), _two_point(t)

    cartan_random_corpus(base, rng, 20, ck, "base field")
    cartan_random_corpus(dual, rng, 20, ck, "dual numbers")
    cartan_random_corpus(two, rng, 20, ck, "two points")
    failed = [r["name"] for r in ck.records if not r["passed"]]
    assert not failed, failed
    budget.check()


def test_criterion_5_highest_weight_suite():
    budget = Budget(300.0)
    K = Tower()
    qd = build_q(K, 2)
    a1 = preset_base_field(K)
    ms1 = tensor_lie(qd, a1)
    ctx1 = CartanAlgebra(qd, a1)
    a2d = _dual(K)
    ms2d = tensor_lie(qd, a2d)
    ctx2d = CartanAlgebra(qd, a2d)

    # PBW dimension law at depth 4, against an independent count
    for ms, ctx in ((ms1, ctx1), (ms2d, ctx2d)):
        psi = PsiFunctional(ctx, [K.from_int(2 + k)
                                  for k in range(ctx.n_even)])
        vm = verma(ms, psi, 4)
        lows = [vm.low_coords[p] for p in range(len(vm.lowering))]
        for beta, d in vm.dims_by_weight().items():
            assert d == _pbw_count(lows, beta) * vm.h_mod.dim

    # the adjoint functional recovers the 16-dimensional adjoint module
    cat = Catalog(qd)
    psi_ad = PsiFunctional(ctx1, [K.one(), K.one()])
    sq = simple_quotient(ms1, psi_ad)
    assert sq.conclusive and sq.module.dim == 16
    ok, _ = is_isomorphic_weight(sq.module,
                                 ev_pullback(ms1, [0], cat.module("adjoint")))
    assert ok

    # criterion vs density oracle on every corpus module of dim <= 64
    a2 = _two_point(K)
    ms2 = tensor_lie(qd, a2)
    ad0 = ev_pullback(ms2, [0], cat.module("adjoint"))
    ad1 = ev_pullback(ms2, [1], cat.module("adjoint"))
    triv = ev_pullback(ms2, [0], trivial_q_module(qd))
    corpus = [
        ("trivial", triv),
        ("trivial (+) trivial", direct_sum_weight(triv, triv)),
        ("adjoint at p0", ad0),
        ("adjoint at p1", ad1),
        ("adjoint (+) trivial", direct_sum_weight(ad0, triv)),
        ("adjoint (+) adjoint", direct_sum_weight(ad0, ad0)),
    ]
    disagreements = []
    for name, mod in corpus:
        assert mod.dim <= 64
        crit = is_irreducible_hw(mod)
        d = density_type_from_maps(mod.mats, mod.space, K)
        if crit != d.certifies_irreducible:
            disagreements.append(name)
    assert disagreements == []
    budget.check()


def _vpsi_conditions(mod, ms, ctx):
    """The four quasifiniteness-style conditions plus both directions of
    the ideal test, for a finished module over a map superalgebra."""
    psi = top_psi(mod, ms, ctx)
    ann, supp, reduced = ann_and_support(mod, ms)
    quasifinite = all(mod.block_dim(w) < 10 ** 9 for w in mod.weights)
    ann_finite_codim = ann.dim <= ms.coeff.dim
    psi_kills = psi.kills(ann)
    finite_support = len(supp) < 10 ** 9
    consistent = quasifinite and ann_finite_codim and psi_kills \
        and finite_support
    ideal_equiv = all(
        check_psi0_ideal(mod, psi, ideal, ms)["equivalent"]
        for ideal in list(ms.coeff.maximal_ideals) + [ann, zero_ideal(ms.coeff)])
    return consistent, ideal_equiv, supp, reduced


def test_criterion_6_quasifinite_equivalences():
    budget = Budget(120.0)
    K = Tower()
    qd = build_q(K, 2)
    cat = Catalog(qd)

    modules = []
    # two built from truncated induced modules over the base field
    a1 = preset_base_field(K)
    ms1 = tensor_lie(qd, a1)
    ctx1 = CartanAlgebra(qd, a1)
    sq0 = simple_quotient(ms1, PsiFunctional.zero(ctx1), depth=3)
    sq_ad = simple_quotient(ms1, PsiFunctional(ctx1, [K.one(), K.one()]))
    modules.append((sq0.module, ms1, ctx1))
    modules.append((sq_ad.module, ms1, ctx1))
    # evaluation products over the two-point algebra, each pulled back from
    # the sum of copies of q at its points to q (x) A
    a2 = _two_point(K)
    ms2 = tensor_lie(qd, a2)
    ctx2 = CartanAlgebra(qd, a2)
    for assign in ({0: "adjoint"}, {1: "adjoint"},
                   {0: "adjoint", 1: "adjoint"}):
        row, audit = ev_hat(ms2, assign, cat)
        modules.append((ev_pullback(ms2, audit["points"], row), ms2, ctx2))
    # evaluation products over the four-point algebra
    a4 = _four_point(K)
    ms4 = tensor_lie(qd, a4)
    ctx4 = CartanAlgebra(qd, a4)
    for assign in ({0: "adjoint"}, {1: "adjoint"}, {2: "adjoint"},
                   {0: "adjoint", 1: "adjoint"},
                   {0: "adjoint", 2: "adjoint"}):
        row, audit = ev_hat(ms4, assign, cat)
        modules.append((ev_pullback(ms4, audit["points"], row), ms4, ctx4))
    assert len(modules) == 10

    for mod, ms, ctx in modules:
        assert is_irreducible_hw(mod)
        consistent, ideal_equiv, supp, reduced = _vpsi_conditions(mod, ms, ctx)
        assert consistent and ideal_equiv and reduced
    budget.check()


def test_criterion_7_evaluation_section_suite():
    budget = Budget(600.0)
    K = Tower()
    qd = build_q(K, 2)
    cat = Catalog(qd)
    s_ad = cat.weight_schur("adjoint")

    for algebra, pts in ((_two_point(K), (0, 1)), (_four_point(K), (0, 2))):
        ms = tensor_lie(qd, algebra)
        ctx = CartanAlgebra(qd, algebra)
        adx = ev_pullback(ms, [pts[0]], cat.module("adjoint"))
        ady = ev_pullback(ms, [pts[1]], cat.module("adjoint"))
        # dichotomy for disjoint supports
        if s_ad.is_type_q:
            plus, info = hat_tensor_weight(adx, ady, s_ad, s_ad)
            assert info["split"]
            iso, _ = is_isomorphic_weight(plus, info["minus"])
            assert iso and is_irreducible_hw(plus)
        else:
            full = tensor_same_algebra(adx, ady)
            assert is_irreducible_hw(full)
        # top-character additivity
        row, audit = ev_hat(ms, {pts[0]: "adjoint", pts[1]: "adjoint"}, cat)
        got = top_psi(ev_pullback(ms, audit["points"], row), ms, ctx)
        expect = PsiFunctional.evaluation(ctx, pts[0], [1, 1]) + \
            PsiFunctional.evaluation(ctx, pts[1], [1, 1])
        assert got == expect
        # pairwise non-isomorphism of single-point evaluations
        singles = [ev_pullback(ms, [p], cat.module("adjoint"))
                   for p in range(len(algebra.maximal_ideals))]
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                kerns, _ = hom_space_weight(singles[i], singles[j])
                assert kerns == []
            ok, _ = is_isomorphic_weight(singles[i], singles[i])
            assert ok

    # associativity witnesses (all queer-type factors, and a mixed case)
    m = q1_module(K)
    triv_q1 = WeightModule(m.algebra, K, [()], {(): (EVEN,)}, [{}, {}])
    assert assoc_check(m, m, m)
    assert assoc_check(m, triv_q1, m)

    # equivariant surjectivity and orbit invariance on the four-point case
    a4 = _four_point(K)
    ms4 = tensor_lie(qd, a4)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a4, qd)
    inv = invariants(ms4, act)
    assert ev_rank(ms4, [0], inv.averaged) == 16
    assert ev_rank(ms4, [0, 2], inv.averaged) == 32
    from queeralg.products import twist_q_module
    sigma = act.generators[0][2]   # of order 2: the twist pulls back along it
    ad = cat.module("adjoint")
    here = restrict_to_invariants(ev_pullback(ms4, [0], ad), inv)
    there = restrict_to_invariants(
        ev_pullback(ms4, [1], twist_q_module(ad, qd, sigma)), inv)
    iso, _ = is_isomorphic_weight(here, there)
    assert iso
    budget.check()


def test_criterion_8_classification_both_flavors():
    budget = Budget(900.0)
    K = Tower()
    qd = build_q(K, 2)
    cat = Catalog(qd)

    a2 = _two_point(K)
    ms2 = tensor_lie(qd, a2)
    rep2 = classify_enumerate(ms2, cat)
    assert not rep2["twisted"]
    assert len(rep2["rows"]) == 4 and rep2["pairwise_distinct"]
    dims2 = sorted(r.dim for r in rep2["rows"])
    assert dims2[:3] == [1, 16, 16] and dims2[3] in (128, 256)
    assert all(r.irreducible and r.reduced for r in rep2["rows"])

    a4 = _four_point(K)
    ms4 = tensor_lie(qd, a4)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a4, qd)
    inv = invariants(ms4, act)
    assert inv.gamma_report["free"]
    rep4 = classify_enumerate(ms4, cat, inv=inv)
    assert rep4["twisted"]
    assert len(rep4["rows"]) == 4 and rep4["pairwise_distinct"]
    dims4 = sorted(r.dim for r in rep4["rows"])
    assert dims4[:3] == [1, 16, 16] and dims4[3] in (128, 256)
    # supports are unions of orbits (the annihilator is group-invariant)
    orbit_sets = [set(o) for o in inv.gamma_report["orbits"]]
    for r in rep4["rows"]:
        supp = set(r.support)
        for orbit in orbit_sets:
            assert orbit <= supp or not (orbit & supp)
    budget.check()


VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / \
    "verify_all_seed7.json"


def test_criterion_9_determinism(tmp_path):
    f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
    for f in (f1, f2):
        rc = cli_main(["verify", "all", "--seed", "7",
                       "--format", "structured", "--out", str(f)])
        assert rc == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == VERIFY_GOLDEN.read_bytes()
    assert b1 == b2
    rep = json.loads(b1)
    assert rep["failures"] == 0 and rep["seed"] == 7
