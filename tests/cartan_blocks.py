"""Modules on which the highest-weight criterion is its third clause
alone, the rank rule: one weight, acted on only by Cartan generators.
The other clauses then hold trivially (no raising or lowering block, so
the block is singular and nothing lies below it), and is_irreducible_hw
gives the rank rule's verdict on that block."""

from queeralg.liesuper import LieSuper, WeightModule


def cartan_block_module(h, qd):
    """H(psi) (an HModule) over the Cartan algebra h (x) A of its psi,
    given the split ((), every generator, ()) and q's root datum."""
    alg = h.ctx.ms.algebra
    split = LieSuper(alg.tower, alg.space, alg.bk,
                     triangular=([], list(range(alg.dim)), []))
    return WeightModule(split, alg.tower, [()], {(): h.carrier.parities},
                        [{(): [((), x.entries)]} if x.entries else {}
                         for x in h.cartan_mats], qd=qd)


def top_block(m):
    """The top block of m alone, over m's algebra, with only the Cartan
    generators of its split acting."""
    lam, = m.maximal_weights()
    act = [{} for _ in range(m.algebra.dim)]
    for g in m.algebra.triangular[1]:
        for w2, blk in m.blocks_of(g, lam):
            if w2 == lam:
                act[g] = {lam: [(lam, blk)]}
    return WeightModule(m.algebra, m.tower, [lam], {lam: m.parities[lam]},
                        act, qd=m.qd)
