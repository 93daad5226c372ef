"""Tables for differential tests: random shape-valid ones, mostly not
semilattices, some preserved by a permutation so that orbit reductions have
work to do; and families of axiom-valid algebras built by the library."""

from __future__ import annotations

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G


def random_tables(rng, group, count):
    """Shape-valid algebras whose meet tables are random, so mostly neither
    associative nor commutative; the fold order of a term's meet shows."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        meet = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        action = [rng.sample(range(n), n) for _ in range(group.rank)]
        out.append(A.FSemilattice(group, [str(i) for i in range(n)], meet, action))
    return out


def invariant_meet(rng, s, commutative, idempotent=False):
    """A random meet table that the permutation ``s`` preserves, commutative
    or not, idempotent when asked, or None when a random entry clashes along
    its orbit of pairs."""
    n = len(s)
    meet = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(x if commutative else 0, n):
            if meet[x][y] is not None:
                continue
            u, v, w = x, y, x if idempotent and x == y else rng.randrange(n)
            while meet[u][v] is None:
                meet[u][v] = w
                if commutative:
                    meet[v][u] = w
                u, v, w = s[u], s[v], s[w]
            if meet[u][v] != w:
                return None
    return meet


def powers_of(s, count):
    """The permutations s, s^2, ..., s^count."""
    action = [tuple(s)]
    while len(action) < count:
        action.append(tuple(s[x] for x in action[-1]))
    return action


def invariant_tables(rng, count):
    """Shape-valid algebras whose random meet table (mostly not a
    semilattice) is preserved by a random permutation s.  By kind: a
    commutative table acted on by powers of s, so the generators are
    automorphisms the orbit skip uses; the same with random permutations,
    which mostly are not automorphisms; a non-commutative table acted on by
    powers of s."""
    out = []
    while len(out) < count:
        kind = len(out) % 3
        n = rng.randint(2, 6)
        s = rng.sample(range(n), n)
        meet = invariant_meet(rng, s, commutative=kind < 2)
        if meet is None:
            continue
        orders = rng.choice([[2], [3], [4], [6], [0], [2, 2], [0, 3]])
        if kind == 1:
            action = [rng.sample(range(n), n) for _ in orders]
        else:
            action = powers_of(s, len(orders))
        group = G.make_group(orders)
        out.append((kind, A.FSemilattice(group, [str(i) for i in range(n)], meet, action)))
    return out


def fans_and_multiples(max_order):
    """Per group of order at most ``max_order``: the fan over every subgroup,
    and the trivial and chain2 twisted multiples over every proper
    subgroup."""
    out = []
    for spec in G.all_group_specs(max_order):
        for sub in G.subgroups(spec):
            out.append(C.maroti(spec, sub))
            if sub.is_proper:
                for factor, gens in (C.trivial_factor(spec, sub), C.chain2_factor(spec, sub)):
                    out.append(C.twisted(spec, sub, factor, None, gens))
    return out


def free_quotients(max_order):
    """P+(F) and its quotients other than the one-element one, for every
    group F of order at most ``max_order``."""
    out = []
    for spec in G.all_group_specs(max_order):
        free = C.free_one_generated(spec)
        out += [
            A.quotient(free, cong)
            for cong in A.congruences(free, limit=free.size)
            if not cong.is_total
        ]
    return out
