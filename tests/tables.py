"""Tables for differential tests: random shape-valid ones, mostly not
semilattices, some preserved by a permutation so that orbit reductions have
work to do; random semilattices, valid by construction; families of
axiom-valid algebras built by the library; and the opposite algebra and the
greatest-member transversal, which only tests build."""

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


def refusal(algebra):
    """The (error type, message) every analysis entry point raises on an
    algebra that fails an axiom, or None for a valid one; the report is the
    algebra's cached ``validate_axioms`` report."""
    report = algebra.validation
    return None if report.ok else (A.InvalidAlgebraError, f"{report.axiom} fails: {report.detail}")


def commutative_idempotent_tables(rng, count):
    """Random commutative, idempotent tables with at most five elements and
    random permutations over small groups: associative or not, so that the
    associativity certificate both passes and fails."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        meet = [[x] * n for x in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                meet[x][y] = meet[y][x] = rng.randrange(n)
        group = G.make_group(rng.choice([[1], [2], [3], [0], [2, 2]]))
        action = [rng.sample(range(n), n) for _ in range(group.rank)]
        out.append(A.FSemilattice(group, [str(i) for i in range(n)], meet, action))
    return out


def random_semilattices(rng, group, count, max_size=16):
    """Random axiom-valid algebras over a finite group F: the family of
    subsets of F x {0..k}, k at most 1, generated by one or two random
    subsets under translation by F and union, with union as the meet and
    translation as the action.  A family closed under both is a semilattice
    that F acts on by automorphisms, so each is valid by construction; one
    subset generates its family.  Each subset is a union of cosets of a
    random subgroup of index at most 4, which keeps the family small; one
    past ``max_size`` is drawn again, and the carrier order is shuffled."""
    table = G.AdditionTable(group)
    codes = range(len(table.elements))
    steps = [table[table.index[G.elementary(group, i)]] for i in range(group.rank)]
    subs = [h for h in G.subgroups(group, table) if len(codes) <= 4 * h.size]
    out = []
    while len(out) < count:
        blocks = table.cosets(rng.choice(subs))
        points = [(b, i) for b in blocks for i in range(rng.randint(1, 2))]
        seeds = [rng.sample(points, rng.randint(1, len(points))) for _ in range(rng.randint(1, 2))]
        seeds = [[(g, i) for b, i in seed for g in b] for seed in seeds]
        family = {frozenset((table[g][h], i) for h, i in seed) for seed in seeds for g in codes}
        queue = list(family)
        while queue and len(family) <= max_size:
            one = queue.pop()
            for two in list(family):
                if one | two not in family:
                    family.add(one | two)
                    queue.append(one | two)
        if len(family) > max_size:
            continue
        carrier = sorted(family, key=sorted)
        rng.shuffle(carrier)
        index = {s: x for x, s in enumerate(carrier)}
        meet = [[index[s | t] for t in carrier] for s in carrier]
        action = [[index[frozenset((step[h], i) for h, i in s)] for s in carrier] for step in steps]
        out.append(A.FSemilattice(group, [str(x) for x in range(len(carrier))], meet, action))
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


def opposite(algebra):
    """Same semilattice with every group element acting by its inverse."""
    return A.FSemilattice(
        group=algebra.group,
        carrier=algebra.carrier,
        meet=algebra.meet,
        action=tuple(A.perm_inverse(p) for p in algebra.action),
    )


def greatest_transversal(group, sub):
    """The lexicographically greatest member of each coset, the other
    deterministic transversal beside ``G.transversal``'s least members."""
    return G.make_transversal(group, sub, [b[-1] for b in G.cosets(group, sub)])


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
                    out.append(C.twisted_multiple(spec, sub, factor, None, gens))
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


def atom_fan_over_z(cycle_lengths):
    """Atoms over a zero, the infinite cyclic group rotating each block of
    atoms as one cycle of the given length."""
    n = sum(cycle_lengths) + 1
    bottom = n - 1
    perm, start = [], 0
    for length in cycle_lengths:
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    meet = [[x if x == y else bottom for y in range(n)] for x in range(n)]
    return A.FSemilattice(G.make_group([0]), [str(x) for x in range(n)], meet, [perm + [bottom]])


def rotated_hexagon_fan(rank):
    """Six atoms in a ring over a zero, acted on by Z^rank: generator i
    rotates the ring by i mod 5 + 1 steps, so the action image is cyclic of
    order 6 while the product of the generators' orders grows as 6^rank.
    The last generator of rank 16 turns by one step."""
    meet = [[x if x == y else 6 for y in range(7)] for x in range(7)]
    action = [[(x + i % 5 + 1) % 6 for x in range(6)] + [6] for i in range(rank)]
    carrier = [f"a{x}" for x in range(6)] + ["o"]
    return A.FSemilattice(G.make_group([0] * rank), carrier, meet, action)
