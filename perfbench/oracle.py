"""Independent checks for the benchmark's outputs.

Nothing here calls fslat: subgroup counts come from closed forms (Galois
numbers, the Delsarte/Butler type count) or brute-force closure, algebras
are read back as plain tables, and quadratic irrationals are compared by
exact integer squaring.  Each ``check_*`` function returns ``None`` when the
output agrees and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import json
import re
from math import prod

# ---------------------------------------------------------------- groups


def group_elements(orders):
    return list(itertools.product(*[range(k) for k in orders]))


def add(orders, a, b):
    return tuple((x + y) % k for x, y, k in zip(a, b, orders))


def closure(orders, seed):
    """Subgroup generated by ``seed``: repeated addition from the identity."""
    out = {tuple(0 for _ in orders)}
    frontier = list(out)
    gens = [tuple(g) for g in seed]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = add(orders, a, g)
                if c not in out:
                    out.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(out)


def _factorize(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gaussian_binomial(n, k, p):
    if k < 0 or k > n:
        return 0
    num = prod(p ** (n - i) - 1 for i in range(k))
    den = prod(p ** (i + 1) - 1 for i in range(k))
    return num // den


def galois_number(k, p):
    """Number of subspaces of GF(p)^k, i.e. subgroups of C_p^k."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


def _conjugate(part, length):
    return [sum(1 for x in part if x >= i) for i in range(1, length + 2)]


def _sub_partitions(lam):
    """Partitions mu with mu_i <= lam_i, lam and mu non-increasing."""

    def grow(i, cap):
        if i == len(lam):
            yield ()
            return
        for m in range(min(cap, lam[i]), -1, -1):
            for rest in grow(i + 1, m):
                yield (m,) + rest

    yield from grow(0, lam[0] if lam else 0)


def _subgroups_of_type(lam, mu, p):
    """Subgroups of type mu in the abelian p-group of type lam
    (Delsarte 1948; Butler, Subgroup lattices and symmetric functions)."""
    top = lam[0]
    lc = _conjugate(lam, top)
    mc = _conjugate(mu, top)
    out = 1
    for i in range(top):
        out *= p ** (mc[i + 1] * (lc[i] - mc[i]))
        out *= gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
    return out


def subgroup_count(orders):
    """Number of subgroups of C_k0 x C_k1 x ..., as a product over Sylow parts."""
    types: dict[int, list[int]] = {}
    for k in orders:
        for p, e in _factorize(k).items():
            types.setdefault(p, []).append(e)
    total = 1
    for p, exps in types.items():
        lam = tuple(sorted(exps, reverse=True))
        count = sum(_subgroups_of_type(lam, mu, p) for mu in _sub_partitions(lam))
        if all(e == 1 for e in lam):
            galois = galois_number(len(lam), p)
            if count != galois:
                raise AssertionError(f"type count {count} != Galois number {galois} for p={p}")
        total *= count
    return total


def brute_force_subgroup_count(orders):
    """Subsets containing the identity and closed under addition (tiny groups only)."""
    elems = group_elements(orders)
    ident = elems[0]
    rest = elems[1:]
    count = 0
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = set(combo) | {ident}
            if all(add(orders, a, b) in s for a in s for b in s):
                count += 1
    return count


_BRUTE_FORCE_MAX_ORDER = 8
_expected_counts: dict[tuple, int] = {}


def expected_subgroup_count(orders):
    orders = tuple(orders)
    if orders not in _expected_counts:
        count = subgroup_count(orders)
        if prod(orders) <= _BRUTE_FORCE_MAX_ORDER:
            brute = brute_force_subgroup_count(orders)
            if brute != count:
                raise AssertionError(f"brute force {brute} != formula {count} for {orders}")
        _expected_counts[orders] = count
    return _expected_counts[orders]


def check_bijection_report(orders, report):
    """A verify_bijection report: ok, one entry per subgroup, each entry a
    genuine and distinct subgroup whose fan has index + 1 elements."""
    order = prod(orders)
    if not report.ok or not report.pairwise_distinct:
        return f"report for {orders} not ok"
    expected = expected_subgroup_count(orders)
    if report.subgroup_count != expected:
        return f"{orders}: {report.subgroup_count} subgroups, expected {expected}"
    seen = set()
    ident = tuple(0 for _ in orders)
    for entry in report.entries:
        elems = frozenset(tuple(e) for e in entry.subgroup.elements)
        if elems in seen:
            return f"{orders}: duplicate subgroup"
        seen.add(elems)
        if ident not in elems or any(add(orders, a, b) not in elems for a in elems for b in elems):
            return f"{orders}: entry is not a subgroup"
        proper = len(elems) < order
        if entry.is_proper != proper or entry.algebra_size != order // len(elems) + 1:
            return f"{orders}: wrong fan size or properness"
        if entry.minimal is not (True if proper else None) or not entry.stabilizer_ok:
            return f"{orders}: entry verdicts wrong"
    return None


# ---------------------------------------------------------------- algebras


class Table:
    """An algebra read back from its JSON file, with labels mapped to indices."""

    def __init__(self, data):
        self.orders = tuple(data["group"]["orders"])
        self.carrier = list(data["carrier"])
        self.meet = [list(r) for r in data["meet"]]
        self.action = [list(p) for p in data["action"]]
        self.index = {label: i for i, label in enumerate(self.carrier)}
        self.n = len(self.carrier)
        self.zero = next(x for x in range(self.n) if all(self.meet[x][y] == x for y in range(self.n)))
        self._valid = None
        self._covers = None

    def leq(self, x, y):
        return self.meet[x][y] == x

    def valid(self):
        if self._valid is None:
            self._valid = self._check_axioms()
        return self._valid

    def _check_axioms(self):
        n, m = self.n, self.meet
        if any(m[x][x] != x for x in range(n)):
            return False
        if any(m[x][y] != m[y][x] for x in range(n) for y in range(n)):
            return False
        if any(m[m[x][y]][z] != m[x][m[y][z]] for x in range(n) for y in range(n) for z in range(n)):
            return False
        for p in self.action:
            if any(p[m[x][y]] != m[p[x]][p[y]] for x in range(n) for y in range(n)):
                return False
        for p, q in itertools.combinations(self.action, 2):
            if any(p[q[x]] != q[p[x]] for x in range(n)):
                return False
        for p, k in zip(self.action, self.orders):
            for x in range(n):
                y = x
                for _ in range(k):
                    y = p[y]
                if y != x:
                    return False
        return True

    def generated(self, x):
        """Closure of {x} under meet and the generator permutations (finite
        orbits, so forward permutations suffice)."""
        members = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for u in frontier:
                new = [p[u] for p in self.action] + [self.meet[u][v] for v in members]
                for v in new:
                    if v not in members:
                        members.add(v)
                        nxt.append(v)
            frontier = nxt
        return members

    def covers(self):
        if self._covers is None:
            self._covers = self._cover_pairs()
        return self._covers

    def _cover_pairs(self):
        n = self.n
        out = set()
        for x in range(n):
            for y in range(n):
                if x != y and self.leq(x, y) and not any(
                    z not in (x, y) and self.leq(x, z) and self.leq(z, y) for z in range(n)
                ):
                    out.add((self.carrier[x], self.carrier[y]))
        return out


_EDGE_RE = re.compile(r'^\s*"([^"]*)" -> "([^"]*)"( \[style=dashed, label="g(\d+)", constraint=false\])?;$')


def check_hasse(table, exit_code, text, actions):
    if exit_code != 0:
        return f"hasse exit {exit_code}"
    covers, arcs = set(), set()
    for line in text.splitlines():
        m = _EDGE_RE.match(line)
        if m is None:
            continue
        if m.group(3):
            arcs.add((m.group(1), m.group(2), int(m.group(4))))
        else:
            covers.add((m.group(1), m.group(2)))
    if covers != table.covers():
        return "hasse covering relation differs"
    expected_arcs = set()
    if actions:
        expected_arcs = {
            (table.carrier[x], table.carrier[p[x]], i)
            for i, p in enumerate(table.action)
            for x in range(table.n)
        }
    if arcs != expected_arcs:
        return "hasse action arcs differ"
    return None


def check_validate(table, exit_code, payload):
    if not table.valid():
        return "generated algebra is not valid"
    if exit_code != 0 or payload.get("valid") is not True or payload.get("axiom") is not None:
        return f"validate reported {payload.get('axiom')!r} (exit {exit_code})"
    return None


def check_minimal_fan(table, exit_code, payload):
    if exit_code != 0 or payload.get("minimal") is not True:
        return f"fan not reported as minimal (exit {exit_code})"
    if payload.get("checked") != table.n - 1 or payload.get("counterexample") is not None:
        return "fan minimality payload inconsistent"
    if payload.get("generator") == table.carrier[table.zero]:
        return "zero reported as generator"
    return None


def check_minimal_tower(table, exit_code, payload, lower_labels):
    """Towers fail at their first lower atom (in carrier order): it generates
    only the lower level, a proper subalgebra."""
    if exit_code != 1 or payload.get("minimal") is not False:
        return f"tower not reported as non-minimal (exit {exit_code})"
    label = payload.get("counterexample")
    if label not in table.index:
        return "tower counterexample missing"
    c = table.index[label]
    if c == table.zero or len(table.generated(c)) >= table.n:
        return "tower counterexample generates the whole algebra"
    first_lower = next(x for x in range(table.n) if table.carrier[x] in lower_labels)
    if c != first_lower:
        return "tower counterexample is not the first lower atom"
    nonzero_before = sum(1 for x in range(c) if x != table.zero)
    if payload.get("checked") != nonzero_before + 1:
        return "tower checked count wrong"
    gen = payload.get("generator")
    if gen not in table.index or len(table.generated(table.index[gen])) != table.n:
        return "tower generator does not generate"
    return None


def check_decompose(table, exit_code, payload, subgroup):
    if exit_code != 0:
        return f"decompose exit {exit_code}"
    got = sorted(tuple(e) for e in payload["subgroup"]["elements"])
    if got != sorted(subgroup):
        return "decompose returned the wrong subgroup"
    if payload.get("factor_size") != 1:
        return "fan factor is not the one-element algebra"
    iso = payload["isomorphism"]["to"]
    if sorted(iso) != sorted(table.carrier):
        return "decompose isomorphism is not a bijection"
    return None


def check_simplicity_fan(table, exit_code, payload):
    """A coset fan has only the trivial congruences: identifying an atom with
    anything forces it, its orbit, hence every atom, onto zero."""
    if exit_code != 0:
        return f"simplicity exit {exit_code}"
    if payload.get("congruences") != 2 or payload.get("simple") is not True:
        return "fan reported non-simple"
    if payload.get("excluded_quotients") != []:
        return "fan reported proper quotients"
    if payload.get("generator") == table.carrier[table.zero]:
        return "zero reported as generator"
    return None


# Quasi-identities sent by the analyze workload, each with a plain-Python
# evaluation over (meet, action) tables.  ``holds`` is a theorem for every
# semilattice over a group, so no scan is needed to know the answer.
QUASI_IDENTITIES = {
    "transitivity": {
        "text": "x^y=x & y^z=y -> x^z=x",
        "vars": ("x", "y", "z"),
        "holds": True,
    },
    "monotone": {
        "text": "x^y=x -> g0(x)^g0(y)=g0(x)",
        "vars": ("x", "y"),
        "holds": True,
    },
    "antisym": {
        "text": "x^y=y -> x=y",
        "vars": ("x", "y"),
        "holds": False,
    },
    "absorb": {
        "text": "-> x^y=x",
        "vars": ("x", "y"),
        "holds": False,
    },
}


def _qi_premises_and_conclusion(name, t, v):
    m = t.meet
    if name == "antisym":
        x, y = v
        return m[x][y] == y, x == y
    if name == "absorb":
        x, y = v
        return True, m[x][y] == x
    raise KeyError(name)


def _first_failure(name, t):
    for combo in itertools.product(range(t.n), repeat=len(QUASI_IDENTITIES[name]["vars"])):
        premises, conclusion = _qi_premises_and_conclusion(name, t, combo)
        if premises and not conclusion:
            return combo
    return None


def check_quasi(table, name, exit_code, payload):
    spec = QUASI_IDENTITIES[name]
    if spec["holds"]:
        if exit_code != 0 or payload.get("holds") is not True or payload.get("witness") is not None:
            return f"{name} reported failing"
        return None
    if exit_code != 1 or payload.get("holds") is not False:
        return f"{name} reported holding"
    witness = payload.get("witness") or {}
    if sorted(witness) != sorted(spec["vars"]) or any(w not in table.index for w in witness.values()):
        return f"{name} witness malformed"
    combo = tuple(table.index[witness[v]] for v in spec["vars"])
    premises, conclusion = _qi_premises_and_conclusion(name, table, combo)
    if not premises or conclusion:
        return f"{name} witness does not replay"
    if combo != _first_failure(name, table):
        return f"{name} witness is not the first failing valuation"
    return None


# ---------------------------------------------------------------- irrationals


def _sign(n):
    return (n > 0) - (n < 0)


def sign_a_b_sqrt(a, b, d):
    """Exact sign of a + b*sqrt(d) for square-free d >= 2, by squaring."""
    if b == 0:
        return _sign(a)
    if a == 0 or _sign(a) == _sign(b):
        return _sign(b) if a == 0 else _sign(a)
    s = _sign(a * a - b * b * d)
    return s if a > 0 else -s


def irrational_minus_rational(alpha, num, den):
    """Sign of alpha - num/den for alpha = (p + q sqrt d)/r, r > 0, den >= 0.
    den == 0 encodes +inf (num > 0) or -inf (num < 0)."""
    p, q, r, d = alpha
    if den == 0:
        return -_sign(num)
    return sign_a_b_sqrt(p * den - num * r, q * den, d)


def parse_irrational(text):
    m = re.fullmatch(r"\((-?\d+)\+(-?\d+)\*sqrt:(\d+)\)/(\d+)", text)
    p, q, d, r = (int(m.group(i)) for i in (1, 2, 3, 4))
    return p, q, r, d


def stern_brocot_parents(p, q):
    """The two fractions whose mediant is p/q in the Stern-Brocot tree
    rooted at 0/1 between -1/0 and 1/0 (q >= 1, gcd(p, q) = 1)."""
    if q == 1:
        if p > 0:
            return (p - 1, 1), (1, 0)
        if p < 0:
            return (-1, 0), (p + 1, 1)
        return (-1, 0), (1, 0)
    l2 = pow(p % q, -1, q)
    l1 = (p * l2 - 1) // q
    return (l1, l2), (p - l1, q - l2)


def check_balpha(alpha_text, beta_text, exit_code, payload):
    """alpha < p/q < beta exactly, no smaller denominator fits (the interval
    lies between p/q's Stern-Brocot parents), and the identity separates."""
    if exit_code != 0:
        return f"balpha exit {exit_code}"
    alpha, beta = parse_irrational(alpha_text), parse_irrational(beta_text)
    p, q = payload["between"]
    if q < 1 or irrational_minus_rational(alpha, p, q) >= 0 or irrational_minus_rational(beta, p, q) <= 0:
        return f"{p}/{q} is not strictly between {alpha_text} and {beta_text}"
    (l1, l2), (h1, h2) = stern_brocot_parents(p, q)
    if irrational_minus_rational(alpha, l1, l2) < 0 or irrational_minus_rational(beta, h1, h2) > 0:
        return f"{p}/{q} is not the minimal-denominator rational between"
    report = payload["report"]
    if report.get("separates") is not True or report.get("p") != p or report.get("q") != q:
        return "separating identity not certified"
    for side, holds in (("alpha", True), ("beta", False)):
        cert = report[side]
        a, b, d = cert["sign_terms"]["a"], cert["sign_terms"]["b"], cert["sign_terms"]["d"]
        if cert["holds"] is not holds or cert["squares"] != {"a^2": a * a, "b^2*d": b * b * d}:
            return f"{side} certificate wrong"
        if (sign_a_b_sqrt(a, b, d) > 0) is not holds:
            return f"{side} certificate sign wrong"
    return None


def load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
