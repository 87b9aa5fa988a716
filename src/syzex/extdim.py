"""Closure universes, the bullet operation, [T]_n layers, syzygy categories,
representation-type certificates, and the extension-dimension bound engine.

A Universe is a finite, iso-deduplicated window onto A-mod: a worklist
closure of seed modules under summands, syzygies, cosyzygies and extension
middle terms, bounded by total dimension.  Each window consumer reads its
bounds from the Universe it is given (its UniverseParams), and the probes of
one Universe share one window at d + 1.  The bullet of two member sets
enumerates extension classes between bounded direct sums up to the copy
automorphisms of both sums: one orbit plan per (sub, quot) pair reduces one
side's copies to full-rank RREF representatives, merges these under the
other side's copy groups, and yields, per orbit, a grid of coefficient
tuples, one per (sub slot, quot slot), in the Ext^1 basis of that slot
pair.  The window keeps no Ext^1 state: ext1_space memoizes each space on
the algebra, and the middle term takes, per slot, the memoized
Ext1Space.corners of that tuple, the corner blocks of that linear
combination of basis classes.  The Krull-Schmidt factors of a pair's
middles are memoized on the algebra too, by the two multisets' module keys
and multiplicities, each factor once in the order first met, and every
window interns them in that order; the plan and its budget check still run
on every call.  So the windows at d and d + 1 share every solve and every
pair's factors, and the window at d + 1 interns what it shares as a window
built alone would.
An isomorphism class is its interned module: the registry maps each
indecomposable within the bound to the first form of its class that it
met, and the window, its bullets and layers hold those modules; two of
them are equal exactly when they are one object.  A factor above the bound is kept as it is, unregistered, and
the closure records it as clipped without comparing it to any other; the
bullet pairs only sums whose dimensions add up to at most the bound, so it
never meets one.  Every closure rule reads Krull-Schmidt factors, repeats
kept, and never groups them by isomorphism: syzygies are taken one
interned indecomposable at a time through homology.syzygy_summands,
memoized on the algebra, never by decomposing a whole Omega^n(M).
The interval engine propagates certified lower and upper bounds for ed of
the syzygy categories with full provenance.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import BudgetExceeded, ContradictoryFacts, SpecError
from .homology import cosyzygy, ext1_space, extension_middle, gldim_bounded, syzygy_summands
from . import linalg
from .linalg import Matrix, is_prime
from .rep import Representation, hom_space, indec_factors, is_iso, sort_key

HEURISTIC_INFINITE_THRESHOLD = 20


@dataclass
class UniverseParams:
    dim_bound: int
    mult_bound: int = 2
    member_cap: int = 5000
    ext_budget: int = 2 ** 20
    parts_cap: int = 2  # distinct classes in one summand of a bullet

    def __post_init__(self):
        if self.dim_bound < 1:
            raise SpecError("dim bound must cover the simple modules, got %d" % self.dim_bound)
        # a bound below 1 would turn a rule off and fake saturation, or stop the window at once
        bounds = (self.mult_bound, self.parts_cap, self.member_cap, self.ext_budget)
        if min(bounds) < 1:
            raise SpecError(
                "mult bound, parts cap, member cap and ext budget must be at least 1, got %d, %d, %d and %d" % bounds
            )


def _fingerprint(rep: Representation) -> tuple:
    ranks = tuple(m.rank() for m in rep.action)
    return (rep.dim, ranks, hom_space(rep, rep).dimension)


class ClassRegistry:
    def __init__(self):
        self.by_fp = {}
        self.by_key = {}

    def intern(self, rep: Representation):
        """(canonical module of rep's class, is_new).

        The canonical module is the first form of the class interned;
        generation is deterministic, so canonical modules and their sort
        order are stable.
        """
        key = rep.key()
        got = self.by_key.get(key)
        if got is not None:
            return got, False
        bucket = self.by_fp.setdefault(_fingerprint(rep), [])
        canon = next((c for c in bucket if is_iso(rep, c)), None)
        if canon is None:
            bucket.append(rep)
            canon = rep
        self.by_key[key] = canon
        return canon, canon is rep


class Universe:
    def __init__(self, algebra, params):
        self.algebra = algebra
        self.params = params
        self.registry = ClassRegistry()
        self.members = []
        self.member_set = set()
        self.clipped = {}  # (rule, dim items) -> first record of that clip
        self._grown = None

    @property
    def dim_bound(self):
        return self.params.dim_bound

    @property
    def is_clipped(self):
        return bool(self.clipped)

    @property
    def is_saturated(self):
        """Nothing clipped and every member strictly below the bound."""
        return not self.clipped and all(c.total_dim < self.dim_bound for c in self.members)

    def sorted_members(self):
        return sorted(self.members, key=sort_key)

    def grown(self) -> "Universe":
        """The window at dim bound d + 1, built once and shared by every probe."""
        if self._grown is None:
            self._grown = generate_universe(self.algebra, replace(self.params, dim_bound=self.dim_bound + 1))
        return self._grown

    def with_bullet_bounds(self, mult_bound: int, parts_cap: int = None) -> "Universe":
        """This window, sharing its members, registry and grown window, with
        the bullet's multiplicity bound and parts cap replaced; the closure
        is not redone.  Bullets are not memoized: each call enumerates its
        pairs anew, reading the extension middles memoized on the algebra."""
        view = copy.copy(self)
        if parts_cap is None:
            parts_cap = self.params.parts_cap
        view.params = replace(self.params, mult_bound=mult_bound, parts_cap=parts_cap)
        return view

    def clip(self, rule: str, dim: dict, source: str):
        """Record what a rule left outside the window, once per (rule, dim)."""
        self.clipped.setdefault((rule, tuple(dim.items())), {"rule": rule, "dim": dim, "source": source})

    def _omega_step(self, classes) -> list:
        """Interned summands of the syzygies of classes, each once, in first-found order."""
        return list(dict.fromkeys(self.registry.intern(f)[0] for cls in classes for f in syzygy_summands(cls)))


def _multisets(classes, max_parts, max_mult, max_dim):
    """All multisets from sorted classes: ((cls, mult), ...) with bounds."""
    classes = sorted(classes, key=sort_key)
    out = []

    def rec(start, picked, dim_left, parts_left):
        if picked:
            out.append(tuple(picked))
        if parts_left == 0:
            return
        for idx in range(start, len(classes)):
            cls = classes[idx]
            d = cls.total_dim
            if d == 0 or d > dim_left:
                continue
            for mult in range(1, max_mult + 1):
                if mult * d > dim_left:
                    break
                picked.append((cls, mult))
                rec(idx + 1, picked, dim_left - mult * d, parts_left - 1)
                picked.pop()

    rec(0, [], max_dim, max_parts)
    return out


def generate_universe(algebra, params: UniverseParams) -> Universe:
    """Worklist closure of the simples, projectives and injectives under
    summands, syzygies, cosyzygies and extension middle terms."""
    uni = Universe(algebra, params)
    heap = []
    seq = itertools.count()

    def add(rep, rule, source=""):
        if rep.total_dim > params.dim_bound:
            uni.clip(rule, rep.dim_map(), source)
            return
        cls, new = uni.registry.intern(rep)
        if new or cls not in uni.member_set:
            if len(uni.members) >= params.member_cap:
                raise BudgetExceeded("universe member cap %d reached" % params.member_cap)
            uni.members.append(cls)
            uni.member_set.add(cls)
            heapq.heappush(heap, (sort_key(cls), next(seq), cls))

    for v in range(algebra.n_vertices):
        for rep in (algebra.simple(v), algebra.projective(v), algebra.injective(v)):
            for f in indec_factors(rep):
                add(f, "seed")

    mid_cap = 2 * params.dim_bound  # max middle-term dimension during closure
    processed = []
    while heap:
        _, _, cls = heapq.heappop(heap)
        for f in syzygy_summands(cls):
            add(f, "syzygy", source=str(cls.dim))
        for f in indec_factors(cosyzygy(cls, 1)):
            add(f, "cosyzygy", source=str(cls.dim))
        partners = processed + [cls]
        for other in partners:
            # a class paired with itself is one pair, visited once
            pairs = ((cls, cls),) if other is cls else ((cls, other), (other, cls))
            for sub, quot in pairs:
                # a new middle by sub^j needs j independent classes in
                # Ext^1(quot, sub), so j stops at its dimension
                for j in range(1, min(params.mult_bound, ext1_space(quot, sub).dimension) + 1):
                    if sub.total_dim * j + quot.total_dim > mid_cap:
                        # truncated extension window is honest clipping
                        where = {"sub": str(sub.dim), "quot": str(quot.dim)}
                        uni.clip("ext-window", where, "middle above cap %d not expanded" % mid_cap)
                        break
                    for summand in _pair_middles(uni, ((sub, j),), ((quot, 1),)):
                        add(summand, "ext", source="%s by %s^%d" % (quot.dim, sub.dim, j))
        processed.append(cls)
    return uni


def _gaussian_count(p: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def _plan_side(p, line_ms, other_ms, dims):
    """One side of the orbit plan: line block i holds line_ms[i]'s mult lines,
    each cut into chunks dims[i][j], repeated other_ms[j]'s mult times.
    Returns the blocks (mult, space_dim, chunk_dims) and their count."""
    blocks = []
    count = 1
    for (_, mult), row in zip(line_ms, dims):
        chunks = tuple(m for m, (_, k) in zip(row, other_ms) for _ in range(k))
        count *= _gaussian_count(p, sum(chunks), mult)
        blocks.append((mult, sum(chunks), chunks))
    return blocks, count


def _orbit_plan(p, sub_ms, quot_ms, dims):
    """Representative plan for cocycle matrices modulo copy automorphisms.

    dims[i][j] is the dimension of Ext^1(quot class j, sub class i).  Row
    operations inside one block of identical sub copies and column
    operations inside one block of identical quotient copies change the
    middle term by an isomorphism, and a block of deficient rank splits off
    a copy already covered by a smaller multiset.  The plan enumerates, on
    the cheaper side (the line side), full-rank RREF coefficient matrices
    per block, which quotients out that side's copy groups; the other
    side's copy groups still act on these representatives, and
    _coefficient_grids keeps one per orbit.  Returns (mode, blocks, count,
    copies): mode "rows"/"cols", blocks as _plan_side gives them, count the
    one-sided representative total, which is 0 when there is none (in
    particular when Ext^1 between the sums is 0), and copies the other
    side's multiplicities.
    """
    rows, rows_count = _plan_side(p, sub_ms, quot_ms, dims)
    cols, cols_count = _plan_side(p, quot_ms, sub_ms, list(zip(*dims)))
    if rows_count <= cols_count:
        return "rows", rows, rows_count, tuple([k for _, k in quot_ms])
    return "cols", cols, cols_count, tuple([j for _, j in sub_ms])


@functools.cache
def _unit_generator(p):
    """A generator of GF(p)^*, or None for p above 2^16, where the search is
    skipped: a generator left out only merges fewer grids."""
    if p > 2 ** 16:
        return None
    primes = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


def _copy_moves(p, blocks, copies, pools):
    """Generators of the other side's copy groups, each as one permutation
    per block of that block's pool of RREFs; [] when the groups act
    trivially on the plan.

    GL_k(F_p) on the k copies of one class is generated by three k x k
    matrices: the transvection I + E_01, which adds copy 0 to copy 1, the
    cyclic shift, which moves copy a to copy a + 1 and the last to the
    first, and, for p > 2, diag(omega, 1, ..., 1) with omega generating
    GF(p)^*.  A generator g acts on each block as g (x) I_w on its class's
    chunks (w the chunk width) and as the identity elsewhere, and the moved
    lines are reduced back to RREF (linalg.moved_rrefs), so the line side's
    copy groups stay quotiented out.
    """
    if copies == (1,):  # one copy of one class, as in every closure pair
        return []
    starts = itertools.accumulate(copies, initial=0)
    # copies of a class with no Ext^1 to the line side never move a grid
    acting = [(s, k) for s, k in zip(starts, copies) if any(chunks[s] for _, _, chunks in blocks)]
    single = all(k == 1 for _, k in acting)
    if single and (p == 2 or len(acting) < 2):
        return []
    omega = _unit_generator(p) if p > 2 else None
    gens = []  # (first slot, k, the generator's entries (a, b, g_ab))
    for s, k in acting:
        eye = [(a, a, 1) for a in range(k)]
        if k > 1:
            gens += [(s, k, eye + [(0, 1, 1)]), (s, k, [(a, (a + 1) % k, 1) for a in range(k)])]
        # omega times the identity moves nothing, so with single copies the
        # last class's scaling follows from the others'
        if omega and not (single and s == acting[-1][0]):
            gens.append((s, k, [(0, 0, omega)] + eye[1:]))
    if not gens:
        return []
    index = [{rows: i for i, rows in enumerate(pool)} for pool in pools]
    moves = []
    for s, k, g in gens:
        move = []
        for (_, space, chunks), pool, at in zip(blocks, pools, index):
            w, off = chunks[s], sum(chunks[:s])
            if w == 0:
                move.append(range(len(pool)))
                continue
            entries = [(j, j, 1) for j in itertools.chain(range(off), range(off + k * w, space))]
            entries += [(off + a * w + t, off + b * w + t, c) for a, b, c in g for t in range(w)]
            moved = linalg.moved_rrefs(pool, Matrix.from_entries(p, space, space, entries))
            move.append(tuple([at[rows] for rows in moved]))
        moves.append(move)
    return moves


def _orbit_leaders(combos, moves):
    """The first combo of each orbit under the moves, in plan order.

    A leader's orbit is explored when the plan meets it; every later member
    waits in the seen-set until the plan reaches it, and is dropped then.
    """
    seen = set()
    for combo in combos:
        if combo in seen:
            seen.remove(combo)
            continue
        yield combo
        seen.add(combo)
        frontier = [combo]
        while frontier:
            at = frontier.pop()
            for move in moves:
                to = tuple([perm[i] for perm, i in zip(move, at)])
                if to not in seen:
                    seen.add(to)
                    frontier.append(to)
        seen.remove(combo)


def _coefficient_grids(p, mode, blocks, copies):
    """Yield, per orbit of the plan's representatives (one full-rank RREF
    per block) under the other side's copy groups, the first
    representative's grid of coefficient tuples: row i, column j holds the
    Ext^1 coordinates for sub slot i, quot slot j.  Only the leaders'
    lines are cut into tuples."""
    pools = [linalg.rref_pool(p, mult, space) for mult, space, _ in blocks]
    cuts = [list(itertools.pairwise(itertools.accumulate(chunks, initial=0))) for _, _, chunks in blocks]
    combos = itertools.product(*[range(len(pool)) for pool in pools])
    moves = _copy_moves(p, blocks, copies, pools)
    if moves:
        combos = _orbit_leaders(combos, moves)
    for combo in combos:
        lines = tuple(
            tuple(line[a:b] for a, b in cut)
            for pool, i, cut, (mult, space, _) in zip(pools, combo, cuts, blocks)
            for line in map(Matrix(p, mult, space, pool[i]).row, range(mult))
        )
        yield lines if mode == "rows" else tuple(zip(*lines))


def _pair_middles(uni: Universe, sub_ms, quot_ms) -> list:
    """The classes of the indecomposable summands of the middles for one
    (sub, quot) multiset pair, each once: a summand within the window bound
    as its interned module, a larger one as the factor itself, unregistered.

    The plan and its budget check run on every call; the factors are built
    once per pair of multisets and memoized on the algebra, and each call
    interns them, in the order first met, into its own window."""
    spaces = [[ext1_space(x, y) for x, _ in quot_ms] for y, _ in sub_ms]
    p = uni.algebra.p
    plan = _orbit_plan(p, sub_ms, quot_ms, [[s.dimension for s in row] for row in spaces])
    count = plan[2]
    if count == 0:
        return []
    budget = uni.params.ext_budget
    if count > budget:
        raise BudgetExceeded(
            "%d extension-class representatives for one pair exceed budget %d" % (count, budget)
        )
    key = (tuple([(c.key(), j) for c, j in sub_ms]), tuple([(c.key(), k) for c, k in quot_ms]))
    factors = uni.algebra.memo("middles", key, _middle_factors, p, plan, spaces, sub_ms, quot_ms)
    d = uni.params.dim_bound
    return list(dict.fromkeys([uni.registry.intern(f)[0] if f.total_dim <= d else f for f in factors]))


def _middle_factors(p, plan, spaces, sub_ms, quot_ms) -> tuple:
    """The Krull-Schmidt factors of the middle of every orbit of the plan,
    each key once, in the order first met."""
    mode, blocks, _, copies = plan
    yi = [i for i, (_, j) in enumerate(sub_ms) for _ in range(j)]  # the class of each sub slot
    xi = [i for i, (_, k) in enumerate(quot_ms) for _ in range(k)]
    ys = [sub_ms[i][0] for i in yi]
    xs = [quot_ms[i][0] for i in xi]
    out = {}
    for grid in _coefficient_grids(p, mode, blocks, copies):
        corners = [[spaces[a][b].corners(c) for b, c in zip(xi, row)] for a, row in zip(yi, grid)]
        for f in indec_factors(extension_middle(ys, xs, corners)):
            out.setdefault(f.key(), f)
    return tuple(out.values())


def bullet(uni: Universe, left, right) -> frozenset:
    """Indecomposables of the bullet of add(left) with add(right).

    Sequences run 0 -> L -> E -> R -> 0 with the sub L a bounded sum from
    `left` and the quotient R a bounded sum from `right`; the zero class
    keeps left | right inside the result.  Both sums have at most the
    universe's parts_cap distinct classes; a sub sum takes each class at
    most mult_bound times, a quotient sum at most max(dim_bound, mult_bound)
    times.
    """
    params = uni.params
    mb, parts_cap = params.mult_bound, params.parts_cap
    left = frozenset(left)
    right = frozenset(right)
    result = set(left | right)
    if left and right:
        d = params.dim_bound
        sub_sums = _multisets(left, parts_cap, mb, d - 1)
        quot_sums = sorted(
            _multisets(right, parts_cap, max(d, mb), d - 1),
            key=lambda ms: sum(c.total_dim * m for c, m in ms),
        )
        quot_dims = [sum(c.total_dim * m for c, m in ms) for ms in quot_sums]
        for sub_ms in sub_sums:
            sub_dim = sum(c.total_dim * m for c, m in sub_ms)
            for quot_ms, quot_dim in zip(quot_sums, quot_dims):
                if sub_dim + quot_dim > d:
                    break
                result.update(_pair_middles(uni, sub_ms, quot_ms))
    return frozenset(result)


def layer(uni: Universe, gens, n: int) -> frozenset:
    """[T]_n inside the universe window: layer 1 is add(T), layer k + 1 the
    bullet of T with layer k.  That bullet depends only on layer k, so from
    the first k whose layer equals the one before, every layer is the same,
    and the walk stops there."""
    gens = frozenset(gens)
    if n < 0:
        raise SpecError("layer index must be nonnegative")
    if n == 0 or not gens:
        return frozenset()
    got = gens
    for _ in range(n - 1):
        nxt = bullet(uni, gens, got)
        if nxt == got:
            break
        got = nxt
    return got


def bounded_containment(lay, members):
    """None if members lie in the layer lay; else the first missing class."""
    for cls in sorted(members, key=sort_key):
        if cls not in lay:
            return cls
    return None


@dataclass
class SyzygyCategory:
    n: int
    members: tuple  # interned modules, in sort_key order
    universe: Universe
    oversized: tuple = ()  # syzygy summands beyond the window bound


def syzygy_category(universe: Universe, n: int) -> SyzygyCategory:
    """Indecomposables of the n-th syzygy category seen through the window."""
    if n < 0:
        raise SpecError("syzygy index must be nonnegative")
    algebra = universe.algebra
    if n == 0:
        return SyzygyCategory(0, tuple(universe.sorted_members()), universe)
    # Omega is additive, so one walk of the whole layer reaches each class once
    found = universe.sorted_members()
    for _ in range(n):
        found = universe._omega_step(found)
    oversized = tuple(c for c in found if c.total_dim > universe.dim_bound)
    found = set(found).union(universe.registry.intern(algebra.projective(v))[0] for v in range(algebra.n_vertices))
    return SyzygyCategory(n, tuple(sorted(found, key=sort_key)), universe, oversized)


@dataclass
class SyzygyFinitenessProbe:
    n: int
    dim_bound: int
    certified: bool
    tier: str
    members: tuple = ()
    details: str = ""


def _omega_closure(universe: Universe, base_members):
    """Close a member list under syzygies and summands; (members, clipped).
    The walk stops at its first member of total dimension at least the
    bound, with the members found so far: a clipped closure certifies
    nothing, whatever lies past it."""
    work = list(base_members)
    seen = set(work)
    idx = 0
    while idx < len(work):
        cls = work[idx]
        idx += 1
        if cls.total_dim >= universe.dim_bound:
            return sorted(seen, key=sort_key), True
        for c in universe._omega_step([cls]):
            if c not in seen:
                seen.add(c)
                work.append(c)
                if len(work) > universe.params.member_cap:
                    raise BudgetExceeded("syzygy closure exceeded member cap")
    return sorted(seen, key=sort_key), False


def syzygy_finiteness_probe(universe: Universe, n: int) -> SyzygyFinitenessProbe:
    """Certificate hunt for "the n-th syzygy category is representation-finite".

    Tier 1: the whole window saturates unclipped (representation-finite
    algebra).  Tier 2: the window's n-th syzygies close under further
    syzygies strictly inside the bound, and the closed list is unchanged
    when the window grows by one (universe.grown(), shared by every probe).
    """
    cat = syzygy_category(universe, n)
    dim_bound = universe.dim_bound
    if universe.is_saturated:
        return SyzygyFinitenessProbe(
            n, dim_bound, True, "rep-finite-window", cat.members,
            "universe saturated strictly below the bound",
        )
    closed, clipped = _omega_closure(universe, cat.members)
    if clipped or cat.oversized:
        return SyzygyFinitenessProbe(
            n, dim_bound, False, "window", tuple(closed), "syzygy closure touches the window bound"
        )
    bigger = syzygy_category(universe.grown(), n)
    closed2, clipped2 = _omega_closure(bigger.universe, bigger.members)
    stable = not clipped2 and len(closed) == len(closed2) and all(
        any(is_iso(a, b) for b in closed2) for a in closed
    )
    if stable:
        return SyzygyFinitenessProbe(
            n, dim_bound, True, "window-stable", tuple(closed),
            "syzygy closure identical at dim bounds %d and %d" % (dim_bound, dim_bound + 1),
        )
    return SyzygyFinitenessProbe(
        n, dim_bound, False, "window", tuple(closed), "closure changed under window growth"
    )


# -- representation type ------------------------------------------------


@dataclass
class RepTypeCertificate:
    verdict: str  # "finite" | "infinite" | "unknown"
    method: str  # "tits_form" | "enumeration" | "heuristic_count" | "none"
    certified: bool
    members: tuple = ()
    witness: str = ""


def tits_classification(algebra) -> str:
    """Dynkin / Euclidean / wild-indefinite via the symmetrized Euler form."""
    if not algebra.is_hereditary():
        return "not-hereditary"
    n = algebra.n_vertices
    gram = [[0] * n for _ in range(n)]
    for v in range(n):
        gram[v][v] = 2
    q = algebra.quiver
    for ai in range(len(q.arrows)):
        u, w = q.arrow_source(ai), q.arrow_target(ai)
        if u == w:
            gram[u][u] -= 2
        else:
            gram[u][w] -= 1
            gram[w][u] -= 1
    a = [[Fraction(x) for x in row] for row in gram]
    definite = True
    for i in range(n):
        if a[i][i] < 0:
            return "wild-indefinite"
        if a[i][i] == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return "wild-indefinite"
            definite = False
            continue
        for r in range(i + 1, n):
            if a[r][i]:
                f = a[r][i] / a[i][i]
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return "Dynkin" if definite else "Euclidean"


def rep_type_certificate(algebra, params: UniverseParams, universe: Universe = None) -> RepTypeCertificate:
    """The window is built from params only when the Tits form leaves the type open."""
    tits = tits_classification(algebra)
    if tits in ("Euclidean", "wild-indefinite"):
        return RepTypeCertificate(
            "infinite", "tits_form", True,
            witness="underlying graph is %s (Euler form not positive definite)" % tits,
        )
    if universe is None:
        universe = generate_universe(algebra, params)
    if universe.is_saturated:
        method = "tits_form" if tits == "Dynkin" else "enumeration"
        return RepTypeCertificate(
            "finite", method, True, tuple(universe.sorted_members()),
            witness="closure saturated strictly below dim bound %d" % universe.dim_bound,
        )
    by_dim = {}
    for cls in universe.members:
        by_dim.setdefault(cls.dim, []).append(cls)
    for dim, bucket in sorted(by_dim.items()):
        if len(bucket) >= HEURISTIC_INFINITE_THRESHOLD:
            return RepTypeCertificate(
                "infinite", "heuristic_count", False,
                witness="%d pairwise non-isomorphic indecomposables share dim %s" % (len(bucket), dim),
            )
    return RepTypeCertificate("unknown", "none", False)


# -- extension-dimension engine ------------------------------------------


@dataclass(frozen=True)
class EdFact:
    i: int
    kind: str  # "lower" | "upper"
    value: int
    rule: str
    detail: str
    premises: tuple = ()

    def describe(self) -> str:
        base = "%s %d at i=%d [%s] %s" % (self.kind, self.value, self.i, self.rule, self.detail)
        if self.premises:
            base += " <= " + "; ".join(p.describe() for p in self.premises)
        return base


@dataclass
class EdInterval:
    algebra_id: str
    i: int
    lower: int
    upper: int
    lower_fact: EdFact
    upper_fact: EdFact
    notes: list = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra_id,
            "i": self.i,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "lower_provenance": self.lower_fact.describe(),
            "upper_provenance": self.upper_fact.describe(),
            "notes": list(self.notes),
        }


def ed_report(
    algebra, indices, params: UniverseParams, external_facts=(), syzygy_probes=(), algebra_id="algebra"
) -> list:
    """Certified [lower, upper] intervals for ed of the i-th syzygy categories.

    Bound rules, each tagged in the provenance chain:
      R1  representation type at i=0 (finite => exact 0; certified infinite => lower 1)
      R2  upper ll(A)-1 at i=0
      R3  upper gldim(A) at i=0
      R4  upper ll(A)-2 at every i>=1, A nonsemisimple
      R5  nesting: ed at i+1 <= ed at i
      R6  syzygy shift: bounds move by one per index step
      R7  gldim g finite => exact 0 at i=g
      R8  certified syzygy-finiteness probe => exact 0 at i=n
    External facts enter as axioms with their citation.
    """
    indices = sorted(set(indices))
    if any(i < 0 for i in indices) or any(n < 0 for n in syzygy_probes):
        raise SpecError("syzygy indices and probes are nonnegative")
    ll = algebra.loewy_length()
    semisimple = algebra.is_semisimple()
    gdim = gldim_bounded(algebra)
    notes = []

    # one window at d serves the certificate and every probe; without probes
    # the certificate builds it only when the Tits form leaves the type open
    universe = generate_universe(algebra, params) if syzygy_probes else None
    rep_cert = rep_type_certificate(algebra, params, universe)
    probes = {n: syzygy_finiteness_probe(universe, n) for n in syzygy_probes}

    external_facts = list(external_facts)
    imax = max(
        indices
        + [gdim if gdim is not None else 0]
        + list(probes)
        + [f["i"] for f in external_facts]
        + [0]
    )
    lower = {}
    upper = {}

    def push(fact: EdFact):
        table = lower if fact.kind == "lower" else upper
        cur = table.get(fact.i)
        if fact.kind == "lower":
            if cur is None or fact.value > cur.value:
                table[fact.i] = fact
                return True
        else:
            if cur is None or fact.value < cur.value:
                table[fact.i] = fact
                return True
        return False

    for i in range(imax + 1):
        push(EdFact(i, "lower", 0, "axiom", "extension dimension is nonnegative"))
    if gdim is not None:
        push(EdFact(0, "upper", gdim, "R3", "ed <= gldim = %d" % gdim))
        push(EdFact(gdim, "upper", 0, "R7", "gldim = %d: syzygy category %d is projective, hence finite" % (gdim, gdim)))
    push(EdFact(0, "upper", ll - 1, "R2", "ed <= loewy_length - 1 = %d" % (ll - 1)))
    if not semisimple:
        for i in range(1, imax + 1):
            push(EdFact(i, "upper", ll - 2, "R4", "nonsemisimple: ed of syzygy categories <= loewy_length - 2"))
    if rep_cert.verdict == "finite" and rep_cert.certified:
        push(EdFact(0, "upper", 0, "R1", "representation-finite (%s): ed = 0" % rep_cert.method))
    elif rep_cert.verdict == "infinite" and rep_cert.certified:
        push(EdFact(0, "lower", 1, "R1", "representation-infinite (%s)" % rep_cert.witness))
    elif rep_cert.verdict == "infinite" and not rep_cert.certified:
        notes.append(
            "heuristic only (not certified, not propagated): %s suggests ed >= 1 at i=0"
            % rep_cert.witness
        )
    for n, probe in probes.items():
        if probe.certified:
            push(EdFact(n, "upper", 0, "R8", "syzygy category %d certified finite (%s)" % (n, probe.tier)))
        else:
            notes.append("syzygy-finiteness probe at i=%d not certified: %s" % (n, probe.details))
    for fact in external_facts:
        i = fact["i"]
        cite = "external: %s" % fact.get("citation", "unsourced")
        kind = fact["kind"]
        value = fact["value"]
        if kind in ("lower", "exact"):
            push(EdFact(i, "lower", value, "external", cite))
        if kind in ("upper", "exact"):
            push(EdFact(i, "upper", value, "external", cite))

    changed = True
    while changed:
        changed = False
        for i in range(imax + 1):
            up = upper.get(i)
            if up is not None:
                if i + 1 <= imax:
                    f = EdFact(i + 1, "upper", up.value, "R5", "nested syzygy categories", (up,))
                    changed |= push(f)
                if i - 1 >= 0:
                    f = EdFact(i - 1, "upper", up.value + 1, "R6", "ed at i-1 <= ed at i + 1", (up,))
                    changed |= push(f)
            lo = lower.get(i)
            if lo is not None:
                if i - 1 >= 0:
                    f = EdFact(i - 1, "lower", lo.value, "R5", "nested syzygy categories", (lo,))
                    changed |= push(f)
                if i + 1 <= imax and lo.value - 1 >= 0:
                    f = EdFact(i + 1, "lower", lo.value - 1, "R6", "ed at i+1 >= ed at i - 1", (lo,))
                    changed |= push(f)

    out = []
    for i in indices:
        lo, up = lower[i], upper[i]
        if lo.value > up.value:
            raise ContradictoryFacts(
                "at i=%d lower %d exceeds upper %d\n  lower: %s\n  upper: %s"
                % (i, lo.value, up.value, lo.describe(), up.describe()),
                lo, up,
            )
        interval = EdInterval(algebra_id, i, lo.value, up.value, lo, up, list(notes))
        out.append(interval)
    return out
