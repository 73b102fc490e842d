"""Seeded request lists for the three workloads.

Everything here is the benchmark's own code: no instance is drawn from
``repro.diffcheck`` (or any other part of ``src/``), so a change to the
program's fuzzers cannot change a workload.  Constraints travel as the
line syntax the daemon parses (``prefix :: lhs => rhs``, ``~>`` for
backward, ``()`` for the empty path).

Each request is a dict holding the wire ``payload`` plus what the
output checks need: ``kind``, the ``truth`` known by construction
(``"true"`` or None), the ``group`` of α-renamed copies it belongs to,
and the instance in the benchmark's own representation (``inst``).
"""

from __future__ import annotations

import itertools
import random

# A constraint is (prefix, lhs, rhs, direction) with paths as tuples of
# labels; direction is "=>" (forward) or "~>" (backward).

#: The serve-hard instance population is fixed: the oracle reference
#: (reference/serve-hard.json) then covers every run seed, and a round
#: costs the same whatever the seed.  Its (order-preserving) α-renamings
#: are fixed too; the run seed picks the request order.
HARD_POOL_SEED = 0
HARD_POOL_SIZE = 48

#: EGD-bearing P_w instances on which the word decider raises
#: IncompleteFragmentError after its chase fallback gives up; the
#: dispatcher still classifies them into the decidable PTIME cell.
#: Kept, unrenamed by seed, so every round fails on exactly these.
KNOWN_FAULTS = (
    ((((), ("a",), ("a", "a"), "=>"), ((), ("a",), (), "=>")),
     ((), ("a",), ("b",), "=>")),
    ((((), ("a",), ("a", "a"), "=>"), ((), ("b", "b"), (), "=>")),
     ((), ("a", "a", "a"), ("a", "a"), "=>")),
)


def path_text(path) -> str:
    return ".".join(path) if path else "()"


def constraint_text(c) -> str:
    prefix, lhs, rhs, arrow = c
    body = f"{path_text(lhs)} {arrow} {path_text(rhs)}"
    return f"{path_text(prefix)} :: {body}" if prefix else body


def labels_of(constraints) -> list[str]:
    seen: dict[str, None] = {}
    for prefix, lhs, rhs, _ in constraints:
        for label in prefix + lhs + rhs:
            seen.setdefault(label, None)
    return list(seen)


def rename_constraint(c, mapping):
    prefix, lhs, rhs, arrow = c
    return (
        tuple(mapping[x] for x in prefix),
        tuple(mapping[x] for x in lhs),
        tuple(mapping[x] for x in rhs),
        arrow,
    )


def fresh_names(rng: random.Random, labels) -> dict[str, str]:
    used: set[str] = set()
    out = {}
    for label in labels:
        while True:
            name = f"{rng.choice('pqstuvwxyz')}{rng.randrange(10_000)}"
            if name not in used:
                used.add(name)
                out[label] = name
                break
    return out


def _word(rng, alphabet, lo, hi):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def derive(rng, rules, start, steps=3):
    """Apply random prefix rewrites ``lhs.w -> rhs.w`` to ``start``."""
    current = start
    for _ in range(rng.randint(1, steps)):
        usable = [(l, r) for l, r in rules if current[: len(l)] == l]
        if not usable:
            break
        lhs, rhs = rng.choice(usable)
        current = rhs + current[len(lhs):]
    return current


# ---------------------------------------------------------------------------
# Implication instances.
# ---------------------------------------------------------------------------


def word_instance(rng, alphabet=("a", "b", "c")):
    """EGD-free P_w: 2-4 word rules; the query is derived, echoed or random."""
    sigma = [
        ((), _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 3), "=>")
        for _ in range(rng.randint(2, 4))
    ]
    roll = rng.random()
    if roll < 0.4:
        start = _word(rng, alphabet, 1, 3)
        phi = ((), start, derive(rng, [(c[1], c[2]) for c in sigma], start), "=>")
        truth = "true"
    elif roll < 0.55:
        phi, truth = rng.choice(sigma), "true"
    else:
        phi = ((), _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 3), "=>")
        truth = "true" if phi[1] == phi[2] else None
    return sigma, phi, truth


def local_extent_instance(rng, alphabet=("a", "b")):
    """Definition 2.4 instance bounded by (rho, K) = (K, K)."""
    prefix = ("K", "K")
    bounded = [
        (prefix, _word(rng, alphabet, 1, 2), _word(rng, alphabet, 1, 2), "=>")
        for _ in range(rng.randint(2, 4))
    ]
    rest = [
        (("K",) + _word(rng, alphabet, 1, 2), _word(rng, alphabet, 1, 2),
         _word(rng, alphabet, 1, 2), rng.choice(("=>", "~>")))
        for _ in range(rng.randint(0, 2))
    ]
    roll = rng.random()
    if roll < 0.35:
        start = _word(rng, alphabet, 1, 2)
        end = derive(rng, [(c[1], c[2]) for c in bounded], start)
        phi, truth = (prefix, start, end, "=>"), "true"
    elif roll < 0.5:
        phi, truth = rng.choice(bounded), "true"
    else:
        phi = (prefix, _word(rng, alphabet, 1, 2), _word(rng, alphabet, 1, 2), "=>")
        truth = "true" if phi[1] == phi[2] else None
    return bounded + rest, phi, truth


def pw_k_instance(rng, alphabet=("a", "b")):
    """P_w(K): word rules plus K-guarded ones (the undecidable cell)."""
    while True:
        sigma = []
        for _ in range(rng.randint(2, 4)):
            lhs, rhs = _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 3)
            guard = ("K",) if rng.random() < 0.6 else ()
            sigma.append((guard, lhs, rhs, "=>"))
        if any(c[0] for c in sigma):
            break
    roll = rng.random()
    if roll < 0.3:
        return sigma, rng.choice(sigma), "true"
    if roll < 0.55:
        # Derivation at the root: word rules rewrite the whole path,
        # guarded ones rewrite the part after a leading K.
        rules = [(c[0] + c[1], c[0] + c[2]) for c in sigma]
        start = ("K",) + _word(rng, alphabet, 1, 2)
        end = derive(rng, rules, start)
        if end[:1] == ("K",):
            return sigma, (("K",), start[1:], end[1:], "=>"), "true"
        return sigma, ((), start, end, "=>"), "true"
    guard = ("K",) if rng.random() < 0.5 else ()
    phi = (guard, _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 3), "=>")
    return sigma, phi, "true" if phi[1] == phi[2] else None


def general_instance(rng, alphabet=("a", "b")):
    """Unrestricted P_c: mixed directions and prefixes."""

    def one():
        return (
            _word(rng, alphabet, 0, 2),
            _word(rng, alphabet, 1, 2),
            _word(rng, alphabet, 1, 2),
            "~>" if rng.random() < 0.4 else "=>",
        )

    while True:
        sigma = [one() for _ in range(rng.randint(2, 3))]
        if any(c[3] == "~>" for c in sigma):
            break
    if rng.random() < 0.3:
        return sigma, rng.choice(sigma), "true"
    return sigma, one(), None


def egd_instance(rng, alphabet=("a", "b")):
    """P_w with equality-generating ``u => ()`` premises."""
    sigma = [
        ((), _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 2), "=>")
        for _ in range(rng.randint(1, 3))
    ] + [((), _word(rng, alphabet, 1, 2), (), "=>") for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        return sigma, rng.choice(sigma), "true"
    phi = ((), _word(rng, alphabet, 1, 3), _word(rng, alphabet, 1, 3), "=>")
    return sigma, phi, "true" if phi[1] == phi[2] else None


def symmetric_instance(labels: int):
    """Fully symmetric Σ: all-pairs commutation ``x.y => y.x`` over
    interchangeable labels.  The query ``z => z`` (true by reflexivity)
    names none of them, so every permutation ties: the worst case for
    the canonical key's tie-break search (7 labels is the largest size
    it still searches exhaustively)."""
    names = [f"l{i}" for i in range(labels)]
    sigma = [((), (x, y), (y, x), "=>") for x, y in itertools.permutations(names, 2)]
    return sigma, ((), ("z",), ("z",), "=>"), "true"


def imply_payload(sigma, phi, **extra) -> dict:
    payload = {
        "op": "imply",
        "sigma": [constraint_text(c) for c in sigma],
        "phi": constraint_text(phi),
    }
    payload.update(extra)
    return payload


def order_preserving_names(rng, labels) -> dict[str, str]:
    """Fresh names that sort like the labels they replace, so the
    solver visits labels in the same order whatever the seed."""
    names = sorted(fresh_names(rng, labels).values())
    return dict(zip(sorted(labels), names))


def renamed_copy(rng, request, keep_order=False):
    """An α-renamed, premise-shuffled copy of an imply/query/check
    request; with ``keep_order`` the renaming preserves label order and
    the premises keep their order (the copy costs the solver the same)."""
    inst = request["inst"]
    if request["kind"] == "check":
        graph, constraints = inst
        mapping = fresh_names(rng, sorted({e[1] for e in graph["edges"]} | set(labels_of(constraints))))
        new_graph = dict(graph, edges=[[s, mapping[l], d] for s, l, d in graph["edges"]])
        new_constraints = [rename_constraint(c, mapping) for c in constraints]
        rng.shuffle(new_constraints)
        return dict(make_check(new_graph, new_constraints, request["group"]), repeat=True)
    sigma, phi = inst["sigma"], inst["phi"]
    labels = labels_of(list(sigma) + [phi])
    for path in inst.get("branches", []) + [_pattern_labels(inst[k]) for k in ("left", "right") if k in inst]:
        labels += [x for x in path if x not in labels]
    mapping = order_preserving_names(rng, labels) if keep_order else fresh_names(rng, labels)
    new_sigma = [rename_constraint(c, mapping) for c in sigma]
    if not keep_order:
        rng.shuffle(new_sigma)
    new_phi = rename_constraint(phi, mapping)
    out = dict(request)
    out["inst"] = dict(inst, sigma=new_sigma, phi=new_phi)
    out["repeat"] = True
    if request["kind"] == "imply":
        extra = {k: v for k, v in request["payload"].items() if k not in ("op", "sigma", "phi")}
        out["payload"] = imply_payload(new_sigma, new_phi, **extra)
    elif request["kind"] == "contains":
        left = rename_pattern(inst["left"], mapping)
        right = rename_pattern(inst["right"], mapping)
        out["inst"]["left"], out["inst"]["right"] = left, right
        out["payload"] = contains_payload(new_sigma, left, right)
    elif request["kind"] == "optimize":
        branches = [tuple(mapping[x] for x in b) for b in inst["branches"]]
        out["inst"]["branches"] = branches
        out["payload"] = optimize_payload(new_sigma, branches)
    return out


# ---------------------------------------------------------------------------
# Query requests: a pattern is ("word", w) or ("union", u, w) for u|w.
# ---------------------------------------------------------------------------


def rename_pattern(pattern, mapping):
    return (pattern[0],) + tuple(tuple(mapping[x] for x in path) for path in pattern[1:])


def pattern_text(pattern) -> str:
    return "|".join(path_text(path) for path in pattern[1:])


def contains_payload(sigma, left, right) -> dict:
    return {
        "op": "query",
        "action": "contains",
        "sigma": [constraint_text(c) for c in sigma],
        "left": pattern_text(left),
        "right": pattern_text(right),
    }


def optimize_payload(sigma, branches) -> dict:
    return {
        "op": "query",
        "action": "optimize",
        "sigma": [constraint_text(c) for c in sigma],
        "branches": [path_text(b) for b in branches],
    }


def contains_request(rng, group):
    sigma, _, _ = word_instance(rng)
    rules = [(c[1], c[2]) for c in sigma]
    roll = rng.random()
    if roll < 0.35:
        start = _word(rng, ("a", "b", "c"), 1, 3)
        left, right, truth = ("word", start), ("word", derive(rng, rules, start)), "true"
    elif roll < 0.6:
        # L ⊆ L | w holds in every model.
        u = _word(rng, ("a", "b", "c"), 1, 3)
        w = _word(rng, ("a", "b", "c"), 1, 3)
        left, right, truth = ("word", u), ("union", u, w), "true"
    else:
        left = ("word", _word(rng, ("a", "b", "c"), 1, 3))
        right = ("word", _word(rng, ("a", "b", "c"), 1, 3))
        truth = "true" if left == right else None
    return {
        "kind": "contains",
        "payload": contains_payload(sigma, left, right),
        "truth": truth,
        "group": group,
        "inst": {"sigma": sigma, "phi": ((), _pattern_labels(left), right[1], "=>"),
                 "left": left, "right": right},
    }


def _pattern_labels(pattern):
    return sum(pattern[1:], ())


def optimize_request(rng, group):
    """A union of four branches: two words and a one-step rewrite of
    each, so every request has the same shape and two subsumed branches
    to find.  (With random shapes the slowest optimize requests, which
    set serve-mix's p99, moved the p99 by 2x from seed to seed.)"""
    alphabet = ("a", "b", "c")
    sigma = []
    while len(sigma) < 3:
        lhs, rhs = _word(rng, alphabet, 1, 2), _word(rng, alphabet, 1, 2)
        if lhs != rhs:
            sigma.append(((), lhs, rhs, "=>"))
    branches = []
    for _ in range(2):
        _, lhs, rhs, _ = rng.choice(sigma)
        suffix = _word(rng, alphabet, 1, 1)
        branches += [lhs + suffix, rhs + suffix]
    return {
        "kind": "optimize",
        "payload": optimize_payload(sigma, branches),
        "truth": None,
        "group": group,
        "inst": {"sigma": sigma, "phi": ((), (), (), "=>"), "branches": branches},
    }


# ---------------------------------------------------------------------------
# Check requests: bibliography graphs with inverse edges removed.
# ---------------------------------------------------------------------------

BIB_CONSTRAINTS = [
    (("book",), ("author",), ("wrote",), "~>"),
    (("person",), ("wrote",), ("author",), "~>"),
    ((), ("book", "author"), ("person",), "=>"),
    ((), ("person", "wrote"), ("book",), "=>"),
    ((), ("book", "ref"), ("book",), "=>"),
]


def bibliography(rng, books: int, persons: int, drop: float) -> dict:
    nodes = ["r"] + [f"p{i}" for i in range(persons)] + [f"b{i}" for i in range(books)]
    edges = [["r", "person", f"p{i}"] for i in range(persons)]
    for i in range(books):
        b = f"b{i}"
        edges.append(["r", "book", b])
        for p in rng.sample(range(persons), k=rng.randint(1, min(3, persons))):
            edges.append([b, "author", f"p{p}"])
            if rng.random() >= drop:
                edges.append([f"p{p}", "wrote", b])
        if i and rng.random() < 0.5:
            edges.append([b, "ref", f"b{rng.randrange(i)}"])
    return {"root": "r", "nodes": nodes, "edges": edges}


def make_check(graph, constraints, group):
    return {
        "kind": "check",
        "payload": {
            "op": "check",
            "graph": graph,
            "constraints": [constraint_text(c) for c in constraints],
        },
        "truth": None,
        "group": group,
        "inst": (graph, constraints),
    }


def check_request(rng, group):
    drop = rng.choice((0.0, 0.0, 0.1, 0.3))
    graph = bibliography(rng, rng.randint(6, 14), rng.randint(3, 6), drop)
    return make_check(graph, list(BIB_CONSTRAINTS), group)


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

#: serve-mix: share of each fresh request kind (repeats come on top).
#: Fresh imply and optimize requests (disk stores) are the slow mode of
#: the latency distribution, cache hits, checks and contains the fast
#: one; at about a third slow, the median lies inside the fast mode
#: rather than at the edge between the two, where it jumped by 30%
#: from one seed's mix to the next.
MIX = (("imply", 0.30), ("local", 0.10), ("contains", 0.20), ("optimize", 0.05), ("check", 0.35))
MIX_FRESH = 280
MIX_REPEATS = 120
#: The optimize requests' contents come from this fixed pool seed; the
#: run seed renames them (order-preserving) and places them.  They are
#: the slowest requests after the symmetric Σ, and how long one takes
#: depends on its words and rules, so fixed contents keep the seed from
#: setting their share of a round's time.
MIX_OPTIMIZE_POOL_SEED = 0
#: Labels of the fully symmetric instance sent twice a round (two
#: α-renamed copies, one in each half).  Its keying blocks the daemon's
#: event loop for over a third of a round, so the health probes' p90
#: falls well inside the stalls rather than at their edge, where it
#: would jump from round to round.
MIX_SYMMETRIC_LABELS = 7
#: Copies of a smaller fully symmetric Σ, one in each quarter of a round
#: (about 0.12 s to key, a tenth of the 7-label one).  With the 7-label
#: copies 1.5% of the requests are symmetric, so the p99 lies inside this
#: group, whose cost is CPU-bound keying.  The next slowest, the optimize requests, are mostly cache
#: stores and lookups, which slowed by up to 2.5x for minutes at a time
#: while the round as a whole slowed by 5%; a p99 among them spread 0.35
#: over five seeds.
MIX_SYMMETRIC_SMALL = (6, 4)


def serve_mix(seed: int, scale: float = 1.0) -> list[dict]:
    """One round of serve-mix: fresh requests, ~30% renamed repeats, six
    fully symmetric Σ (two at 7 labels, four at 6).  Composition is fixed, repeats included (each
    kind's share of the repeats is its share of the fresh requests);
    contents come from the seed, except that the optimize requests are
    order-preserving renamings of a fixed pool."""
    rng = random.Random(f"serve-mix:{seed}")
    optimize_pool = random.Random(f"serve-mix-optimize-pool:{MIX_OPTIMIZE_POOL_SEED}")
    fresh = max(len(MIX), int(MIX_FRESH * scale))
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * max(1, round(fresh * share))
    rng.shuffle(kinds)
    requests = []
    for group, kind in enumerate(kinds):
        if kind == "imply":
            sigma, phi, truth = word_instance(rng)
            requests.append(_imply(sigma, phi, truth, group, "P_w"))
        elif kind == "local":
            sigma, phi, truth = local_extent_instance(rng)
            requests.append(_imply(sigma, phi, truth, group, "local extent"))
        elif kind == "contains":
            requests.append(contains_request(rng, group))
        elif kind == "optimize":
            request = renamed_copy(rng, optimize_request(optimize_pool, group), keep_order=True)
            request.pop("repeat")
            requests.append(request)
        else:
            requests.append(check_request(rng, group))
    repeats = max(1, int(MIX_REPEATS * scale))
    repeat_kinds = []
    for kind, share in MIX:
        repeat_kinds += [kind] * max(1, round(repeats * share))
    rng.shuffle(repeat_kinds)
    fresh_requests = list(zip(kinds, requests))
    for kind in repeat_kinds:
        source = rng.choice([r for k, r in fresh_requests if k == kind])
        after = next(i for i, r in enumerate(requests) if r is source) + 1
        requests.insert(rng.randrange(after, len(requests) + 1), renamed_copy(rng, source))
    sigma, phi, truth = symmetric_instance(MIX_SYMMETRIC_LABELS)
    request = _imply(sigma, phi, truth, len(kinds), "P_w")
    half = len(requests) // 2
    requests.insert(rng.randrange(half), renamed_copy(rng, request))
    requests.insert(rng.randrange(half + 1, len(requests) + 1), renamed_copy(rng, request))
    labels, copies = MIX_SYMMETRIC_SMALL
    sigma, phi, truth = symmetric_instance(labels)
    request = _imply(sigma, phi, truth, len(kinds) + 1, "P_w")
    for part in range(copies):
        lo, hi = part * len(requests) // copies, (part + 1) * len(requests) // copies
        requests.insert(rng.randrange(lo, hi + 1), renamed_copy(rng, request))
    return requests


#: Sent before a round's clock starts, so lazy imports and first-use
#: set-up in a fresh daemon are not charged to the round's requests.
WARMUP = (
    {"op": "imply", "sigma": ["w1 => w2"], "phi": "w1 => w2"},
    {"op": "query", "action": "contains", "sigma": ["w1 => w2"], "left": "w1", "right": "w2"},
    {"op": "query", "action": "optimize", "sigma": ["w1 => w2"], "branches": ["w1", "w2"]},
    {"op": "check", "graph": {"root": "r", "nodes": ["r"], "edges": []}, "constraints": ["w1 => w2"]},
)


def _imply(sigma, phi, truth, group, cell, **extra):
    return {
        "kind": "imply",
        "payload": imply_payload(sigma, phi, **extra),
        "truth": truth,
        "group": group,
        "cell": cell,
        "inst": {"sigma": sigma, "phi": phi},
    }


#: serve-hard requests carry one solver job (2 CPUs here: the cost
#: model's timing calibration would otherwise flip the execution mode
#: between runs) and a budget far above the slowest instance that
#: finishes, so no answer flips between definite and UNKNOWN with
#: machine speed.
HARD_EXTRA = {"jobs": 1, "budget_ms": 5_000}

#: The pool entries serve-hard sends (the two known faults are added to
#: them).  Five take 0.5-1.5 s in the portfolio (6, 8, 9, 19, 21); four
#: answer in a few ms (0: P_w(K) FALSE, 24: P_c TRUE, 25: P_c FALSE with a
#: countermodel, 38: EGD FALSE).  So over half of the requests are
#: portfolio-bound and the p50 lies among them, inside instance 21's copies.
#: With all 42 cheap pool entries the p50 lay among 3-6 ms requests whose
#: time is GIL hand-offs and a cache store; they slowed by 40% over six
#: minutes while throughput moved by 12%, and the p50 spread 0.24 over ten
#: seeds.  Entry 7 (P_w(K), phi in Sigma) is not sent: it was answered
#: TRUE in one round and UNKNOWN after the whole budget in the next, on
#: the same request text (see CHANGES.md, FOUND).
HARD_SELECTED = (0, 6, 8, 9, 19, 21, 24, 25, 38)


def hard_pool() -> list[tuple]:
    """The fixed serve-hard population: (fragment, sigma, phi, truth)."""
    rng = random.Random(f"serve-hard-pool:{HARD_POOL_SEED}")
    makers = (("P_w(K)", pw_k_instance, 0.5), ("P_c", general_instance, 0.3), ("P_w+egd", egd_instance, 0.2))
    pool = []
    for fragment, maker, share in makers:
        for _ in range(round(HARD_POOL_SIZE * share)):
            sigma, phi, truth = maker(rng)
            pool.append((fragment, sigma, phi, truth))
    for sigma, phi in KNOWN_FAULTS:
        pool.append(("P_w+egd-fault", list(sigma), phi, None))
    return pool


def serve_hard(seed: int, scale: float = 1.0) -> list[tuple[dict, dict]]:
    """One round of serve-hard: pairs (instance, α-renamed copy) sent
    together.  The known-fault pairs keep a seed-independent renaming."""
    rng = random.Random(f"serve-hard:{seed}")
    names = random.Random(f"serve-hard-names:{HARD_POOL_SEED}")
    pool = hard_pool()
    faults = [p for p in pool if p[0] == "P_w+egd-fault"]
    selected = HARD_SELECTED[: max(1, int(len(HARD_SELECTED) * scale))]
    pairs = []
    for index in selected:
        fragment, sigma, phi, truth = pool[index]
        original = _imply(sigma, phi, truth, index, fragment, **HARD_EXTRA)
        original["pool_index"] = index
        first = renamed_copy(names, original, keep_order=True)
        second = renamed_copy(names, original, keep_order=True)
        pairs.append((first, second))
    rng.shuffle(pairs)
    fixed = random.Random("serve-hard:faults")
    for offset, (fragment, sigma, phi, truth) in enumerate(faults):
        index = len(pool) - len(faults) + offset
        original = _imply(sigma, phi, truth, index, fragment, **HARD_EXTRA)
        original["pool_index"] = index
        original["known_fault"] = True
        pairs.insert(offset * len(pairs) // len(faults),
                     (original, renamed_copy(fixed, original, keep_order=True)))
    return pairs


TYPED_POOL_SEED = 0

#: lib-typed-m: (classes, queries per Σ) per round.
TYPED_SIZES = ((16, 10), (24, 4))


def m_schema(rng, classes: int) -> dict:
    """A random M schema: every class has two class-valued fields and a
    string tag, so the type graph is total and deeply recursive."""
    names = [f"C{i}" for i in range(classes)]
    bodies = {name: [(f"g{j}", rng.choice(names)) for j in range(2)] for name in names}
    return {"classes": bodies, "root": ("entry", names[0])}



def typed_paths(schema: dict, depth: int) -> dict[str, list[tuple]]:
    """Paths of length 1..depth from the root, grouped by target class."""
    label, start = schema["root"]
    by_sort: dict[str, list[tuple]] = {}
    frontier = [((label,), start)]
    for _ in range(depth):
        nxt = []
        for path, cls in frontier:
            by_sort.setdefault(cls, []).append(path)
            for field, target in schema["classes"][cls]:
                nxt.append((path + (field,), target))
        frontier = nxt
    return by_sort


def lib_typed_m(seed: int, scale: float = 1.0) -> list[dict]:
    """One round: per size, one schema and Σ of equal-sort word
    equations; many distinct queries, each solved then asked as a
    typed containment on the same pair (and on the swapped pair).

    Schemas and Σ are fixed (pool seed :data:`TYPED_POOL_SEED`): the
    saturation cost of a random M schema varies by 2-3x from schema to
    schema, so a seed-drawn schema would make the run seed, not the
    program, set the numbers.  The run seed draws the queries."""
    pool_rng = random.Random(f"lib-typed-m-pool:{TYPED_POOL_SEED}")
    rng = random.Random(f"lib-typed-m:{seed}")
    tasks = []
    for classes, queries in TYPED_SIZES:
        schema = m_schema(pool_rng, classes)
        pools = [g for g in typed_paths(schema, 5).values() if len(g) >= 2]
        sigma = [((), *pool_rng.sample(pool_rng.choice(pools), 2), "=>")
                 for _ in range(classes * 4)]
        seen = set()
        qs = []
        while len(qs) < max(1, int(queries * scale)):
            left, right = rng.sample(rng.choice(pools), 2)
            if (left, right) not in seen and (right, left) not in seen:
                seen.add((left, right))
                qs.append(((), left, right, "=>"))
        tasks.append({"classes": classes, "schema": schema, "sigma": sigma, "queries": qs})
    return tasks
