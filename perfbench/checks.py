"""Output checks, independent of ``src/``.

A small path evaluator over the wire's graph format re-verifies
countermodels and recomputes ``check`` verdicts; a bounded
prefix-rewrite derivation search confirms TRUE answers where it can;
verdicts known by construction, the oracle reference and the
metamorphic properties (renamed copies agree) cover the rest.  Every
failed check is one line in ``Checker.errors``.
"""

from __future__ import annotations

import json
import os
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# The path evaluator (Definition 2.1 semantics).
# ---------------------------------------------------------------------------


def adjacency(graph: dict) -> dict:
    adj: dict = {}
    for src, label, dst in graph["edges"]:
        adj.setdefault(src, {}).setdefault(label, set()).add(dst)
    return adj


def reach(adj: dict, starts, path) -> set:
    frontier = set(starts)
    for label in path:
        frontier = {d for n in frontier for d in adj.get(n, {}).get(label, ())}
    return frontier


def holds(adj: dict, root, c) -> bool:
    prefix, lhs, rhs, arrow = c
    for x in reach(adj, [root], prefix):
        ys = reach(adj, [x], lhs)
        if arrow == "=>":
            if not ys <= reach(adj, [x], rhs):
                return False
        elif any(x not in reach(adj, [y], rhs) for y in ys):
            return False
    return True


def is_countermodel(graph: dict, sigma, phi) -> bool:
    adj = adjacency(graph)
    root = graph["root"]
    return all(holds(adj, root, c) for c in sigma) and not holds(adj, root, phi)


# ---------------------------------------------------------------------------
# Bounded derivation search: sound TRUE certificates.
# ---------------------------------------------------------------------------


def derivable(rules, start, target, max_len=None, max_words=4000) -> bool:
    """Is ``target`` reachable from ``start`` by prefix rewrites
    ``lhs.w -> rhs.w``?  Bounded, so False means "not found"."""
    start, target = tuple(start), tuple(target)
    if start == target:
        return True
    if max_len is None:
        max_len = max(len(start), len(target)) + 3
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < max_words:
        word = queue.popleft()
        for lhs, rhs in rules:
            if word[: len(lhs)] != lhs:
                continue
            nxt = rhs + word[len(lhs):]
            if nxt == target:
                return True
            if len(nxt) <= max_len and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def derivation_certifies(sigma, phi) -> bool:
    """A derivation for ``alpha :: u => v`` from the forward premises
    guarded by the same ``alpha`` (rewriting at every ``alpha`` node)."""
    prefix, lhs, rhs, arrow = phi
    if arrow != "=>":
        return False
    rules = [(c[1], c[2]) for c in sigma if c[3] == "=>" and c[0] == prefix]
    return derivable(rules, lhs, rhs)


# ---------------------------------------------------------------------------
# The reference verdicts (see reference.py).
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


class Checker:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.errors: list[str] = []
        self.reference = load_reference(workload)
        if workload == "serve-mix" and str(seed) not in self.reference.get("seeds", {}):
            # A seed the committed file does not cover: recompute its
            # reference the way reference.py does (a few seconds).
            from reference import oracle_verdict, questions

            self.reference.setdefault("seeds", {})[str(seed)] = {
                key: oracle_verdict(s, p) for key, s, p in questions(workload, seed)
            }
        self.verdicts: dict = {}
        self.unreferenced = 0
        self._certified: dict = {}

    def fail(self, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(message)

    def _ref(self, request) -> str | None:
        if "pool_index" in request:
            table = self.reference.get("pool", {})
            return table.get(str(request["pool_index"]))
        table = self.reference.get("seeds", {}).get(str(self.seed), {})
        return table.get(str(request["group"]))

    def agree(self, request, verdict) -> None:
        """Renamed copies (one group) must get identical verdicts."""
        key = request["group"]
        first = self.verdicts.setdefault(key, verdict)
        if first != verdict:
            self.fail(f"group {key}: verdict {verdict} differs from an earlier copy's {first}")

    def verdict(self, request, answer: str, decidable: bool, countermodel=None) -> None:
        """One three-valued answer on an implication-shaped question."""
        inst = request["inst"]
        sigma, phi = inst["sigma"], inst["phi"]
        what = f"{request['kind']} group {request['group']}"
        if answer not in ("true", "false", "unknown"):
            self.fail(f"{what}: answer {answer!r}")
            return
        self.agree(request, answer)
        if answer == "unknown":
            if decidable:
                self.fail(f"{what}: UNKNOWN on a decidable cell")
            return
        truth = request.get("truth")
        if truth == "true" and answer == "false":
            self.fail(f"{what}: FALSE on a query true by construction")
            return
        if answer == "false" and countermodel is not None:
            if not is_countermodel(countermodel, sigma, phi):
                self.fail(f"{what}: returned countermodel does not refute the query")
            return
        if truth == "true":
            return
        key = (request["group"], answer)
        if key not in self._certified:
            self._certified[key] = answer == "true" and derivation_certifies(sigma, phi)
        if self._certified[key]:
            return
        expected = self._ref(request)
        if expected is None:
            self.unreferenced += 1
        elif expected != "unknown" and expected != answer:
            self.fail(f"{what}: answer {answer} but the oracle reference says {expected}")

    def check_report(self, request, response) -> None:
        graph, constraints = request["inst"]
        adj = adjacency(graph)
        failed = sum(not holds(adj, graph["root"], c) for c in constraints)
        if response.get("failed") != failed or response.get("ok") != (failed == 0):
            self.fail(f"check group {request['group']}: daemon says {response.get('failed')} "
                      f"failed, the evaluator {failed}")
        self.agree(request, failed)

    def optimize_report(self, request, response) -> None:
        """The kept union is made of branches (or their rewrites), and
        every pruning claims an inclusion that a derivation or the
        oracle reference confirms."""
        inst = request["inst"]
        what = f"optimize group {request['group']}"
        texts = [".".join(b) if b else "()" for b in inst["branches"]]
        allowed = set(texts) | {b for _, b in response.get("rewrites", [])}
        optimized = set(response.get("optimized", []))
        if not optimized or not optimized <= allowed:
            self.fail(f"{what}: optimized union {sorted(optimized)} is not made of the branches")
        rules = [(c[1], c[2]) for c in inst["sigma"]]
        table = self.reference.get("seeds", {}).get(str(self.seed), {})
        for narrow, wide in response.get("pruned", []):
            if narrow == wide:
                continue
            if narrow not in texts or wide not in texts:
                self.fail(f"{what}: pruned pair {narrow} < {wide} is not between branches")
                continue
            i, j = texts.index(narrow), texts.index(wide)
            if derivable(rules, inst["branches"][i], inst["branches"][j]):
                continue
            expected = table.get(f"{request['group']}:{i}>{j}")
            if expected == "false":
                self.fail(f"{what}: pruned {narrow} as contained in {wide}, "
                          f"but the oracle reference says it is not")
            elif expected != "true":
                self.unreferenced += 1
        self.agree(request, response.get("branches_saved"))

    def response(self, request, response) -> bool:
        """Check one response; returns False when it is a failed operation."""
        kind = request["kind"]
        if response.get("status") != "ok":
            if request.get("known_fault") and response.get("status") == "error" \
                    and "IncompleteFragmentError" in response.get("error", ""):
                return False
            self.fail(f"{kind} group {request['group']}: status {response.get('status')}: "
                      f"{response.get('error') or response.get('reason')}")
            return False
        if request.get("known_fault"):
            self.fail(f"known fault in group {request['group']} answered {response.get('answer')}")
        if kind == "imply":
            # serve-mix generates each instance inside one Table 1 cell;
            # serve-hard's P_c draws may land in a smaller fragment.
            if "pool_index" not in request and response.get("fragment") != request["cell"]:
                self.fail(f"imply group {request['group']}: classified {response.get('fragment')}, "
                          f"generated as {request['cell']}")
            self.verdict(request, response.get("answer"), bool(response.get("decidable")),
                         response.get("countermodel"))
        elif kind == "contains":
            self.verdict(request, response.get("verdict"), bool(response.get("decidable")))
            left = request["inst"]["left"]
            witness = response.get("witness")
            if witness is not None and left[0] == "word" and witness != ".".join(left[1]):
                self.fail(f"contains group {request['group']}: witness {witness} not in L(left)")
        elif kind == "optimize":
            self.optimize_report(request, response)
        elif kind == "check":
            self.check_report(request, response)
        return True
