"""Regenerate the reference verdicts with the diffcheck oracle matrix.

    python3 perfbench/reference.py --workload serve-mix --seeds 0-29
    python3 perfbench/reference.py --workload serve-hard

Run from the root of a checkout.  The reference covers the questions
whose answer carries no certificate and has no known truth: every
implication-shaped request (``imply``, ``query contains`` on two words)
that is not true by construction, and every inclusion between two
branches of a ``query optimize`` request that no bounded derivation
shows.  Each is recomputed from the seed by running every applicable
engine of ``repro.diffcheck.oracles`` on the original (unrenamed)
instance; the reference keeps the verdict the definite engines agree
on, or ``unknown`` when none is definite.  A conflict between engines
stops the command.  No answer of the daemon is stored.  Output:
``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from checks import derivable  # noqa: E402


def questions(workload: str, seed: int):
    """(key, sigma, phi) for every question the reference must cover:
    each ``imply``/``contains`` not true by construction, and each
    ordered pair of an ``optimize`` request's branches with no bounded
    derivation (a pruning claims the pair's inclusion)."""
    if workload == "serve-mix":
        for request in gen.serve_mix(seed):
            if request.get("repeat"):
                continue
            inst = request["inst"]
            if request["kind"] in ("imply", "contains") and request.get("truth") != "true":
                yield str(request["group"]), inst["sigma"], inst["phi"]
            elif request["kind"] == "optimize":
                rules = [(c[1], c[2]) for c in inst["sigma"]]
                for i, narrow in enumerate(inst["branches"]):
                    for j, wide in enumerate(inst["branches"]):
                        if narrow != wide and not derivable(rules, narrow, wide):
                            yield f"{request['group']}:{i}>{j}", inst["sigma"], ((), narrow, wide, "=>")
    else:
        for index, (fragment, sigma, phi, truth) in enumerate(gen.hard_pool()):
            skip = index not in gen.HARD_SELECTED
            if truth != "true" and not skip:
                yield str(index), sigma, phi


#: Oracle time per question; the slowest question takes well under 1 s.
ORACLE_BUDGET_S = 10.0


def oracle_verdict(sigma, phi) -> str:
    from repro.constraints import parse_constraint, parse_constraints
    from repro.diffcheck.generators import FragmentInstance
    from repro.diffcheck.oracles import OracleConfig, find_disagreements, run_engines

    instance = FragmentInstance(
        fragment="perfbench",
        sigma=tuple(parse_constraints("\n".join(gen.constraint_text(c) for c in sigma))),
        phi=parse_constraint(gen.constraint_text(phi)),
    )
    config = OracleConfig(portfolio_jobs=(1,), deadline=time.monotonic() + ORACLE_BUDGET_S)
    verdicts = run_engines(instance, config)
    conflicts = find_disagreements(verdicts)
    if conflicts:
        raise SystemExit(f"oracle engines disagree on {gen.constraint_text(phi)}: {conflicts}")
    definite = {v.answer.value for v in verdicts if v.answer.is_definite}
    return definite.pop() if definite else "unknown"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve-mix", "serve-hard"), required=True)
    parser.add_argument("--seeds", default="0-29", help="serve-mix seeds, e.g. 0-29 or 0,3,5")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    path = os.path.join(HERE, "reference", f"{args.workload}.json")
    if args.workload == "serve-hard":
        table = {key: oracle_verdict(s, p) for key, s, p in questions("serve-hard", 0)}
        out = {"pool_seed": gen.HARD_POOL_SEED, "pool": table}
    else:
        seeds = {}
        for seed in parse_seeds(args.seeds):
            seeds[str(seed)] = {
                key: oracle_verdict(s, p) for key, s, p in questions("serve-mix", seed)
            }
        out = {"seeds": seeds}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
