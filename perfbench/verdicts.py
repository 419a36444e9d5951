"""The service workload's known job pool and its expected verdicts.

The table is written from the paper's statements and from the size of
the smallest witness, not captured from a run.  A job is ``"done"``
when the property holds on its bounded universe, ``"violated"`` when
a witness fits the bound, and ``None`` when the paper does not settle
it at that bound; such a job is checked only for reaching a terminal,
non-partial state and for answering a repeat with identical bytes.

Universes are the service default: domain {a, b}, at most
``max_facts`` facts.  The ``subset`` kind is the (~M,~M)-subset
property, ``unique`` the unique-solutions property, and
``invertibility`` passes exactly when both hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

DONE = "done"
VIOLATED = "violated"

#: mapping -> {kind: (expected at max_facts=1, expected at max_facts=2)}
CATALOG_VERDICTS: Dict[str, Dict[str, Tuple[Optional[str], Optional[str]]]] = {
    # P(x,y) -> Q(x): LAV, so the subset property holds (Prop 3.11);
    # {P(a,a)} and {P(a,b)} both chase to {Q(a)}.
    "Projection": {"subset": (DONE, DONE), "unique": (VIOLATED, VIOLATED)},
    # LAV; {P(a)} and {Q(a)} both chase to {S(a)}.
    "Union": {"subset": (DONE, DONE), "unique": (VIOLATED, VIOLATED)},
    # LAV.  One fact P(x,y,z) is recovered from Q(x,y), R(y,z); with two
    # facts {P(a,a,a), P(b,a,b)} and {P(a,a,b), P(b,a,a)} chase alike.
    "Decomposition": {"subset": (DONE, DONE), "unique": (DONE, VIOLATED)},
    # No quasi-inverse (Prop 3.12), but its witness needs more than two
    # facts over {a, b}: unsettled.  {} and {E(a,b)} both chase to {}.
    "Prop3.12": {"subset": (None, None), "unique": (VIOLATED, VIOLATED)},
    # LAV (Example 4.5 computes its quasi-inverse); {R(a,b,a)} and
    # {R(a,b,b)} both chase to {Q(a,b)}.
    "Example4.5": {"subset": (DONE, DONE), "unique": (VIOLATED, VIOLATED)},
    # Invertible (Thm 4.8, Thm 4.9, Thm 5.1): both properties hold.
    "Thm4.8": {"subset": (DONE, DONE), "unique": (DONE, DONE)},
    "Thm4.9": {"subset": (DONE, DONE), "unique": (DONE, DONE)},
    "Example5.4": {"subset": (DONE, DONE), "unique": (DONE, DONE)},
    # Quasi-invertible (Thm 4.10), so the subset property holds
    # (Thm 3.5); {P1(a)} and {P2(a)} both chase to {S1(a)}.
    "Thm4.10": {"subset": (DONE, DONE), "unique": (VIOLATED, VIOLATED)},
    # LAV.  Single facts chase apart; {P(a,a)} and {P(a,a), P(a,b)}
    # both chase to {R(a), S(a)}.
    "Thm4.11": {"subset": (DONE, DONE), "unique": (DONE, VIOLATED)},
    # Unique solutions (C = A ∪ B, D = B, E = A ∩ B recover A and B),
    # so ~M is equality, and Sol({B(a)}) ⊆ Sol({A(a)}) with
    # {A(a)} ⊄ {B(a)} violates the subset property with one fact.
    "UniqueNotSubset": {"subset": (VIOLATED, VIOLATED), "unique": (DONE, DONE)},
}

#: Experiments light enough to sit in a latency stream; each passes all
#: its checks.  E5, E9 and E13 take seconds to minutes.  E2, E3, E6, E8
#: and E12 take 0.2-0.4 s alone but up to 4 s on a daemon with a store,
#: and made p90 swing by 30% from run to run.
LIGHT_EXPERIMENTS = ("E1", "E4", "E7", "E10", "E11", "E14")

#: Example 5.4 is invertible (Thm 5.1), so the subset property holds
#: on the |domain| = 4 universe too.
ORBIT_JOB = {
    "kind": "subset", "mapping": "Example5.4", "domain": ["a", "b", "c", "d"],
    "max_facts": 2, "backend": "kernel", "symmetry": "orbits",
}

#: compose(Decomposition, Decomposition') sends one fact P(x,y,z) back
#: to exactly {P(x,y,z)}, so solutions are unique with one fact.
ALGEBRA_JOB = {
    "kind": "algebra", "expression": "compose(Decomposition, Decomposition')",
    "check": "unique", "max_facts": 1,
}


def _invertibility(subset: Optional[str], unique: Optional[str]) -> Optional[str]:
    if VIOLATED in (subset, unique):
        return VIOLATED
    if subset == unique == DONE:
        return DONE
    return None


def known_pool() -> List[Tuple[dict, Optional[str]]]:
    """Every known-pool job payload with its expected terminal state.

    Example4.5 at max_facts=2 is left out: each of its jobs takes
    1-14 s and one alone would set the p90 latency."""
    pool: List[Tuple[dict, Optional[str]]] = []
    for max_facts in (1, 2):
        for mapping, verdicts in CATALOG_VERDICTS.items():
            if mapping == "Example4.5" and max_facts == 2:
                continue
            subset = verdicts["subset"][max_facts - 1]
            unique = verdicts["unique"][max_facts - 1]
            for kind, expected in (
                ("invertibility", _invertibility(subset, unique)),
                ("subset", subset),
                ("unique", unique),
            ):
                pool.append(
                    ({"kind": kind, "mapping": mapping, "max_facts": max_facts}, expected)
                )
    pool.append((dict(ORBIT_JOB), DONE))
    pool.extend(
        ({"kind": "experiment", "experiment": experiment}, DONE)
        for experiment in LIGHT_EXPERIMENTS
    )
    pool.append((dict(ALGEBRA_JOB), DONE))
    return pool
