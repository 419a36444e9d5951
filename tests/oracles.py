"""Brute-force oracles for the decision procedures the verdicts rest on.

They restate a procedure the slow, obvious way, so a test can compare
the optimized procedure with them verdict for verdict on tiny inputs.

* :func:`product_intermediates` — the raw candidate enumeration for
  composition membership: every null of chase(I1) maps to a null of
  the chase, an active-domain constant of I1 or I2, or one of k fresh
  constants (k = number of nulls), all ``product(targets, repeat=k)``
  of them, isomorphic duplicates included.
* :func:`product_membership` — generate-then-check membership over
  those candidates.
* :func:`product_expression_membership` — the same for algebra
  expressions, recursing into nested ``compose`` nodes.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.algebra.evaluate import materialize, staged_mapping
from repro.algebra.expr import Compose, MappingAtom, MappingExpr, UnionOf
from repro.core.mapping import SchemaMapping, is_solution, universal_solution
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.errors import CompositionBudgetError


def product_intermediates(
    mapping: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int = 7,
) -> Iterator[Instance]:
    """Every image of chase(left) under the raw target product."""
    chased = universal_solution(mapping, left)
    chase_nulls = sorted(chased.nulls())
    if len(chase_nulls) > max_nulls:
        raise CompositionBudgetError(
            f"chase has {len(chase_nulls)} nulls (> max_nulls={max_nulls})",
            kind="composition_nulls",
            limit=max_nulls,
            consumed=len(chase_nulls),
        )
    adom_constants = sorted(set(left.constants()) | set(right.constants()))
    taken = {c.value for c in adom_constants if isinstance(c.value, str)}
    fresh_constants: List[Constant] = []
    counter = 0
    while len(fresh_constants) < len(chase_nulls):
        candidate = f"fresh_{counter}"
        counter += 1
        if candidate not in taken:
            fresh_constants.append(Constant(candidate))
    targets: List[Term] = list(chase_nulls) + adom_constants + fresh_constants
    if not chase_nulls:
        yield chased
        return
    for images in product(targets, repeat=len(chase_nulls)):
        mapping_dict: Dict[Term, Term] = dict(zip(chase_nulls, images))
        yield chased.substitute(mapping_dict)


def product_membership(
    first: SchemaMapping,
    second: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int = 7,
) -> bool:
    """(left, right) ∈ Inst(first ∘ second), generate-then-check."""
    return any(
        is_solution(second, candidate, right)
        for candidate in product_intermediates(first, left, right, max_nulls)
    )


def product_expression_membership(
    expr: MappingExpr,
    left: Instance,
    right: Instance,
    max_nulls: int = 7,
) -> bool:
    """(left, right) ∈ Inst(expr): compose nodes try every product
    candidate of their first leg's chase and recurse on the second."""
    if isinstance(expr, Compose):
        first = staged_mapping(expr.first) or materialize(expr.first)
        return any(
            product_expression_membership(expr.second, candidate, right, max_nulls)
            for candidate in product_intermediates(first, left, right, max_nulls)
        )
    if isinstance(expr, UnionOf):
        return product_expression_membership(
            expr.left, left, right, max_nulls
        ) and product_expression_membership(expr.right, left, right, max_nulls)
    if isinstance(expr, MappingAtom):
        return is_solution(expr.mapping, left, right)
    return is_solution(materialize(expr), left, right)


def isomorphism_key(
    instance: Instance, fixed: FrozenSet[Constant]
) -> Tuple[Tuple, ...]:
    """A key equal for two instances exactly when some bijective,
    kind-preserving renaming of their nulls and of their constants
    outside *fixed* maps one onto the other (brute force over all
    renamings; tiny instances only)."""
    nulls = sorted(instance.nulls())
    loose = sorted(c for c in instance.constants() if c not in fixed)
    best = None
    for null_order in permutations(range(len(nulls))):
        for constant_order in permutations(range(len(loose))):
            renaming: Dict[Term, Tuple] = {
                null: ("null", slot) for null, slot in zip(nulls, null_order)
            }
            renaming.update(
                (constant, ("loose", slot))
                for constant, slot in zip(loose, constant_order)
            )
            key = tuple(
                sorted(
                    (
                        fact.relation,
                        tuple(
                            renaming.get(arg, ("fixed", str(arg)))
                            for arg in fact.args
                        ),
                    )
                    for fact in instance
                )
            )
            if best is None or key < best:
                best = key
    return best
