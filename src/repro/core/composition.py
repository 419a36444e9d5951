"""Composition of schema mappings (Section 2) and an exact
composition-membership decision procedure.

``composition_membership(M, M', I1, I2)`` decides whether
(I1, I2) ∈ Inst(M ∘ M'), i.e. whether some intermediate target
instance J satisfies (I1, J) ⊨ Sigma and (J, I2) ⊨ Sigma'.  Although
J ranges over an infinite set, a finite candidate set suffices:

* (I1, J) ⊨ Sigma exactly when J contains a homomorphic image of
  chase(I1); and premise satisfaction of Sigma' is monotone in J
  (every premise match in a subinstance is a match in the
  superinstance, and a dependency's conclusion constrains I2 only).
  Hence if any J works, the homomorphic image h(chase(I1)) ⊆ J works
  as well.
* Sigma' contains no constant symbols, so whether (J, I2) ⊨ Sigma'
  holds does not change under a bijective renaming of J's nulls, nor
  of J's constants outside adom(I1) ∪ adom(I2): such a renaming keeps
  every premise match (Constant() and inequalities included) and
  every conclusion's image in I2.  It therefore suffices to try one
  image h(chase(I1)) per isomorphism class fixing that active domain.

The candidates are enumerated *canonically*: each null of chase(I1),
in turn, maps to an active-domain constant, to a null class, or to a
fresh-constant class, and classes open in restricted-growth order
(the trick MinGen uses for its complete descriptions, DESIGN §3.4).
That yields exactly one candidate per isomorphism class.

The search backtracks over those null assignments instead of
generating and then model-checking whole candidates.  A fact of
chase(I1) is fully assigned once its last null is; whenever an
assignment completes facts, the Sigma' premise matches that use them
are checked at once, and the branch is cut as soon as one match has
no disjunct extending into I2.  Cutting is exact: a match among fully
assigned facts is a match in every completion of the branch, and
whether a disjunct extends depends only on the match and I2.  Premise
matches run on plans compiled once per dependency
(:mod:`repro.engine.compile`); disjunct checks are memoized per I2.

This makes the membership test a decision procedure (no approximation),
at a cost exponential in the number of nulls of chase(I1); the
``max_nulls`` guard protects against misuse on large instances.

The module also implements ``compose_full``: the classical composition
algorithm for the case where the first mapping is full (cf. the
composition literature the paper builds on, [5] in its references),
obtained by resolving each premise of the second mapping against the
first mapping's conclusions — a direct reuse of MinGen.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chase.homomorphism import find_homomorphism
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Term
from repro.dependencies.dependency import Dependency, Premise
from repro.core.generators import MinGenConfig, minimal_generators
from repro.core.mapping import MappingError, SchemaMapping, universal_solution
from repro.engine.budget import current_budget
from repro.engine.compile import CompiledPremise, compile_premise
from repro.engine.instrumentation import engine_stats
from repro.errors import CompositionBudgetError

#: A chase fact with its nulls replaced by their positions in the
#: null order: ``(relation, args)``, each arg a rigid term or an int.
_Template = Tuple[str, Tuple[object, ...]]


def _null_order(chased: Instance) -> List[Null]:
    """The nulls of *chased* in search order.

    Facts are taken in sorted order, fewest not-yet-ordered nulls
    first, so that each fact is completed (and its premise matches
    checked) as early in the search as possible."""
    facts = chased.sorted_facts()
    ordered: List[Null] = []
    seen = set()
    while True:
        best = None
        for fact in facts:
            pending = [
                arg for arg in dict.fromkeys(fact.args)
                if isinstance(arg, Null) and arg not in seen
            ]
            if pending and (best is None or len(pending) < len(best)):
                best = pending
        if best is None:
            return ordered
        ordered.extend(best)
        seen.update(best)


def _fresh_constants(adom: Sequence[Constant], count: int) -> List[Constant]:
    """*count* constants outside *adom*: one per fresh-constant class."""
    taken = {c.value for c in adom if isinstance(c.value, str)}
    fresh: List[Constant] = []
    counter = 0
    while len(fresh) < count:
        candidate = f"fresh_{counter}"
        counter += 1
        if candidate not in taken:
            fresh.append(Constant(candidate))
    return fresh


def _canonical_images(
    nulls: Sequence[Null],
    adom: Sequence[Constant],
    fresh: Sequence[Constant],
    admit: Optional[Callable[[int, List[Term]], bool]] = None,
) -> Iterator[List[Term]]:
    """One image vector per isomorphism class fixing *adom*.

    Null ``depth`` maps to a null class (an open one, or a new class
    named after the null itself), an *adom* constant, or a fresh
    class (an open one, or the next unused of *fresh*).  *admit*,
    called once the image of null ``depth`` is chosen, cuts the
    branch by returning False.  The yielded list is reused."""
    count = len(nulls)
    images: List[Term] = [None] * count  # type: ignore[list-item]
    null_classes: List[Null] = []

    def extend(depth: int, fresh_open: int) -> Iterator[List[Term]]:
        if depth == count:
            yield images
            return
        own = nulls[depth]
        for term in (*null_classes, own, *adom, *fresh[: fresh_open + 1]):
            images[depth] = term
            if admit is not None and not admit(depth, images):
                continue
            if term is own:
                null_classes.append(own)
                yield from extend(depth + 1, fresh_open)
                null_classes.pop()
            elif term is fresh[fresh_open]:
                yield from extend(depth + 1, fresh_open + 1)
            else:
                yield from extend(depth + 1, fresh_open)

    return extend(0, 0)


def _chase_nulls(
    mapping: SchemaMapping, left: Instance, max_nulls: int
) -> Tuple[Instance, List[Null]]:
    """chase(left) and its nulls in search order, under the null budget."""
    chased = universal_solution(mapping, left)
    nulls = _null_order(chased)
    if len(nulls) > max_nulls:
        raise CompositionBudgetError(
            f"chase has {len(nulls)} nulls (> max_nulls={max_nulls})",
            kind="composition_nulls",
            limit=max_nulls,
            consumed=len(nulls),
        )
    return chased, nulls


def canonical_intermediates(
    mapping: SchemaMapping,
    left: Instance,
    right: Instance,
    *,
    max_nulls: int = 7,
) -> Iterator[Instance]:
    """The sufficient candidate intermediates J (see module doc): one
    homomorphic image of chase(left) per isomorphism class fixing
    adom(left) ∪ adom(right)."""
    chased, nulls = _chase_nulls(mapping, left, max_nulls)
    adom = sorted(left.constants() | right.constants())
    fresh = _fresh_constants(adom, len(nulls))
    for images in _canonical_images(nulls, adom, fresh):
        yield chased.substitute(dict(zip(nulls, images)))


class _Rule:
    """One Sigma' dependency, compiled once: the premise as a slot
    plan (rigid terms stay terms), plus what its disjunct check
    needs."""

    __slots__ = ("premise", "frontier", "frontier_slots", "disjuncts")

    def __init__(self, dependency: Dependency) -> None:
        premise = dependency.premise
        self.premise: CompiledPremise = compile_premise(
            premise.atoms,
            premise.constant_vars,
            premise.inequalities,
            lambda term: term,
        )
        self.frontier = dependency.frontier()
        self.frontier_slots = tuple(
            self.premise.slots[variable] for variable in self.frontier
        )
        self.disjuncts = dependency.disjuncts


@lru_cache(maxsize=256)
def _compiled_rules(mapping: SchemaMapping) -> Tuple[_Rule, ...]:
    return tuple(_Rule(dependency) for dependency in mapping.dependencies)


def _matches_hold(
    rule: _Rule,
    rows: Dict[str, List[tuple]],
    marks: Dict[str, int],
    holds: Callable[[_Rule, List[Term]], bool],
) -> bool:
    """Does ``holds`` accept every premise match of *rule* in *rows*
    that uses a new fact?  ``rows[r][marks[r]:]`` are the new facts
    of relation r; a match is found once, from the first premise
    atom it maps onto a new fact (earlier atoms then range over old
    facts, later ones over all)."""
    premise = rule.premise
    catoms = premise.catoms
    const_slots = premise.const_slot_set
    ineq_of = premise.ineq_of
    values: List[Term] = [None] * premise.nslots  # type: ignore[list-item]
    extents = premise.extents_for(rows)
    for first, catom in enumerate(catoms):
        facts = rows.get(catom.relation)
        mark = marks.get(catom.relation)
        if mark is None or not facts:
            continue
        bound = 0
        for slot in catom.mappable_occurrences:
            bound |= 1 << slot
        order = [first] + [
            index
            for index in premise.plan(extents, bound)
            if index != first
        ]
        sources = []
        for index in order:
            relation_facts = rows.get(catoms[index].relation, ())
            if index == first:
                sources.append(facts[mark:])
            elif index < first:
                sources.append(
                    relation_facts[: marks.get(catoms[index].relation, len(relation_facts))]
                )
            else:
                sources.append(relation_facts)
        if not all(sources):
            continue

        def extend(step: int) -> bool:
            if step == len(order):
                return holds(rule, values)
            ops = catoms[order[step]].ops
            for args in sources[step]:
                newly: List[int] = []
                matched = True
                for position, rigid, value in ops:
                    term = args[position]
                    if rigid:
                        if term != value:
                            matched = False
                            break
                        continue
                    current = values[value]
                    if current is not None:
                        if current != term:
                            matched = False
                            break
                        continue
                    if value in const_slots and not isinstance(term, Constant):
                        matched = False
                        break
                    others = ineq_of.get(value)
                    if others is not None and any(
                        values[other] == term for other in others
                    ):
                        matched = False
                        break
                    values[value] = term
                    newly.append(value)
                if matched and not extend(step + 1):
                    return False
                for slot in newly:
                    values[slot] = None
            return True

        if not extend(0):
            return False
    return True


class MembershipSearch:
    """Membership of (left, ·) in first ∘ second, with the per-left
    work done once: chase(left), its null order and fact templates,
    and the compiled Sigma' rules.  :meth:`member` decides one right
    instance.  Raises :class:`CompositionBudgetError` when chase(left)
    has more than *max_nulls* nulls."""

    def __init__(
        self,
        first: SchemaMapping,
        second: SchemaMapping,
        left: Instance,
        *,
        max_nulls: int = 7,
    ) -> None:
        chased, self.nulls = _chase_nulls(first, left, max_nulls)
        self.left_constants = left.constants()
        self.rules = _compiled_rules(second)
        depth_of = {null: depth for depth, null in enumerate(self.nulls)}
        self.ground: List[Tuple[str, tuple]] = []
        #: per depth, the chase facts whose last null sits at that depth
        self.completed: List[List[_Template]] = [[] for _ in self.nulls]
        for fact in chased.sorted_facts():
            depths = [depth_of[arg] for arg in fact.args if isinstance(arg, Null)]
            if not depths:
                self.ground.append((fact.relation, fact.args))
                continue
            template = tuple(
                depth_of[arg] if isinstance(arg, Null) else arg
                for arg in fact.args
            )
            self.completed[max(depths)].append((fact.relation, template))

    def member(self, right: Instance) -> bool:
        """Decide (left, right) ∈ Inst(first ∘ second)."""
        stats = engine_stats()
        memo: Dict[Tuple, bool] = {}

        def holds(rule: _Rule, values: List[Term]) -> bool:
            image = tuple(values[slot] for slot in rule.frontier_slots)
            key = (rule, image)
            verdict = memo.get(key)
            if verdict is None:
                fixed = dict(zip(rule.frontier, image))
                verdict = any(
                    find_homomorphism(disjunct, right, fixed=fixed) is not None
                    for disjunct in rule.disjuncts
                )
                memo[key] = verdict
            return verdict

        rows: Dict[str, List[tuple]] = {}
        for relation, args in self.ground:
            rows.setdefault(relation, []).append(args)
        present = set(self.ground)
        ground_holds = all(
            _matches_hold(rule, rows, dict.fromkeys(rows, 0), holds)
            for rule in self.rules
        )
        if not self.nulls:
            stats.bump("membership_candidates_tried")
            return ground_holds
        if not ground_holds:
            return False

        last = len(self.nulls) - 1
        completed = self.completed
        #: facts added below the ground ones, as (depth, relation, args)
        added: List[Tuple[int, str, tuple]] = []
        budget = current_budget()

        def admit(depth: int, images: List[Term]) -> bool:
            if budget is not None:
                budget.check()
            while added and added[-1][0] >= depth:
                _, relation, args = added.pop()
                rows[relation].pop()
                present.discard((relation, args))
            marks: Dict[str, int] = {}
            for relation, template in completed[depth]:
                args = tuple(
                    images[arg] if type(arg) is int else arg for arg in template
                )
                if (relation, args) in present:
                    continue
                present.add((relation, args))
                facts = rows.setdefault(relation, [])
                marks.setdefault(relation, len(facts))
                facts.append(args)
                added.append((depth, relation, args))
            if depth == last:
                stats.bump("membership_candidates_tried")
            return not marks or all(
                _matches_hold(rule, rows, marks, holds) for rule in self.rules
            )

        adom = sorted(self.left_constants | right.constants())
        fresh = _fresh_constants(adom, len(self.nulls))
        for _ in _canonical_images(self.nulls, adom, fresh, admit):
            return True
        return False


def composition_membership(
    first: SchemaMapping,
    second: SchemaMapping,
    left: Instance,
    right: Instance,
    *,
    max_nulls: int = 7,
    search: Optional[MembershipSearch] = None,
) -> bool:
    """Decide (left, right) ∈ Inst(first ∘ second).

    *first* must be a tgd mapping (so the chase characterizes its
    solutions); *second* may use the full dependency language
    (disjunctions, Constant(), inequalities).  *search*, a
    :class:`MembershipSearch` already prepared for (first, second,
    left), saves redoing the per-left work across many rights.
    """
    with engine_stats().phase("compose.membership"):
        if search is None:
            search = MembershipSearch(first, second, left, max_nulls=max_nulls)
        return search.member(right)


def compose_full(
    first: SchemaMapping,
    second: SchemaMapping,
    *,
    mingen_config: Optional[MinGenConfig] = None,
    name: str = "",
) -> SchemaMapping:
    """Compose two mappings when the first is specified by *full* tgds.

    For each tgd of *second* with premise phi2(x, u) over the middle
    schema, every minimal generator beta(x', z) of ``exists u phi2``
    with respect to *first* (where x' are the variables shared with
    the conclusion) yields a composed tgd beta -> conclusion.  The
    result specifies first ∘ second.
    """
    if not first.is_tgd_mapping() or not first.is_full():
        raise MappingError("compose_full requires a full tgd first mapping")
    if not second.is_tgd_mapping():
        raise MappingError("compose_full requires a tgd second mapping")
    if first.target.relations != second.source.relations:
        raise MappingError(
            "middle schemas differ: "
            f"{first.target} vs {second.source}"
        )

    stats = engine_stats()
    composed: List[Dependency] = []
    seen = set()
    with stats.phase("compose.full"):
        for sigma in second.dependencies:
            frontier = sigma.frontier()
            goal = sigma.premise.atoms
            for generator in minimal_generators(
                first, goal, frontier, config=mingen_config
            ):
                candidate = Dependency(
                    Premise(generator.atoms), (sigma.disjuncts[0],)
                )
                key = candidate.canonical_form()
                if key not in seen:
                    seen.add(key)
                    composed.append(candidate)
                    stats.bump("compose_rules_emitted")
    return SchemaMapping(
        first.source,
        second.target,
        tuple(composed),
        name=name
        or (
            f"{first.name}∘{second.name}"
            if first.name and second.name
            else ""
        ),
    )
