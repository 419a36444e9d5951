"""Canonical, pruned composition membership against the product oracle.

``composition_membership`` searches one candidate intermediate per
isomorphism class and cuts branches early; the oracle in
``tests/oracles.py`` tries every raw ``product`` candidate and
model-checks each.  Both must decide the same relation, verdict for
verdict, on random LAV and full mappings with quasi-inverse and random
disjunctive reverse mappings (Constant() and inequalities included).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import expression_membership
from repro.algebra.expr import Compose, MappingAtom
from repro.core.composition import (
    CompositionBudgetError,
    MembershipSearch,
    canonical_intermediates,
    composition_membership,
)
from repro.core.generators import MinGenConfig
from repro.core.mapping import SchemaMapping
from repro.core.quasi_inverse import quasi_inverse
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.engine import engine_stats, reset_engine_stats
from repro.workloads import random_full_mapping, random_ground_instance, random_lav_mapping
from tests.oracles import (
    isomorphism_key,
    product_expression_membership,
    product_intermediates,
    product_membership,
)

ORACLE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: keeps the oracle's (2k + |adom|)^k candidates small
MAX_NULLS = 3

#: MinGen on a random full mapping can take minutes (its specialization
#: closure grows with the fresh variables); capping the closure at 3
#: keeps each scenario under about a second.  The reverse mapping is the
#: algorithm's output on almost every draw, and a disjunctive tgd
#: mapping of the same shape on the rest, which is all the membership
#: comparison needs.
SCENARIO_MINGEN = MinGenConfig(max_specialization_vars=3)


def _agree(first, second, left, right):
    """Both procedures decide the pair alike (or both refuse it)."""
    try:
        expected = product_membership(first, second, left, right, MAX_NULLS)
    except CompositionBudgetError:
        with pytest.raises(CompositionBudgetError):
            composition_membership(first, second, left, right, max_nulls=MAX_NULLS)
        return
    assert (
        composition_membership(first, second, left, right, max_nulls=MAX_NULLS)
        == expected
    )


def _forward(kind, seed):
    if kind == "lav":
        return random_lav_mapping(
            seed, n_source=2, n_target=2, max_arity=2, n_tgds=2
        )
    return random_full_mapping(
        seed, n_source=2, n_target=2, max_arity=2, n_tgds=2, max_premise_atoms=2
    )


@st.composite
def reverse_dependencies(draw, target: Schema, source: Schema):
    """A random target-to-source disjunctive tgd with Constant() and ≠."""
    pool = [Variable(f"x{i}") for i in range(1, 4)]
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        relation = draw(st.sampled_from(target.names()))
        atoms.append(
            Atom(
                relation,
                tuple(
                    draw(st.sampled_from(pool))
                    for _ in range(target.arity(relation))
                ),
            )
        )
    used = sorted({v for atom in atoms for v in atom.args})
    constant_vars = frozenset(
        v for v in used if draw(st.booleans())
    )
    inequalities = frozenset(
        (left, right)
        for index, left in enumerate(used)
        for right in used[index + 1:]
        if draw(st.integers(0, 3)) == 0
    )
    disjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        conclusion = []
        for _ in range(draw(st.integers(1, 2))):
            relation = draw(st.sampled_from(source.names()))
            conclusion.append(
                Atom(
                    relation,
                    tuple(
                        draw(st.sampled_from(used + [Variable("y1"), Variable("y2")]))
                        for _ in range(source.arity(relation))
                    ),
                )
            )
        disjuncts.append(tuple(conclusion))
    return Dependency(Premise(tuple(atoms), constant_vars, inequalities), tuple(disjuncts))


@st.composite
def scenarios(draw):
    forward = _forward(
        draw(st.sampled_from(["lav", "full"])), draw(st.integers(0, 10_000))
    )
    if draw(st.booleans()):
        reverse = quasi_inverse(forward, mingen_config=SCENARIO_MINGEN)
    else:
        dependencies = draw(
            st.lists(
                reverse_dependencies(forward.target, forward.source),
                min_size=1,
                max_size=2,
            )
        )
        reverse = SchemaMapping(forward.target, forward.source, tuple(dependencies))
    left = random_ground_instance(
        forward.source, draw(st.integers(0, 1000)),
        n_facts=draw(st.integers(1, 2)), domain_size=2,
    )
    extra = random_ground_instance(
        forward.source, draw(st.integers(0, 1000)),
        n_facts=draw(st.integers(0, 2)), domain_size=3,
    )
    right = draw(st.sampled_from([left, left.union(extra), extra]))
    return forward, reverse, left, right


@ORACLE
@given(scenario=scenarios())
def test_membership_matches_product_oracle(scenario):
    _agree(*scenario)


@ORACLE
@given(scenario=scenarios())
def test_prepared_search_matches_product_oracle(scenario):
    """One search per left, reused across rights, decides like the
    oracle for each right."""
    forward, reverse, left, right = scenario
    try:
        search = MembershipSearch(forward, reverse, left, max_nulls=MAX_NULLS)
    except CompositionBudgetError:
        return
    for other in (right, left, Instance.empty()):
        assert search.member(other) == product_membership(
            forward, reverse, left, other, MAX_NULLS
        )


def _assert_canonical_classes(mapping, left, right):
    fixed = frozenset(left.constants() | right.constants())
    canonical = [
        isomorphism_key(candidate, fixed)
        for candidate in canonical_intermediates(mapping, left, right)
    ]
    raw = {
        isomorphism_key(candidate, fixed)
        for candidate in product_intermediates(mapping, left, right)
    }
    assert len(set(canonical)) == len(canonical), "two canonical candidates are isomorphic"
    assert raw <= set(canonical), "a product candidate has no canonical twin"
    assert set(canonical) <= raw
    return len(canonical), len(raw)


class TestCanonicalEnumeration:
    def test_three_nulls_one_adom_constant(self):
        source = Schema.of({"P": 1})
        target = Schema.of({"Q": 3})
        mapping = SchemaMapping.from_text(
            source, target, "P(x) -> exists y, z, w . Q(y, z, w)"
        )
        left = Instance.build({"P": [("a",)]})
        canonical, classes = _assert_canonical_classes(mapping, left, left)
        # some nulls go to the adom constant, the rest form a set
        # partition whose blocks are each a null or a fresh constant:
        # 1·22 + 3·6 + 3·2 + 1·1 classes, against 7^3 raw candidates
        assert canonical == classes == 47

    def test_two_nulls_two_adom_constants(self):
        source = Schema.of({"P": 2})
        target = Schema.of({"Q": 2, "R": 2})
        mapping = SchemaMapping.from_text(
            source, target, "P(x, y) -> exists z . Q(x, z) & R(z, y)"
        )
        left = Instance.build({"P": [("a", "b"), ("b", "a")]})
        right = Instance.build({"P": [("c", "a")]})
        _assert_canonical_classes(mapping, left, right)

    def test_no_nulls_yields_the_chase(self):
        mapping = random_full_mapping(3, n_source=2, n_target=2)
        left = random_ground_instance(mapping.source, 1, n_facts=2, domain_size=2)
        assert len(list(canonical_intermediates(mapping, left, left))) == 1


class TestCandidateCounts:
    def test_pruned_search_cuts_branches(self):
        """R's null is searched first (its fact completes soonest); any
        constant image of it breaks the first reverse rule at once, so
        only the leaves keeping it a null are ever tried."""
        source = Schema.of({"P": 1})
        target = Schema.of({"Q": 2, "R": 1})
        mapping = SchemaMapping.from_text(
            source, target, "P(x) -> exists y, z, w . Q(y, z) & R(w)"
        )
        reverse = SchemaMapping.from_text(
            target, source, "R(x) & Constant(x) -> P(x)\nQ(x, y) -> P(x)"
        )
        left = Instance.build({"P": [("a",)]})
        right = Instance.empty()
        assert not product_membership(mapping, reverse, left, right)
        reset_engine_stats()
        assert not composition_membership(mapping, reverse, left, right)
        tried = engine_stats().counters()["membership_candidates_tried"]
        classes = len(list(canonical_intermediates(mapping, left, right)))
        assert 0 < tried < classes


def _nested_scenario():
    source = Schema.of({"P": 2})
    middle = Schema.of({"Q": 2, "R": 2})
    joined = Schema.of({"S": 2})
    split = SchemaMapping.from_text(
        source, middle, "P(x, y) -> exists z . Q(x, z) & R(z, y)", name="Split"
    )
    join = SchemaMapping.from_text(
        middle, joined, "Q(x, z) & R(z, y) -> S(x, y)", name="Join"
    )
    back = SchemaMapping.from_text(
        joined,
        source,
        "S(x, y) & Constant(x) & Constant(y) & x != y -> P(x, y) | P(y, x)",
        name="Back",
    )
    copy = SchemaMapping.from_text(source, source, "P(x, y) -> P(x, y)", name="Copy")
    relay = SchemaMapping.from_text(joined, joined, "S(x, y) -> S(x, y)", name="Relay")
    return split, join, back, copy, relay


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["left", "right"]),
    left_seed=st.integers(0, 500),
    right_seed=st.integers(0, 500),
)
def test_nested_compose_membership_matches_oracle(shape, left_seed, right_seed):
    split, join, back, copy, relay = _nested_scenario()
    if shape == "left":
        # compose(compose(Copy, Split), compose(Join, Back)): a staged
        # first leg and a second leg that composes again
        expr = Compose(
            Compose(MappingAtom(copy), MappingAtom(split)),
            Compose(MappingAtom(join), MappingAtom(back)),
        )
    else:
        # compose(Split, compose(Join, compose(Relay, Back))): the
        # inner searches start from intermediates that carry nulls
        expr = Compose(
            MappingAtom(split),
            Compose(MappingAtom(join), Compose(MappingAtom(relay), MappingAtom(back))),
        )
    left = random_ground_instance(split.source, left_seed, n_facts=2, domain_size=2)
    right = random_ground_instance(split.source, right_seed, n_facts=2, domain_size=2)
    for candidate_right in (right, left, left.union(right)):
        assert expression_membership(
            expr, left, candidate_right, max_nulls=MAX_NULLS
        ) == product_expression_membership(expr, left, candidate_right, MAX_NULLS)
