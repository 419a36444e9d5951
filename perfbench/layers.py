"""The program's layers as the traced launcher sees them.

:data:`TARGETS` names, for each traced layer, the public function (or
method) whose calls are its spans.  :func:`install` wraps each one and
rebinds every reference to it held by a loaded ``repro.*`` module:
callers bind names with ``from module import f``, so patching only
the defining module would miss them.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from typing import Any, Callable, Dict, Tuple

from perfbench.spans import Tracer, by_name


def _experiment_span(experiment_id: str, *args: Any, **kwargs: Any) -> str:
    return f"experiments.{experiment_id.upper()}"


def _job_tag(spec: Dict[str, Any], *args: Any, **kwargs: Any) -> str:
    from repro.service.protocol import job_key

    return job_key(spec)[:16]


#: layer span name -> (module, attribute path, wrap options)
TARGETS: Tuple[Tuple[str, str, str, Dict[str, Any]], ...] = (
    ("experiments", "repro.experiments.registry", "run_experiment",
     {"name_of": _experiment_span}),
    ("composition.membership", "repro.core.composition", "composition_membership",
     {"count_truthy": True}),
    ("composition.compose_full", "repro.core.composition", "compose_full", {}),
    ("mapping.is_solution", "repro.core.mapping", "is_solution", {}),
    ("mapping.universal_solution", "repro.core.mapping", "universal_solution", {}),
    ("mapping.solutions_contained", "repro.core.mapping", "solutions_contained", {}),
    ("generators.minimal_generators", "repro.core.generators", "minimal_generators", {}),
    ("generators.exhaustive", "repro.core.generators",
     "minimal_generators_exhaustive", {}),
    ("generators.is_generator", "repro.core.generators", "is_generator",
     {"count_truthy": True}),
    ("quasi_inverse", "repro.core.quasi_inverse", "quasi_inverse", {}),
    ("inverse", "repro.core.inverse", "inverse", {}),
    ("chase.standard", "repro.chase.standard", "chase", {}),
    ("chase.disjunctive", "repro.chase.disjunctive", "disjunctive_chase", {}),
    ("chase.homomorphism", "repro.chase.homomorphism", "instance_homomorphism", {}),
    ("framework.subset_property", "repro.core.framework", "subset_property", {}),
    ("framework.unique_solutions", "repro.core.framework",
     "unique_solutions_property", {}),
    ("framework.is_inverse", "repro.core.framework", "is_inverse", {}),
    ("framework.is_quasi_inverse", "repro.core.framework", "is_quasi_inverse", {}),
    ("framework.is_generalized_inverse", "repro.core.framework",
     "is_generalized_inverse", {}),
    ("recovery.round_trip", "repro.dataexchange.exchange", "round_trip", {}),
    ("symmetry.canonical_form", "repro.engine.symmetry", "ground_canonical_form", {}),
    ("store.load", "repro.engine.store", "VerdictStore.load", {}),
    ("store.save", "repro.engine.store", "VerdictStore.save", {}),
    ("store.flush", "repro.engine.store", "VerdictStore.flush", {}),
    ("service.execute_job", "repro.service.jobs", "execute_job", {"job_of": _job_tag}),
)


def import_all() -> None:
    """Import every ``repro`` module, so that every binding made by
    ``from ... import`` exists before :func:`install` rebinds it."""
    root = importlib.import_module("repro")
    for info in pkgutil.walk_packages(root.__path__, "repro."):
        importlib.import_module(info.name)


def install(tracer: Tracer) -> Dict[str, int]:
    """Wrap every target and rebind all references to it; returns how
    many module attributes were rebound per layer (at least one each,
    or the target has moved and this raises)."""
    import_all()
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    rebound: Dict[str, int] = {}
    for layer, module_name, attribute, options in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original: Callable = owner.__dict__[leaf]
        wrapper = tracer.wrap(layer, original, **options)
        setattr(owner, leaf, wrapper)
        count = 1
        if not path:  # a module-level function: rebind its importers too
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        count += 1
        rebound[layer] = count
    return rebound


EXPERIMENT_IDS = tuple(f"E{number}" for number in range(1, 15))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced process, from its span
    aggregates and its engine counters (see :mod:`perfbench.launch`)."""
    folded = by_name(trace["aggregates"])
    counters = trace["counters"]
    empty: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    for experiment in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment}.wall_s"] = folded.get(
            f"experiments.{experiment}", empty
        ).get("total_s", 0.0)
    for layer, *_rest in TARGETS:
        if layer == "experiments":
            continue
        slot = folded.get(layer, empty)
        metrics[f"{layer}.calls"] = slot.get("calls", 0)
        metrics[f"{layer}.self_s"] = slot.get("self_s", 0.0)
    tried = counters.get("membership_candidates_tried", 0)
    metrics["composition.membership.candidates_tried"] = tried
    metrics["composition.membership.accept_ratio"] = _ratio(
        folded.get("composition.membership", empty).get("truthy", 0), tried
    )
    metrics["composition.compose_full.rules_emitted"] = counters.get(
        "compose_rules_emitted", 0
    )
    generator = folded.get("generators.is_generator", empty)
    metrics["generators.is_generator.accept_ratio"] = _ratio(
        generator.get("truthy", 0), generator.get("calls", 0)
    )
    for cache in ("chase", "verdict"):
        hits = counters.get(f"{cache}_cache_hits", 0)
        metrics[f"cache.{cache}.hit_ratio"] = _ratio(
            hits, hits + counters.get(f"{cache}_cache_misses", 0)
        )
    store_hits = counters.get("store_hits", 0)
    metrics["store.hit_ratio"] = _ratio(
        store_hits, store_hits + counters.get("store_misses", 0)
    )
    metrics["store.errors"] = counters.get("store_read_errors", 0) + counters.get(
        "store_write_errors", 0
    )
    metrics["service.job_retries"] = counters.get("service_job_retries", 0)
    metrics["engine.instances_processed"] = counters.get("instances_processed", 0)
    return metrics
