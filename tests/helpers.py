"""Random generators and independent oracles used across the test suite.

The oracles deliberately reimplement the checked behavior with different
machinery (plain DFS/BFS, recursive enumeration, string keys) so they do not
share code paths with the package.
"""

from __future__ import annotations

import random
from collections import defaultdict

from semchain import ClassInstance, InternalLinkTriple, SemanticModel, SemanticTriple

CLASS_POOL = ("Person", "Artifact", "Production", "Span", "Place")
DATA_PROPERTY_POOL = ("identified_by", "has_note", "within")
OBJECT_PROPERTY_POOL = ("made_by", "has_span", "located_at")
ATTRIBUTE_POOL = ("name", "date", "title", "place", "code")


def random_model(
    rng: random.Random,
    max_instances_per_class: int = 3,
    max_sem: int = 6,
    max_links: int = 6,
    acyclic: bool = False,
    class_pool: tuple[str, ...] = CLASS_POOL,
) -> SemanticModel:
    instances = []
    for cls in class_pool:
        for index in range(1, rng.randint(0, max_instances_per_class) + 1):
            instances.append(ClassInstance(cls, index))
    if not instances:
        instances.append(ClassInstance(rng.choice(class_pool), 1))
    sems = set()
    for _ in range(rng.randint(0, max_sem)):
        sems.add(
            SemanticTriple(
                rng.choice(instances), rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL)
            )
        )
    links = set()
    for _ in range(rng.randint(0, max_links)):
        a, b = rng.sample(range(len(instances)), 2) if len(instances) >= 2 else (0, 0)
        if a == b:
            continue
        if acyclic and a > b:
            a, b = b, a
        links.add(
            InternalLinkTriple(instances[a], rng.choice(OBJECT_PROPERTY_POOL), instances[b])
        )
    return SemanticModel(frozenset(sems), frozenset(links))


def _index_permutation(model: SemanticModel, rng: random.Random) -> dict[ClassInstance, ClassInstance]:
    renames: dict[ClassInstance, ClassInstance] = {}
    by_class: dict[str, list[int]] = defaultdict(list)
    for inst in sorted(model.instances()):
        by_class[inst.class_name].append(inst.index)
    for cls, indices in by_class.items():
        shuffled = indices[:]
        rng.shuffle(shuffled)
        for old, new in zip(sorted(indices), shuffled):
            renames[ClassInstance(cls, old)] = ClassInstance(cls, new)
    return renames


def renamed_copy(model: SemanticModel, rng: random.Random) -> SemanticModel:
    """The same triples under a consistent per-class index permutation."""
    renames = _index_permutation(model, rng)
    return SemanticModel(
        frozenset(
            SemanticTriple(renames[t.subject], t.property, t.attribute)
            for t in model.semantic_triples
        ),
        frozenset(
            InternalLinkTriple(renames[link.subject], link.property, renames[link.object])
            for link in model.internal_link_triples
        ),
    )


def perturbed_copy(gold: SemanticModel, rng: random.Random) -> SemanticModel:
    """A prediction-like variant: permuted instance indices, a few triples
    dropped, and a few spurious ones added."""
    return planted_copy(gold, rng)[0]


def planted_copy(gold: SemanticModel, rng: random.Random) -> tuple[SemanticModel, int]:
    """perturbed_copy() plus its planted intersection: the gold triples it
    kept, which all match under the inverse index permutation, so no exact
    matcher may score below it."""
    renames = _index_permutation(gold, rng)

    sems = set()
    for t in sorted(gold.semantic_triples):
        if rng.random() < 0.8:
            sems.add(SemanticTriple(renames[t.subject], t.property, t.attribute))
    links = set()
    for link in sorted(gold.internal_link_triples):
        if rng.random() < 0.8:
            links.add(
                InternalLinkTriple(renames[link.subject], link.property, renames[link.object])
            )
    planted = len(sems) + len(links)
    for _ in range(rng.randint(0, 2)):
        inst = ClassInstance(rng.choice(CLASS_POOL), rng.randint(1, 3))
        sems.add(SemanticTriple(inst, rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL)))
    return SemanticModel(frozenset(sems), frozenset(links)), planted


def sized_model(
    rng: random.Random, counts: tuple[int, ...], max_sem: int = 0, max_links: int = 6
) -> SemanticModel:
    """A random model with exactly counts[i] instances of CLASS_POOL[i]: one
    annotation per instance, plus up to max_sem more and up to max_links links."""
    instances = [
        ClassInstance(cls, index)
        for cls, count in zip(CLASS_POOL, counts)
        for index in range(1, count + 1)
    ]

    def annotation(inst):
        return SemanticTriple(inst, rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL))

    sems = {annotation(inst) for inst in instances}
    sems |= {annotation(rng.choice(instances)) for _ in range(rng.randint(0, max_sem))}
    links = set()
    for _ in range(rng.randint(0, max_links)):
        a, b = rng.sample(instances, 2)
        links.add(InternalLinkTriple(a, rng.choice(OBJECT_PROPERTY_POOL), b))
    return SemanticModel(frozenset(sems), frozenset(links))


# --- oracles -----------------------------------------------------------------

def bfs_connected_instances(model: SemanticModel, attributes: set[str]) -> set[str]:
    """Instances with an undirected path to a kept attribute (string-keyed BFS)."""
    edges: dict[str, set[str]] = defaultdict(set)
    seeds = []
    for t in model.semantic_triples:
        if t.attribute in attributes:
            a, b = "I:" + t.subject.render(), "A:" + t.attribute
            edges[a].add(b)
            edges[b].add(a)
            seeds.append(b)
    for link in model.internal_link_triples:
        a, b = "I:" + link.subject.render(), "I:" + link.object.render()
        edges[a].add(b)
        edges[b].add(a)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for neighbor in edges[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return {node[2:] for node in seen if node.startswith("I:")}


def longest_path_to_attribute(model: SemanticModel) -> int:
    """Exhaustive simple-path enumeration; lengths include the attribute edge."""
    successors: dict[ClassInstance, set[ClassInstance]] = defaultdict(set)
    for link in model.internal_link_triples:
        successors[link.subject].add(link.object)
    annotated = {t.subject for t in model.semantic_triples}
    best = 0

    def walk(node, visited, length):
        nonlocal best
        if node in annotated:
            best = max(best, length + 1)
        for nxt in successors[node]:
            if nxt not in visited:
                walk(nxt, visited | {nxt}, length + 1)

    for inst in model.instances():
        walk(inst, {inst}, 0)
    return best


def best_intersection_bruteforce(gold: SemanticModel, predicted: SemanticModel) -> int:
    """Max matching triples over every per-class injective index mapping,
    including partial ones; recursive enumeration over string-rendered triples."""
    gold_strings = set(_render(gold, {}))
    pred_classes = _indices_by_class(predicted)
    gold_classes = _indices_by_class(gold)
    shared = sorted(set(pred_classes) & set(gold_classes))
    best = 0

    def assignments(pred_indices, gold_indices):
        def rec(i, used, acc):
            if i == len(pred_indices):
                yield dict(acc)
                return
            p = pred_indices[i]
            yield from rec(i + 1, used, acc + [(p, None)])
            for g in gold_indices:
                if g not in used:
                    yield from rec(i + 1, used | {g}, acc + [(p, g)])

        yield from rec(0, frozenset(), [])

    def recurse(i, chosen):
        nonlocal best
        if i == len(shared):
            mapping = {}
            for cls, assign in chosen.items():
                for p, g in assign.items():
                    mapping[(cls, p)] = g
            mapped = set(_render(predicted, mapping))
            best = max(best, len(mapped & gold_strings))
            return
        cls = shared[i]
        for assign in assignments(pred_classes[cls], gold_classes[cls]):
            chosen[cls] = assign
            recurse(i + 1, chosen)
        del chosen[cls]

    recurse(0, {})
    return best


def _indices_by_class(model: SemanticModel) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for inst in model.instances():
        out[inst.class_name].append(inst.index)
    return {cls: sorted(v) for cls, v in out.items()}


def _render(model: SemanticModel, mapping: dict) -> list[str]:
    def name(inst: ClassInstance) -> str:
        key = (inst.class_name, inst.index)
        if key in mapping:
            target = mapping[key]
            if target is None:
                return f"?{inst.class_name}?{inst.index}"
            return f"{inst.class_name}#{target}"
        if mapping:
            return f"?{inst.class_name}?{inst.index}"
        return f"{inst.class_name}#{inst.index}"

    # With an empty mapping this renders identity names (used for gold).
    out = []
    for t in model.semantic_triples:
        out.append(f"sem|{name(t.subject)}|{t.property}|{t.attribute}")
    for link in model.internal_link_triples:
        out.append(f"link|{name(link.subject)}|{link.property}|{name(link.object)}")
    return out


def transitive_ancestors_bruteforce(parent: dict[str, str | None], name: str) -> set[str]:
    out = set()
    current = parent[name]
    while current is not None:
        out.add(current)
        current = parent[current]
    return out
