"""Benchmark-side providers, built only on the public ``Provider`` protocol and
``MockProvider`` / ``MockScript``.

``BenchProvider`` replays a script, counts calls and tokens, times each
experiment's set-up (from ``begin_setup`` to the next call) and can sleep per
call to stand in for a live endpoint. ``planted_answers`` makes the match-dense answers: each gold model
under a seeded per-class index permutation, with a seeded share of triples
dropped.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from pathlib import Path
from typing import Mapping, Sequence

from datagen import seeded_rng
from semchain import Completion, Message, MockProvider, MockScript

_INDEX_RE = re.compile(r"^(.*?)(\d+)$")


class BenchProvider:
    """Closed-loop provider: each caller waits for its own reply.

    With ``delay_s`` or ``per_token_s`` set, every call sleeps for
    ``delay_s + per_token_s * (input + output tokens)`` after the mock
    answers, in ``wait`` so a tracer can time it on its own.
    """

    def __init__(self, script: MockScript, delay_s: float = 0.0, per_token_s: float = 0.0) -> None:
        self.script = script
        self.delay_s = delay_s
        self.per_token_s = per_token_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Start a new timed call: fresh mock, zero counters, no set-up times."""
        with self._lock:
            self._mock = MockProvider(self.script)
            self.calls = 0
            self.input_tokens = 0
            self.output_tokens = 0
            self.setups: list[float] = []
            self._setup_started: float | None = None

    def begin_setup(self) -> None:
        """Start the set-up clock of one experiment; the next call stops it."""
        with self._lock:
            self._setup_started = time.perf_counter()

    def complete(
        self,
        system: str,
        turns: Sequence[Message],
        *,
        tags: Mapping[str, str] | None = None,
    ) -> Completion:
        now = time.perf_counter()
        with self._lock:
            if self._setup_started is not None:
                self.setups.append(now - self._setup_started)
                self._setup_started = None
        completion = self._mock.complete(system, turns, tags=tags)
        usage = completion.usage
        if self.delay_s or self.per_token_s:
            self.wait(self.delay_s + self.per_token_s * usage.total)
        with self._lock:
            self.calls += 1
            self.input_tokens += usage.input_tokens
            self.output_tokens += usage.output_tokens
        return completion

    def wait(self, seconds: float) -> None:
        time.sleep(seconds)


def planted_answers(
    golds: Mapping[str, dict], seed: int, drop_share: float
) -> tuple[dict[str, dict], dict[str, dict[str, int]]]:
    """Per source: the planted answer (model JSON) and its score bound per step.

    The answer renumbers each class's instances by a seeded permutation and
    drops ``round(drop_share * size)`` triples, never the first annotation of
    an instance, so every answered instance keeps an attribute. The bound is
    the intersection with gold after undoing the permutation, by plain set
    intersection: the least an exact matcher must find.
    """
    answers, bounds = {}, {}
    for sid, gold in golds.items():
        rng = seeded_rng(seed, f"planted|{sid}")
        semantic = [tuple(t) for t in gold["semantic_triples"]]
        links = [tuple(t) for t in gold["internal_link_triples"]]
        permutation = _index_permutation(semantic, links, rng)
        primary = {}
        for t in sorted(semantic):
            primary.setdefault(t[0], ("sem", t))
        candidates = sorted({("sem", t) for t in semantic} - set(primary.values())) + [
            ("link", t) for t in sorted(links)
        ]
        dropped = set(rng.sample(candidates, min(len(candidates), round(drop_share * len(semantic + links)))))
        kept_semantic = [t for t in semantic if ("sem", t) not in dropped]
        kept_links = [t for t in links if ("link", t) not in dropped]
        answers[sid] = {
            "semantic_triples": sorted(
                [permutation[s], p, a] for s, p, a in kept_semantic
            ),
            "internal_link_triples": sorted(
                [permutation[s], p, permutation[o]] for s, p, o in kept_links
            ),
        }
        bounds[sid] = planted_bound(gold, answers[sid], permutation)
    return answers, bounds


def planted_bound(gold: dict, answer: dict, permutation: Mapping[str, str]) -> dict[str, int]:
    """Intersection of gold and the answer with the permutation undone, per step."""
    inverse = {new: old for old, new in permutation.items()}
    undo_sem = {(inverse[s], p, a) for s, p, a in answer["semantic_triples"]}
    undo_links = {(inverse[s], p, inverse[o]) for s, p, o in answer["internal_link_triples"]}
    gold_sem = {tuple(t) for t in gold["semantic_triples"]}
    gold_links = {tuple(t) for t in gold["internal_link_triples"]}
    labeling = len(gold_sem & undo_sem)
    return {"labeling": labeling, "modeling": labeling + len(gold_links & undo_links)}


def _index_permutation(semantic, links, rng: random.Random) -> dict[str, str]:
    by_class: dict[str, list[tuple[int, str]]] = {}
    names = {s for s, _, _ in semantic} | {s for s, _, _ in links} | {o for _, _, o in links}
    for name in names:
        match = _INDEX_RE.match(name)
        cls, index = (match.group(1), int(match.group(2))) if match else (name, 1)
        by_class.setdefault(cls, []).append((index, name))
    permutation = {}
    for cls in sorted(by_class):
        members = sorted(by_class[cls])
        targets = [index for index, _ in members]
        rng.shuffle(targets)
        for (_, name), new in zip(members, targets):
            permutation[name] = f"{cls}{new}"
    return permutation


def load_gold_docs(gold_dir: Path) -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(Path(gold_dir).glob("*.json"))}
