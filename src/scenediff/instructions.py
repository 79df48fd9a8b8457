"""Templated language instructions over scene graphs.

An instruction carries up to two relation triplets (subject category,
relation, object category) plus an optional style constraint expressed as a
target code signature. Rendering draws surface forms from a finite template
grammar; parsing inverts rendering exactly, so parse(render(i)) == i.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .config import SceneConfig
from .errors import InstructionParseError, VocabularyError
from .graph import SemanticGraph, empty_state
from .relations import RelationLabel, inverse_relations, pair_slots

MAX_TRIPLETS = 2


@dataclass(frozen=True)
class StyleConstraint:
    """Target code signature, for the whole room or one category."""

    codes: tuple[int, ...]
    category: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "codes", tuple(int(c) for c in self.codes))
        if self.category is not None:
            object.__setattr__(self, "category", int(self.category))


@dataclass(frozen=True)
class Instruction:
    """Conjunctive constraint set; empty means unconditional."""

    triplets: tuple[tuple[int, RelationLabel, int], ...] = ()
    style: StyleConstraint | None = None
    text: str = field(default="", compare=False)

    def __post_init__(self):
        trips = tuple(
            (int(s), RelationLabel(r), int(o)) for s, r, o in self.triplets
        )
        if len(trips) > MAX_TRIPLETS:
            raise ValueError(f"at most {MAX_TRIPLETS} triplets per instruction")
        object.__setattr__(self, "triplets", trips)

    def is_unconditional(self) -> bool:
        return not self.triplets and self.style is None


UNCONDITIONAL = Instruction()


class _Grammar:
    def __init__(self, text: str):
        sections: dict[str, list[str]] = {}
        current = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = []
            elif current is not None:
                sections[current].append(line)
        self.triplet_template = sections["triplet"][0]
        self.verbs = sections["verbs"]
        self.conjunctions = sections["conjunctions"]
        self.style_category = sections["style_category"][0]
        self.style_room = sections["style_room"][0]
        self.relation_phrase = {}
        for line in sections["relations"]:
            label, phrase = line.split("|", 1)
            self.relation_phrase[RelationLabel.from_text(label)] = phrase
        if set(self.relation_phrase) != set(RelationLabel):
            raise ValueError("grammar must phrase every relation label")


_GRAMMAR: _Grammar | None = None


def _grammar() -> _Grammar:
    global _GRAMMAR
    if _GRAMMAR is None:
        text = resources.files("scenediff").joinpath("data/grammar.txt").read_text()
        _GRAMMAR = _Grammar(text)
    return _GRAMMAR


def _style_name(codes: tuple[int, ...], config: SceneConfig) -> str:
    if config.style_codes:
        for name, sig in zip(config.style_names, config.style_codes):
            if tuple(sig) == tuple(codes):
                return name
    return "style-" + "-".join(str(c) for c in codes)


def _style_codes_from_name(name: str, config: SceneConfig) -> tuple[int, ...]:
    literal = re.fullmatch(r"style-(\d+(?:-\d+)*)", name)
    if literal:
        codes = tuple(int(c) for c in literal.group(1).split("-"))
        if len(codes) != config.n_f:
            raise VocabularyError(f"style signature needs {config.n_f} codes, got {len(codes)}")
        if any(c >= config.k_f for c in codes):
            raise VocabularyError(f"style signature {name!r} has a code outside the codebook")
        return codes
    return config.style_signature(name)


def render_instruction(instr: Instruction, config: SceneConfig, seed: int = 0) -> str:
    """Render an instruction to text; deterministic for a fixed seed."""
    g = _grammar()
    rng = random.Random(seed)
    clauses = []
    for subject, rel, obj in instr.triplets:
        for c in (subject, obj):
            if not 0 <= c < config.k_c:
                raise VocabularyError(f"category label {c} outside vocabulary")
        clauses.append(
            g.triplet_template.replace("{verb}", rng.choice(g.verbs), 1)
            .replace("{rel}", g.relation_phrase[RelationLabel(rel)], 1)
            .replace("{cat}", config.category_names[subject], 1)
            .replace("{cat}", config.category_names[obj], 1)
        )
    text = ""
    for i, clause in enumerate(clauses):
        if i == 0:
            text = clause
        else:
            text += rng.choice(g.conjunctions) + " " + clause
    if instr.style is not None:
        name = _style_name(instr.style.codes, config)
        if instr.style.category is None:
            clause = g.style_room.replace("{style}", name, 1)
        else:
            if not 0 <= instr.style.category < config.k_c:
                raise VocabularyError(f"category label {instr.style.category} outside vocabulary")
            clause = (
                g.style_category
                .replace("{cat}", config.category_names[instr.style.category], 1)
                .replace("{style}", name, 1)
            )
        text = text + ". " + clause if text else clause
    if not text:
        return ""
    text += "."
    # capitalize sentence starts
    out = list(text)
    out[0] = out[0].upper()
    for m in re.finditer(r"\.\s+(\w)", text):
        out[m.start(1)] = text[m.start(1)].upper()
    return "".join(out)


def _alternation(tokens) -> str:
    return "|".join(re.escape(t) for t in sorted(tokens, key=len, reverse=True))


def parse_instruction(text: str, config: SceneConfig) -> Instruction:
    """Invert render_instruction. Raises InstructionParseError on malformed
    text and VocabularyError on unknown categories or styles."""
    g = _grammar()
    raw = text.strip()
    if not raw:
        return Instruction(text=text)
    low = raw.lower().rstrip(".")
    cat_alt = _alternation(config.category_names)

    style = None
    style_cat_re = re.compile(
        g.style_category.replace("{cat}", f"(?P<cat>{cat_alt})").replace("{style}", "(?P<style>\\S+)")
        + "$"
    )
    style_room_re = re.compile(
        g.style_room.replace("{style}", "(?P<style>\\S+)") + "$"
    )
    for pattern, with_category in ((style_cat_re, True), (style_room_re, False)):
        m = pattern.search(low)
        if m is None:
            continue
        name = m.group("style")
        codes = _style_codes_from_name(name, config)
        if with_category:
            category = config.category_index(m.group("cat"))
            style = StyleConstraint(codes=codes, category=category)
        else:
            style = StyleConstraint(codes=codes, category=None)
        low = low[: m.start()].strip().rstrip(".").strip()
        break

    triplets = []
    if low:
        for conj in g.conjunctions:
            low = low.replace(conj + " ", "\x00")
        rel_alt = _alternation(g.relation_phrase.values())
        verb_alt = _alternation(g.verbs)
        clause_re = re.compile(
            f"(?:{verb_alt}) a (?P<s>{cat_alt}) (?P<rel>{rel_alt}) a (?P<o>{cat_alt})"
        )
        for clause in low.split("\x00"):
            clause = clause.strip()
            if not clause:
                continue
            m = clause_re.fullmatch(clause)
            if m is None:
                raise InstructionParseError(f"cannot parse clause {clause!r}")
            phrase_to_label = {v: k for k, v in g.relation_phrase.items()}
            triplets.append(
                (
                    config.category_index(m.group("s")),
                    phrase_to_label[m.group("rel")],
                    config.category_index(m.group("o")),
                )
            )
    if len(triplets) > MAX_TRIPLETS:
        raise InstructionParseError(f"instruction has {len(triplets)} triplets, at most {MAX_TRIPLETS} allowed")
    return Instruction(triplets=tuple(triplets), style=style, text=text)


def instruction_matches(graph: SemanticGraph, instr: Instruction) -> bool:
    """Conjunctive satisfaction of an instruction by a clean graph.

    Every triplet must be realized by some ordered slot pair; a style
    constraint requires all slots of the stated category (all real slots for
    a room-level constraint, at least one of which must exist) to carry the
    target code signature.
    """
    if graph.has_mask():
        raise ValueError("instruction_matches needs a clean graph")
    cats = graph.categories
    real = np.flatnonzero(cats < graph.k_c)
    j, k = pair_slots(graph.n_slots)
    cj, ck = cats[j], cats[k]
    live = (cj < graph.k_c) & (ck < graph.k_c)
    forward, inverted = graph.relations, inverse_relations(graph.relations)
    for subject, rel, obj in instr.triplets:
        # Realized by a real-real pair read either way round.
        hit = (((cj == subject) & (ck == obj) & (forward == rel))
               | ((ck == subject) & (cj == obj) & (inverted == rel)))
        if not (hit & live).any():
            return False
    if instr.style is not None:
        target = np.asarray(instr.style.codes, dtype=np.int64)
        if instr.style.category is None:
            slots = real
        else:
            slots = real[cats[real] == instr.style.category]
        if slots.size == 0:
            return False
        if not (graph.codes[slots] == target[None, :]).all():
            return False
    return True


def instruction_match_stages(categories: np.ndarray, codes: np.ndarray, relations: np.ndarray,
                             instr: Instruction, k_c: int) -> tuple[np.ndarray, np.ndarray]:
    """instruction_matches over a table of clean graphs, one per row, split
    into its two stages.

    categories (U, n), codes (U, n, n_f) and relations (U, P) hold the
    graphs' labels. Returns two boolean (U,) arrays: the rows that realize
    every triplet, and the rows that meet the style constraint. A stage the
    instruction leaves out passes every row.
    """
    j, k = pair_slots(categories.shape[1])
    cj, ck = categories[:, j], categories[:, k]
    live = (cj < k_c) & (ck < k_c)
    inverted = inverse_relations(relations)
    triplets = np.ones(categories.shape[0], dtype=bool)
    for subject, rel, obj in instr.triplets:
        hit = (((cj == subject) & (ck == obj) & (relations == rel))
               | ((ck == subject) & (cj == obj) & (inverted == rel)))
        triplets &= (hit & live).any(axis=1)
    style = np.ones_like(triplets)
    if instr.style is not None:
        slots = categories < k_c
        if instr.style.category is not None:
            slots &= categories == instr.style.category
        on_style = (codes == np.asarray(instr.style.codes, dtype=np.int64)).all(axis=2)
        style = slots.any(axis=1) & (on_style | ~slots).all(axis=1)
    return triplets, style
