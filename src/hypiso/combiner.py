"""Combining per-action hyperbolic witnesses into one word hyperbolic everywhere.

The existential constants of the underlying combination theorem are not
effectively computable from the models, so the implementation replaces
them with a verified search: after power normalization (killing finite
orders of elliptic images), candidate exponent pairs (a, b) are enumerated
along a deterministic diagonal schedule and each word f^a g^b is certified
by ``classify``, each model's one exact decision, in every action seen so
far, imaged by ``Action.image`` as a word in the letters f and g sent to
the images that the certificates of earlier stages keep.  The first
certified candidate wins with the classes it was tested by; exhaustion is
an explicit error carrying the trial log.  The checker in ``records``, which
imports nothing from here, re-runs ``Action.image`` and ``classify``.
The hypothesis check and the search for an unclaimed witness read one word
order, ``word_tree``, through one model hook, ``SpaceModel.tagged_words``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .actions import Action, ActionSystem
from .errors import (
    HypothesisViolation,
    MixedModels,
    NotHyperbolic,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from .models import HYPERBOLIC, HYPOTHESIS_VIOLATION, MAX_ISOMETRY_SIZE, IsometryClass, Owned, SpaceModel
from .records import check_printable, check_witnesses
from .words import GroupWord


@dataclass(frozen=True)
class SearchSchedule:
    """Deterministic enumeration of exponent pairs: by max(a, b), then a, then b."""

    max_exponent: int = 32

    def pairs(self) -> Iterator[tuple[int, int]]:
        for m in range(1, self.max_exponent + 1):
            for a in range(1, m + 1):
                if a < m:
                    yield (a, m)
                else:
                    for b in range(1, m + 1):
                        yield (m, b)


class ProfileEntry(NamedTuple):
    """f's and g's classes in one action before a stage's own, and g's image there."""

    cf: IsometryClass
    cg: IsometryClass
    g_image: Owned


def partition(model: SpaceModel, entry: ProfileEntry) -> str:
    """H', H, E or E-E'-candidate.  Only ``report`` reads it, and every profile
    entry's f is hyperbolic: ``combine_step`` refuses a running word that is not."""
    cf, cg = entry.cf, entry.cg
    if cg.is_hyperbolic:
        return "H'" if independent(model, cf, cg) else "H"
    # elliptic g fixing the repelling point satisfies the separation
    # condition outright (the E' side); otherwise the dichotomy is not
    # finitely decidable and we only tag it
    return "E" if model.fixes(entry.g_image, cf.hyperbolic.fixed_minus) else "E-E'-candidate"


@dataclass(frozen=True)
class StageRecord:
    stage: int
    action_name: str
    a: int = 1
    b: int = 0
    p: int = 1
    q: int = 1
    schedule_index: Optional[int] = None  # the certified candidate's; None when trivial
    profile: tuple[ProfileEntry, ...] = ()  # one entry per action before the stage's; () when trivial

    @property
    def trivial(self) -> bool:
        return self.schedule_index is None

    @property
    def candidates_tried(self) -> int:
        return 0 if self.trivial else self.schedule_index + 1


@dataclass(frozen=True)
class SearchStats:
    candidates_tried: int
    stages: int


@dataclass(frozen=True)
class Certificate:
    word: GroupWord
    stages: tuple[StageRecord, ...]
    per_action: tuple[IsometryClass, ...]
    images: tuple[Owned, ...]  # the word's image in each action, aligned with per_action

    @property
    def search_stats(self) -> SearchStats:
        return SearchStats(sum(stage.candidates_tried for stage in self.stages), len(self.stages))


# resolve_witness looks for a hyperbolic word up to this length when an
# action claims no witness
WITNESS_SEARCH_DEPTH = 4

# check_hypotheses tags at most this many (word, action) pairs, and a witness
# search this many words: depth 9 on three_action.cfg is 39,364 words in 3
# actions, about 0.01 s; depth 10 in one plane action with entries past 2^30,
# 118,096 words, 0.15-0.18 s (Python 3.11.7, 2 cores, host.ref_ms 0.15-0.31 ms)
MAX_HYPOTHESIS_PAIRS = 250_000


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    violations: tuple[tuple[GroupWord, int], ...]
    words_checked: int


def check_hypotheses(system: ActionSystem, word_sample_depth: int) -> HypothesisReport:
    """Tag every reduced word up to the given length in every action.

    Each action's model lists its violations (``SpaceModel.tagged_words``
    on the ``word_tree``), each spelled by ``tree_word``: the plane tags each
    level at once, and a tree walks nothing, as it is never parabolic.  With
    one generator every word is a power f^n, n != 0, parabolic exactly when
    f is, so only level 0 is tagged.  Fails (listing the offenders in tree
    order) when there is any; raises WitnessNotHyperbolic (``resolve_witness``)
    when a claimed witness's class is not hyperbolic.  Raises ValidationError
    before any tag when the words times the actions (at least one) exceed
    MAX_HYPOTHESIS_PAIRS.
    """
    # reduced words of length n: any of the r letters, then any but the inverse
    r = 2 * len(system.generators)
    words, level = 0, r
    for _ in range(word_sample_depth):
        words += level
        level *= r - 1
        if words * max(system.n_actions, 1) > MAX_HYPOTHESIS_PAIRS:
            raise ValidationError(
                f"{word_sample_depth} gives over {MAX_HYPOTHESIS_PAIRS} word-action pairs to check",
                "word-sample-depth",
            )
    violations: list[tuple[GroupWord, int]] = []
    letters = step_letters(system.generators)
    tree = word_tree(r, min(word_sample_depth, 1) if r == 2 else word_sample_depth)
    for i, action in enumerate(system.actions):
        found = [*action.model.tagged_words([action.images[g] for g in system.generators], tree, HYPOTHESIS_VIOLATION)]
        if r == 2 and found:  # f and f^-1: every power of f
            violations += [(GroupWord(((g, e * n),)), i) for n in range(1, word_sample_depth + 1) for g, e in letters]
            continue
        violations += [(tree_word(letters, tree, n, j), i) for n, j in found]
    for i, witness in enumerate(system.witnesses):
        if witness is not None:
            resolve_witness(system, i)
    return HypothesisReport(passed=not violations, violations=tuple(violations), words_checked=words)


def step_letters(generators: Iterable[str]) -> list[tuple[str, int]]:
    """Generators in order, +1 before -1: letter 2i is generator i, letter 2i + 1 its inverse."""
    return [(g, e) for g in generators for e in (1, -1)]


# the reduced-word tree on r steps, by r: see word_tree
_WORD_TREES: dict[int, list[memoryview]] = {}


def word_tree(r: int, depth: int) -> list[memoryview]:
    """The first depth levels of the tree of reduced words on r steps, step
    j ^ 1 the inverse of step j, level n holding the last step of each word
    of length n + 1 as a read-only int64 buffer: the one word order of the
    hypothesis check and the witness search.  A word's children are the r - 1
    steps but its inverse, in step order, so word k of level n + 1 is a child
    of word k // (r - 1) of level n.  Kept per r and grown only as deeper
    calls ask; the callers cap the words they ask for at MAX_HYPOTHESIS_PAIRS."""
    levels = _WORD_TREES.setdefault(r, [])
    if depth and not levels:  # the root's children: every step
        levels.append(memoryview(array("q", range(r)).tobytes()).cast("q"))
    if len(levels) < depth:  # each last step's children, r (r - 1) steps: built only for a level past 0
        children = [array("q", [j for j in range(r) if j != last ^ 1]).tobytes() for last in range(r)]
        while len(levels) < depth:
            levels.append(memoryview(b"".join([children[last] for last in levels[-1]])).cast("q"))
    return levels[:depth]


def tree_word(letters: list[tuple[str, int]], levels: list, n: int, j: int) -> GroupWord:
    """Word j of level n of ``word_tree`` (levels), over its ``step_letters``: its last step, then its parents'."""
    path = []
    for m in range(n, -1, -1):
        path.append(letters[levels[m][j]])
        j //= len(letters) - 1
    return GroupWord(tuple(reversed(path)))


def independent(model: SpaceModel, cf: IsometryClass, cg: IsometryClass) -> bool:
    """Disjointness of the boundary fixed-point pairs of two classes (exact test)."""
    if not cf.is_hyperbolic:
        raise NotHyperbolic(f"f is {cf.tag} in model {model.model_id!r}")
    if not cg.is_hyperbolic:
        raise NotHyperbolic(f"g is {cg.tag} in model {model.model_id!r}")
    f_pts, g_pts = cf.hyperbolic.fixed_points, cg.hyperbolic.fixed_points
    return not any(model.boundary_equal(p, q) for p in f_pts for q in g_pts)


def normalize_powers(
    system: ActionSystem, f_classes: tuple[IsometryClass, ...], g_classes: tuple[IsometryClass, ...]
) -> tuple[int, int]:
    """The powers p and q killing all finite orders of f's and g's elliptic
    images among actions 0..stage, from f's and g's classes there, which
    the search has decided: this decides nothing, and refuses a parabolic f,
    then g, action by action.  Hyperbolicity is preserved wherever it held
    (translation lengths scale by the powers, fixed points are unchanged);
    elliptic images of finite order become the identity.
    """
    p = q = 1
    for action, cf, cg in zip(system.actions, f_classes, g_classes):
        for cls, word_name in ((cf, "f"), (cg, "g")):
            if cls.tag == HYPOTHESIS_VIOLATION:
                raise HypothesisViolation(f"{word_name} is parabolic in action {action.name!r}")
        p, q = math.lcm(p, cf.period or 1), math.lcm(q, cg.period or 1)
    return p, q


def combine_step(system: ActionSystem, running: Certificate, schedule: SearchSchedule) -> Certificate:
    """One induction stage: ``running`` certifies f hyperbolic in actions
    0..k-1; returns a word certified hyperbolic in actions 0..k.

    Only f's image and class in action k are new; the others are read from
    ``running``.  When f is already hyperbolic in action k it is returned
    unchanged (the proof's first simplification) and action k's witness is
    not needed; otherwise the witness g is resolved with its class there and
    imaged and classified once in each earlier action, the profile keeps
    those classes and images (``report`` reads their partitions), and the
    powers p and q of f and g are combined along the schedule: each
    candidate f^pa g^qb, a word in the letters f and g, is imaged and
    classified in each action in turn, f and g sent to their images there,
    up to the first class that is not hyperbolic; the certified one keeps
    its classes, and only its word is spelled in the generators, (f^p)^a (g^q)^b.
    """
    f = running.word
    k = len(running.per_action)
    for i, cls in enumerate(running.per_action):
        if not cls.is_hyperbolic:
            raise NotHyperbolic(f"precondition broken: running word is {cls.tag} in action {i}")
    action_k = system.actions[k]
    f_images = running.images + (action_k.image(f),)
    cls_fk = action_k.model.classify(f_images[k])
    if cls_fk.tag == HYPOTHESIS_VIOLATION:
        raise HypothesisViolation(f"running word parabolic in action {action_k.name!r}")
    f_classes = running.per_action + (cls_fk,)
    if cls_fk.is_hyperbolic:
        return Certificate(f, (StageRecord(k, action_k.name),), f_classes, f_images)

    g, g_image, cg = resolve_witness(system, k)
    g_images = tuple(action.image(g) for action in system.actions[:k]) + (g_image,)
    g_classes = tuple(action.model.classify(image) for action, image in zip(system.actions[:k], g_images)) + (cg,)
    p, q = normalize_powers(system, f_classes, g_classes)
    profile = tuple(map(ProfileEntry, f_classes[:k], g_classes, g_images))
    stage_actions = [Action(action.name, action.model, {"f": F, "g": G})
                     for action, F, G in zip(system.actions, f_images, g_images)]

    trials: list[tuple[int, int, int, str]] = []
    for index, (a, b) in enumerate(schedule.pairs()):
        word = GroupWord((("f", p * a), ("g", q * b)))
        images, classes = [], []
        for i, action in enumerate(stage_actions):
            images.append(action.image(word))
            classes.append(cls := action.model.classify(images[-1]))
            if cls.tag != HYPERBOLIC:
                trials.append((a, b, i, cls.tag))
                break
        else:
            return Certificate(
                word=(f**p) ** a * (g**q) ** b,
                stages=(StageRecord(k, action_k.name, a, b, p, q, index, profile),),
                per_action=tuple(classes),
                images=tuple(images),
            )
    raise ScheduleExhausted(k, trials)


def resolve_witness(system: ActionSystem, k: int) -> tuple[GroupWord, Owned, IsometryClass]:
    """The claimed witness for action k, else the first word of ``word_tree`` up to length
    WITNESS_SEARCH_DEPTH hyperbolic there (``tagged_words``, each level built as it is read,
    none past MAX_HYPOTHESIS_PAIRS words); either is imaged, classified and checked hyperbolic
    once in action k, and returned with its image and class there."""
    action = system.actions[k]
    word = system.witnesses[k]
    if word is None:
        r, generators = len(letters := step_letters(system.generators)), [action.images[g] for g in system.generators]
        depth = sum(sum(r * (r - 1) ** m for m in range(n + 1)) <= MAX_HYPOTHESIS_PAIRS
                    for n in range(WITNESS_SEARCH_DEPTH))  # the levels that fit, with those above them
        for n, j in action.model.tagged_words(generators, (word_tree(r, n + 1)[n] for n in range(depth)), HYPERBOLIC):
            word = tree_word(letters, word_tree(r, n + 1), n, j)
            break
        else:
            if depth < WITNESS_SEARCH_DEPTH:
                raise ValidationError(f"the witness search in action {action.name!r} passes {MAX_HYPOTHESIS_PAIRS} "
                                      f"words at length {depth + 1}: claim a witness")
            raise WitnessNotHyperbolic(k, action.name, f"no hyperbolic word up to length {WITNESS_SEARCH_DEPTH}")
    image = action.image(word)
    cls = action.model.classify(image)
    if not cls.is_hyperbolic:
        raise WitnessNotHyperbolic(k, action.name, f"classified {cls.tag}")
    return word, image, cls


def simultaneous_hyperbolic(system: ActionSystem, schedule: SearchSchedule) -> Certificate:
    """Fold combine_step over the actions (induction on their number).

    Stage 0 is the witness's own certificate; each later stage extends the
    previous stage's certificate by one action.  Deterministic given
    system + schedule.  The returned certificate covers every action and
    re-verifies from scratch.  A system with no actions is a ValidationError.
    """
    if not system.actions:
        raise ValidationError("a system with no actions has no word to certify", "actions")
    f, image, cls = resolve_witness(system, 0)
    running = Certificate(f, (StageRecord(0, system.actions[0].name),), (cls,), (image,))
    stages = list(running.stages)
    for k in range(1, system.n_actions):
        running = combine_step(system, running, schedule)
        stages.extend(running.stages)
    for action in system.actions:
        _check_image_cap(action, running.word)
    return Certificate(running.word, tuple(stages), running.per_action, running.images)


def _check_image_cap(action: Action, word: GroupWord) -> None:
    """Raise the checker's ValidationError where imaging the word letter by
    letter passes MAX_ISOMETRY_SIZE, which the search's image of f^pa g^qb
    in the letters f and g may not: ``Action.image`` is run only when the
    bound it keeps on every isometry it builds, each power p^e's
    |e| (size of p + 1) - 1 plus 1 per product, passes the cap."""
    if sum(abs(e) * (action._sizes[gen] + 1) for gen, e in word.syllables) - 1 > MAX_ISOMETRY_SIZE:
        action.image(word)


def verify_certificate(system: ActionSystem, cert: Certificate) -> bool:
    ok, _ = verify_certificate_detailed(system, cert)
    return ok


def verify_certificate_detailed(system: ActionSystem, cert: Certificate) -> tuple[bool, list[str]]:
    """Recompute every classification from the word alone and compare it
    with the certificate's classes by value, once each class is known to
    print (``check_printable``): another model's class is one note."""
    if len(cert.per_action) != system.n_actions:
        return False, [f"certificate covers {len(cert.per_action)} actions, system has {system.n_actions}"]
    try:
        for action, cls in zip(system.actions, cert.per_action):
            check_printable(action.model, cls)
    except MixedModels as exc:
        return False, [f"certificate witness from another model: {exc}"]
    return check_witnesses(system, cert.word, cert.per_action)
