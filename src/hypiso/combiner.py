"""Combining per-action hyperbolic witnesses into one word hyperbolic
everywhere.

The existential constants of the underlying combination theorem are not
effectively computable from the models, so the implementation replaces
them with a verified search: after power normalization (killing finite
orders of elliptic images), candidate exponent pairs (a, b) are enumerated
along a deterministic diagonal schedule and each word f^a g^b is certified
by exact classification in every action seen so far.  The first certified
candidate wins; exhaustion is an explicit error carrying the trial log.
Certificates are re-checked from scratch by the checker in ``records``,
which shares no code with the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .actions import ActionSystem
from .errors import (
    HypothesisViolation,
    MixedModels,
    NotHyperbolic,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from .models import HYPERBOLIC, HYPOTHESIS_VIOLATION, IsometryClass, SpaceModel
from .records import check_witnesses, witness_line
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


@dataclass(frozen=True)
class ProfileEntry:
    action_index: int
    action_name: str
    f_tag: str
    g_tag: str
    f_period: Optional[int]
    g_period: Optional[int]
    partition: Optional[str]  # H', H, E, E-E'-candidate; None for the stage action


@dataclass(frozen=True)
class ActionProfile:
    stage: int
    entries: tuple[ProfileEntry, ...]
    p: int = 1  # power applied to f
    q: int = 1  # power applied to g


@dataclass(frozen=True)
class StageRecord:
    stage: int
    action_name: str
    a: int = 1
    b: int = 0
    p: int = 1
    q: int = 1
    schedule_index: Optional[int] = None
    candidates_tried: int = 0
    trivial: bool = True
    profile: Optional[ActionProfile] = None  # the stage's partition; None when trivial


@dataclass(frozen=True)
class SearchStats:
    candidates_tried: int
    stages: int


@dataclass(frozen=True)
class Certificate:
    word: GroupWord
    stages: tuple[StageRecord, ...]
    per_action: tuple[IsometryClass, ...]
    search_stats: SearchStats


# check_hypotheses tags at most this many (word, action) pairs: depth 9 on
# configs/three_action.cfg is 39,364 words in 3 actions, about 4 s
MAX_HYPOTHESIS_PAIRS = 250_000


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    violations: tuple[tuple[GroupWord, int], ...]
    words_checked: int


def check_hypotheses(system: ActionSystem, word_sample_depth: int) -> HypothesisReport:
    """Tag every word up to the given length in every action.

    One walk of the word tree per action, each word decided by its exact
    tag.  Fails (listing the offenders) when any tag is a hypothesis
    violation; raises WitnessNotHyperbolic when a claimed witness fails
    exact classification.  Raises ValidationError before any walk when the
    words times the actions (at least one) exceed MAX_HYPOTHESIS_PAIRS.
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
    for i, action in enumerate(system.actions):
        for letters, image in system.walk(action, word_sample_depth):
            if action.model.tag(image) == HYPOTHESIS_VIOLATION:
                violations.append((GroupWord(letters), i))
    for i, witness in enumerate(system.witnesses):
        if witness is None:
            continue
        cls = system.actions[i].classify_word(witness)
        if not cls.is_hyperbolic:
            raise WitnessNotHyperbolic(i, system.actions[i].name, f"classified {cls.tag}")
    return HypothesisReport(passed=not violations, violations=tuple(violations), words_checked=words)


def independent(model: SpaceModel, cf: IsometryClass, cg: IsometryClass) -> bool:
    """Disjointness of the boundary fixed-point pairs of two classes (exact test)."""
    if not cf.is_hyperbolic:
        raise NotHyperbolic(f"f is {cf.tag} in model {model.model_id!r}")
    if not cg.is_hyperbolic:
        raise NotHyperbolic(f"g is {cg.tag} in model {model.model_id!r}")
    f_pts = (cf.hyperbolic.fixed_plus, cf.hyperbolic.fixed_minus)
    g_pts = (cg.hyperbolic.fixed_plus, cg.hyperbolic.fixed_minus)
    return not any(model.boundary_equal(p, q) for p in f_pts for q in g_pts)


def _finite_period(cls: IsometryClass) -> Optional[int]:
    if cls.is_elliptic:
        return cls.elliptic.period
    return None


def normalize_powers(
    system: ActionSystem,
    f: GroupWord,
    g: GroupWord,
    f_classes: tuple[IsometryClass, ...],
    g_class: IsometryClass,
) -> tuple[GroupWord, GroupWord, ActionProfile]:
    """Replace f, g by the powers killing all finite orders of their
    elliptic images among actions 0..stage, and profile the partition.

    ``f_classes`` holds f's classes in actions 0..stage and ``g_class``
    g's class in action stage, so g is classified here only in actions
    before the stage.  Hyperbolicity is preserved wherever it held
    (translation lengths scale by the powers, fixed points are unchanged);
    elliptic images of finite order become the identity.
    """
    k = len(f_classes) - 1
    p = 1
    q = 1
    entries: list[ProfileEntry] = []
    for i, cf in enumerate(f_classes):
        action = system.actions[i]
        cg = g_class if i == k else action.classify_word(g)
        for cls, word_name in ((cf, "f"), (cg, "g")):
            if cls.tag == "hypothesis_violation":
                raise HypothesisViolation(
                    f"{word_name} is parabolic in action {action.name!r}",
                    word=f if word_name == "f" else g,
                    action_index=i,
                )
        pf = _finite_period(cf)
        pg = _finite_period(cg)
        if pf:
            p = math.lcm(p, pf)
        if pg:
            q = math.lcm(q, pg)
        partition = None
        if i < k and cf.is_hyperbolic:
            model = action.model
            if cg.is_hyperbolic:
                partition = "H'" if independent(model, cf, cg) else "H"
            else:
                # elliptic g fixing the repelling point satisfies the
                # separation condition outright (the E' side); otherwise the
                # dichotomy is not finitely decidable and we only tag it
                a_minus = cf.hyperbolic.fixed_minus
                moved = model.boundary_apply(action.image(g), a_minus)
                partition = "E" if model.boundary_equal(moved, a_minus) else "E-E'-candidate"
        entries.append(
            ProfileEntry(
                action_index=i,
                action_name=action.name,
                f_tag=cf.tag,
                g_tag=cg.tag,
                f_period=pf,
                g_period=pg,
                partition=partition,
            )
        )
    return f**p, g**q, ActionProfile(stage=k, entries=tuple(entries), p=p, q=q)


def _classify_prefix(system: ActionSystem, word: GroupWord, upto: int):
    """Classify in actions 0..upto, aborting at the first non-hyperbolic."""
    classes = []
    for i in range(upto + 1):
        cls = system.actions[i].classify_word(word)
        if not cls.is_hyperbolic:
            return classes, (i, cls.tag)
        classes.append(cls)
    return classes, None


def combine_step(system: ActionSystem, running: Certificate, schedule: SearchSchedule) -> Certificate:
    """One induction stage: ``running`` certifies f hyperbolic in actions
    0..k-1; returns a word certified hyperbolic in actions 0..k.

    Only f's class in action k is new; the others are read from ``running``.
    When f is already hyperbolic in action k it is returned unchanged (the
    proof's first simplification) and action k's witness is not needed;
    otherwise the witness g is resolved with its class and the normalized
    powers of f and g are combined along the schedule.
    """
    f = running.word
    k = len(running.per_action)
    for i, cls in enumerate(running.per_action):
        if not cls.is_hyperbolic:
            raise NotHyperbolic(f"precondition broken: running word is {cls.tag} in action {i}")
    action_k = system.actions[k]
    cls_fk = action_k.classify_word(f)
    if cls_fk.tag == "hypothesis_violation":
        raise HypothesisViolation(
            f"running word parabolic in action {action_k.name!r}", word=f, action_index=k
        )
    f_classes = running.per_action + (cls_fk,)
    if cls_fk.is_hyperbolic:
        return Certificate(
            word=f,
            stages=(StageRecord(k, action_k.name),),
            per_action=f_classes,
            search_stats=SearchStats(candidates_tried=0, stages=1),
        )

    g, g_class = resolve_witness(system, k)
    f2, g2, profile = normalize_powers(system, f, g, f_classes, g_class)

    trials: list[tuple[int, int, int, str]] = []
    for index, (a, b) in enumerate(schedule.pairs()):
        candidate = f2**a * g2**b
        classes, failure = _classify_prefix(system, candidate, k)
        if failure is None:
            record = StageRecord(
                stage=k,
                action_name=action_k.name,
                a=a,
                b=b,
                p=profile.p,
                q=profile.q,
                schedule_index=index,
                candidates_tried=len(trials) + 1,
                trivial=False,
                profile=profile,
            )
            return Certificate(
                word=candidate,
                stages=(record,),
                per_action=tuple(classes),
                search_stats=SearchStats(candidates_tried=len(trials) + 1, stages=1),
            )
        trials.append((a, b, failure[0], failure[1]))
    raise ScheduleExhausted(k, trials)


def resolve_witness(
    system: ActionSystem, k: int, search_depth: int = 4
) -> tuple[GroupWord, IsometryClass]:
    """The claimed witness for action k, verified; else the first word (in
    the walk's order) whose tag is hyperbolic.  Returned with its class."""
    action = system.actions[k]
    claimed = system.witnesses[k]
    if claimed is not None:
        cls = action.classify_word(claimed)
        if not cls.is_hyperbolic:
            raise WitnessNotHyperbolic(k, action.name, f"classified {cls.tag}")
        return claimed, cls
    for letters, image in system.walk(action, search_depth):
        if action.model.tag(image) == HYPERBOLIC:
            return GroupWord(letters), action.model.classify(image)
    raise WitnessNotHyperbolic(k, action.name, f"no hyperbolic word up to length {search_depth}")


def simultaneous_hyperbolic(system: ActionSystem, schedule: SearchSchedule) -> Certificate:
    """Fold combine_step over the actions (induction on their number).

    Stage 0 is the witness's own certificate; each later stage extends the
    previous stage's certificate by one action.  Deterministic given
    system + schedule.  The returned certificate covers every action and
    re-verifies from scratch.
    """
    f, cls_f = resolve_witness(system, 0)
    running = Certificate(
        word=f,
        stages=(StageRecord(0, system.actions[0].name),),
        per_action=(cls_f,),
        search_stats=SearchStats(candidates_tried=0, stages=1),
    )
    stages = list(running.stages)
    tried = 0
    for k in range(1, system.n_actions):
        running = combine_step(system, running, schedule)
        stages.extend(running.stages)
        tried += running.search_stats.candidates_tried
    return Certificate(
        word=running.word,
        stages=tuple(stages),
        per_action=running.per_action,
        search_stats=SearchStats(candidates_tried=tried, stages=system.n_actions),
    )


def verify_certificate(system: ActionSystem, cert: Certificate) -> bool:
    ok, _ = verify_certificate_detailed(system, cert)
    return ok


def verify_certificate_detailed(system: ActionSystem, cert: Certificate) -> tuple[bool, list[str]]:
    """Recompute every classification from the word alone and compare it
    with the certificate's witnesses, rendered as record lines."""
    if len(cert.per_action) != system.n_actions:
        return False, [
            f"certificate covers {len(cert.per_action)} actions, system has {system.n_actions}"
        ]
    try:
        expected = [
            witness_line(i, action.name, action.model, cls)
            for i, (action, cls) in enumerate(zip(system.actions, cert.per_action))
        ]
    except MixedModels as exc:
        return False, [f"certificate witness from another model: {exc}"]
    return check_witnesses(system, cert.word, expected)
