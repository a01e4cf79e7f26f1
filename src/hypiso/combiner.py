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

from .actions import Action, ActionSystem
from .errors import (
    HypothesisViolation,
    MixedModels,
    NotHyperbolic,
    ScheduleExhausted,
    WitnessNotHyperbolic,
)
from .models import IsometryClass
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
    a: int
    b: int
    p: int
    q: int
    schedule_index: Optional[int]
    candidates_tried: int
    trivial: bool
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


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    violations: tuple[tuple[GroupWord, int], ...]
    words_checked: int


def check_hypotheses(system: ActionSystem, word_sample_depth: int) -> HypothesisReport:
    """Classify every word up to the given length in every action.

    Fails (listing the offenders) when any classification is a
    hypothesis violation; raises WitnessNotHyperbolic when a claimed
    witness fails exact classification.
    """
    words = system.enumerate_words(word_sample_depth)
    violations: list[tuple[GroupWord, int]] = []
    for i, action in enumerate(system.actions):
        for w in words:
            if action.classify_word(w).tag == "hypothesis_violation":
                violations.append((w, i))
    for i, witness in enumerate(system.witnesses):
        if witness is None:
            continue
        cls = system.actions[i].classify_word(witness)
        if not cls.is_hyperbolic:
            raise WitnessNotHyperbolic(i, system.actions[i].name, f"classified {cls.tag}")
    return HypothesisReport(
        passed=not violations, violations=tuple(violations), words_checked=len(words)
    )


def independent(action: Action, f: GroupWord, g: GroupWord) -> bool:
    """Disjointness of the boundary fixed-point pairs (exact test)."""
    cf = action.classify_word(f)
    cg = action.classify_word(g)
    if not cf.is_hyperbolic:
        raise NotHyperbolic(f"f is {cf.tag} in action {action.name!r}")
    if not cg.is_hyperbolic:
        raise NotHyperbolic(f"g is {cg.tag} in action {action.name!r}")
    model = action.model
    f_pts = (cf.hyperbolic.fixed_plus, cf.hyperbolic.fixed_minus)
    g_pts = (cg.hyperbolic.fixed_plus, cg.hyperbolic.fixed_minus)
    return not any(model.boundary_equal(p, q) for p in f_pts for q in g_pts)


def _finite_period(cls: IsometryClass) -> Optional[int]:
    if cls.is_elliptic:
        return cls.elliptic.period
    return None


def normalize_powers(
    system: ActionSystem, f: GroupWord, g: GroupWord, stage: int | None = None
) -> tuple[GroupWord, GroupWord, ActionProfile]:
    """Replace f, g by the powers killing all finite orders of their
    elliptic images among actions 0..stage, and profile the partition.

    Hyperbolicity is preserved wherever it held (translation lengths scale
    by the powers, fixed points are unchanged); elliptic images of finite
    order become the identity.
    """
    k = system.n_actions - 1 if stage is None else stage
    p = 1
    q = 1
    entries: list[ProfileEntry] = []
    for i in range(k + 1):
        action = system.actions[i]
        cf = action.classify_word(f)
        cg = action.classify_word(g)
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
            if cg.is_hyperbolic:
                partition = "H'" if independent(action, f, g) else "H"
            else:
                # elliptic g fixing the repelling point satisfies the
                # separation condition outright (the E' side); otherwise the
                # dichotomy is not finitely decidable and we only tag it
                model = action.model
                g_img = action.image(g)
                a_minus = cf.hyperbolic.fixed_minus
                moved = model.boundary_apply(g_img, a_minus)
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


def combine_step(
    system: ActionSystem,
    f: GroupWord,
    g: GroupWord,
    k: int,
    schedule: SearchSchedule,
) -> Certificate:
    """One induction stage: f hyperbolic in actions 0..k-1, g hyperbolic in
    action k; returns a word certified hyperbolic in actions 0..k.

    When f is already hyperbolic in action k it is returned unchanged (the
    proof's first simplification); otherwise the normalized powers are
    combined along the schedule.
    """
    action_k = system.actions[k]
    cls_fk = action_k.classify_word(f)
    if cls_fk.tag == "hypothesis_violation":
        raise HypothesisViolation(
            f"running word parabolic in action {action_k.name!r}", word=f, action_index=k
        )
    if cls_fk.is_hyperbolic:
        classes, failure = _classify_prefix(system, f, k)
        if failure is not None:
            raise NotHyperbolic(
                f"precondition broken: running word is {failure[1]} in action {failure[0]}"
            )
        record = StageRecord(
            stage=k,
            action_name=action_k.name,
            a=1,
            b=0,
            p=1,
            q=1,
            schedule_index=None,
            candidates_tried=0,
            trivial=True,
        )
        return Certificate(
            word=f,
            stages=(record,),
            per_action=tuple(classes),
            search_stats=SearchStats(candidates_tried=0, stages=1),
        )

    cls_gk = action_k.classify_word(g)
    if not cls_gk.is_hyperbolic:
        raise NotHyperbolic(f"g is {cls_gk.tag} in stage action {action_k.name!r}")

    f2, g2, profile = normalize_powers(system, f, g, stage=k)
    p, q = profile.p, profile.q

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
                p=p,
                q=q,
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


def resolve_witness(system: ActionSystem, k: int, search_depth: int = 4) -> GroupWord:
    """The claimed witness for action k, verified; else the first word (in
    deterministic enumeration order) that classifies hyperbolic."""
    action = system.actions[k]
    claimed = system.witnesses[k]
    if claimed is not None:
        cls = action.classify_word(claimed)
        if not cls.is_hyperbolic:
            raise WitnessNotHyperbolic(k, action.name, f"classified {cls.tag}")
        return claimed
    for w in system.enumerate_words(search_depth):
        if action.classify_word(w).is_hyperbolic:
            return w
    raise WitnessNotHyperbolic(k, action.name, f"no hyperbolic word up to length {search_depth}")


def simultaneous_hyperbolic(system: ActionSystem, schedule: SearchSchedule) -> Certificate:
    """Fold combine_step over the actions (induction on their number).

    Deterministic given system + schedule.  The returned certificate covers
    every action and re-verifies from scratch.
    """
    stages: list[StageRecord] = []
    tried = 0
    f = resolve_witness(system, 0)
    stages.append(
        StageRecord(
            stage=0,
            action_name=system.actions[0].name,
            a=1,
            b=0,
            p=1,
            q=1,
            schedule_index=None,
            candidates_tried=0,
            trivial=True,
        )
    )
    for k in range(1, system.n_actions):
        g = resolve_witness(system, k)
        cert_k = combine_step(system, f, g, k, schedule)
        f = cert_k.word
        stages.extend(cert_k.stages)
        tried += cert_k.search_stats.candidates_tried
    classes, failure = _classify_prefix(system, f, system.n_actions - 1)
    if failure is not None:  # cannot happen if combine_step held its contract
        raise NotHyperbolic(f"final word is {failure[1]} in action {failure[0]}")
    return Certificate(
        word=f,
        stages=tuple(stages),
        per_action=tuple(classes),
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
