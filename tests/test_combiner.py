import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypiso import cli, combiner
from hypiso.actions import Action, ActionSystem
from hypiso.combiner import (
    Certificate,
    ProfileEntry,
    SearchSchedule,
    SearchStats,
    StageRecord,
    check_hypotheses,
    combine_step,
    independent,
    normalize_powers,
    partition,
    resolve_witness,
    simultaneous_hyperbolic,
    verify_certificate,
    verify_certificate_detailed,
)
from hypiso.config import build_action_system, parse_config
from hypiso.errors import (
    HypothesisViolation,
    NotHyperbolic,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from hypiso.halfplane import HalfPlaneModel, Matrix2
from hypiso.models import IsometryClass, SpaceModel
from hypiso.records import class_invariant, parse_record, record_for_certificate, verify_record
from hypiso.sampling import random_action_system
from hypiso.trees import BassSerreModel, CayleyTreeModel, TreeModel
from hypiso.words import GroupWord

from reference import (
    eager_partitions,
    reduced_words,
    step_path,
    verify_certificate_detailed_reference,
    walked_parabolic_words,
)


def worked_system() -> ActionSystem:
    p1 = HalfPlaneModel()
    p2 = HalfPlaneModel()
    a1 = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(0, -1, 1, 0)})
    a2 = Action("two", p2, {"f": p2.matrix(0, -1, 1, 0), "g": p2.matrix(2, 1, 1, 1)})
    return ActionSystem(("f", "g"), [a1, a2], [GroupWord.parse("f"), GroupWord.parse("g")])


def three_action_system() -> ActionSystem:
    system = worked_system()
    bs = BassSerreModel(2, 3)
    a3 = Action("tree", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(0, 1)])})
    return ActionSystem(
        ("f", "g"), system.actions + [a3], system.witnesses + [GroupWord.parse("f")]
    )


def _classes(system: ActionSystem, word: GroupWord, upto: int) -> tuple:
    return tuple(system.actions[i].classify_word(word) for i in range(upto + 1))


def _class(system: ActionSystem, word: GroupWord, k: int):
    return system.actions[k].classify_word(word)


def _images(system: ActionSystem, word: GroupWord, upto: int) -> tuple:
    return tuple(system.actions[i].image(word) for i in range(upto + 1))


def _running(system: ActionSystem, word: GroupWord, k: int) -> Certificate:
    """A certificate for word in actions 0..k-1, as stage k receives it."""
    images = tuple(action.image(word) for action in system.actions[:k])
    return Certificate(word, (), _classes(system, word, k - 1), images)


def test_schedule_order():
    assert list(SearchSchedule(3).pairs()) == [
        (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3),
    ]


def test_check_hypotheses_pass():
    report = check_hypotheses(worked_system(), 4)
    assert report.passed
    assert report.words_checked == 160  # reduced words of length <= 4 on 2 generators


def test_check_hypotheses_parabolic_fail():
    plane = HalfPlaneModel()
    bad = Action("bad", plane, {"f": plane.matrix(1, 1, 0, 1), "g": plane.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [bad], [GroupWord.parse("g")])
    report = check_hypotheses(system, 2)
    assert not report.passed
    assert (GroupWord.parse("f"), 0) in report.violations


def test_check_hypotheses_all_tree_pass():
    bs = BassSerreModel(2, 3)
    act = Action("t", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(1, 1)])})
    system = ActionSystem(("f", "g"), [act], [GroupWord.parse("f")])
    assert check_hypotheses(system, 4).passed


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _reference_hypotheses(system: ActionSystem, depth: int):
    """Brute force: the reduced words among all letter strings up to depth,
    in lexicographic order, each classified in every action."""
    alphabet = [(g, s) for g in system.generators for s in (1, -1)]
    words = []
    for n in range(1, depth + 1):
        for letters in itertools.product(alphabet, repeat=n):
            w = GroupWord(letters)
            if len(w) == n:
                words.append(w)
    violations = [
        (w, i)
        for i, action in enumerate(system.actions)
        for w in words
        if action.classify_word(w).tag == "hypothesis_violation"
    ]
    return tuple(violations), len(words)


def _parabolic_system() -> ActionSystem:
    plane, bs, p2 = HalfPlaneModel(), BassSerreModel(2, 3), HalfPlaneModel()
    return ActionSystem(
        ("f", "g"),
        [
            Action("p", plane, {"f": plane.matrix(1, 1, 0, 1), "g": plane.matrix(2, 1, 1, 1)}),
            Action("t", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(1, 1)])}),
            Action("q", p2, {"f": p2.matrix(2, 1, 1, 1), "g": p2.matrix(1, 0, 1, 1)}),
        ],
    )


def test_check_hypotheses_matches_brute_force():
    cases = [(build_action_system(parse_config(p.read_text())), 5) for p in sorted(CONFIGS.glob("*.cfg"))]
    cases += [(random_action_system(seed), 4) for seed in range(20)]
    cases += [(_parabolic_system(), 4), (ActionSystem(("f", "g"), []), 2)]
    for system, depth in cases:
        report = check_hypotheses(system, depth)
        violations, count = _reference_hypotheses(system, depth)
        assert report.violations == violations
        assert report.words_checked == count
        assert report.passed == (not violations)
    assert {i for _, i in check_hypotheses(_parabolic_system(), 4).violations} == {0, 2}
    assert check_hypotheses(ActionSystem(("f", "g"), []), 2).words_checked == 16


def test_check_hypotheses_builds_each_level_once(monkeypatch):
    # one word tree per number of steps, built on the first call and read by
    # every action of it and every later call; its levels are read-only
    # int64 buffers, which numpy reads with no copy
    import numpy as np

    monkeypatch.setattr(combiner, "_WORD_TREES", {})
    trees, asked = [], []
    original, hook = combiner.word_tree, HalfPlaneModel.parabolic_words

    def recorded(r, depth):
        levels = original(r, depth)
        trees.append((r, levels))
        return levels

    monkeypatch.setattr(combiner, "word_tree", recorded)
    monkeypatch.setattr(HalfPlaneModel, "parabolic_words",
                        lambda self, gens, tree: asked.append(tree) or hook(self, gens, tree))
    system = build_action_system(parse_config((CONFIGS / "worked_example.cfg").read_text()))
    for _ in range(2):
        assert check_hypotheses(system, 6).words_checked == 1456
    assert len(trees) == 2 and len(asked) == 2 * system.n_actions == 4
    first = trees[0][1]
    for r, levels in trees:
        assert r == 4 and sum(map(len, levels)) == 1456
        assert all(a is b for a, b in zip(levels, first))
    assert all(all(a is b for a, b in zip(tree, first)) for tree in asked)
    assert [(r, len(levels)) for r, levels in combiner._WORD_TREES.items()] == [(4, 6)]
    for level in first:
        assert level.readonly and level.format == "q"
        array = np.asarray(level)
        assert array.dtype == np.int64 and not array.flags.writeable and not array.flags.owndata
        with pytest.raises(TypeError):
            level[0] = 1


def test_witness_not_hyperbolic_raises():
    system = worked_system()
    system.witnesses[0] = GroupWord.parse("g")  # elliptic in action one
    with pytest.raises(WitnessNotHyperbolic):
        check_hypotheses(system, 2)


# -- the witness search, when an action claims no witness -------------------------

ROTATION_3_5 = (Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))  # infinite order


def _unclaimed(model, f, g) -> ActionSystem:
    return ActionSystem(("f", "g"), [Action("one", model, {"f": f, "g": g})])


def test_witness_search_finds_the_first_hyperbolic_word():
    plane, bs = HalfPlaneModel(), BassSerreModel(2, 3)
    s, t = bs.word([(0, 1)]), bs.word([(1, 1)])
    # rotations of order 2 and 3: no shorter word is hyperbolic (f g is parabolic)
    rotations = _unclaimed(plane, plane.matrix(0, -1, 1, 0), plane.matrix(0, -1, 1, 1))
    for system, expected in ((rotations, "f g f g^-1"), (_unclaimed(bs, s, t), "f g")):
        word, image = resolve_witness(system, 0)
        assert word == GroupWord.parse(expected)
        assert image.payload == system.actions[0].image(word).payload


def test_search_without_witnesses_certifies():
    plane, bs = HalfPlaneModel(), BassSerreModel(2, 3)
    tree = Action("tree", bs, {"f": bs.word([(0, 1)]), "g": bs.word([(1, 1)])})
    rotated = Action("plane", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(*ROTATION_3_5)})
    system = ActionSystem(("f", "g"), [tree, rotated])
    cert = simultaneous_hyperbolic(system, SearchSchedule())
    assert cert.word == GroupWord.parse("f g f^2")
    assert verify_certificate(system, cert)


def test_witness_search_exhausted():
    plane, bs = HalfPlaneModel(), BassSerreModel(2, 3)
    s = bs.word([(0, 1)])
    for system in (_unclaimed(plane, plane.matrix(0, -1, 1, 0), plane.matrix(*ROTATION_3_5)), _unclaimed(bs, s, s)):
        with pytest.raises(WitnessNotHyperbolic, match="no hyperbolic word up to length 4"):
            resolve_witness(system, 0)


def test_independent_examples():
    plane = HalfPlaneModel()
    act = Action(
        "p", plane, {"f": plane.matrix(2, 1, 1, 1), "d": plane.matrix(2, 0, 0, Fraction(1, 2))}
    )
    f = GroupWord.parse("f")
    cf = act.classify_word(f)

    def indep(g):
        return independent(act.model, cf, act.classify_word(g))

    assert indep(GroupWord.parse("d"))        # distinct fixed pairs
    assert not indep(f * f)                    # powers share fixed points
    assert not indep(f.inverse())              # swapped pair
    with pytest.raises(NotHyperbolic):
        indep(GroupWord(()))


def test_normalize_powers_plane_orders():
    system = worked_system()
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    p, q, _ = normalize_powers(system, _classes(system, f, 1), _images(system, g, 1))
    assert p == 2  # rho_2(f) is the projective order-2 rotation
    assert q == 2  # rho_1(g) likewise


def test_normalize_powers_all_hyperbolic():
    plane = HalfPlaneModel()
    act = Action(
        "p", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(2, 0, 0, Fraction(1, 2))}
    )
    system = ActionSystem(("f", "g"), [act], [GroupWord.parse("f")])
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    p, q, profile = normalize_powers(system, _classes(system, f, 0), _images(system, g, 0))
    assert p == 1 and q == 1 and profile == ()


def test_normalize_powers_bass_serre_order_3():
    bs = BassSerreModel(2, 3)
    act = Action("t", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(1, 1)])})
    plane = HalfPlaneModel()
    act2 = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [act, act2], [GroupWord.parse("f"), GroupWord.parse("g")])
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    _, q, _ = normalize_powers(system, _classes(system, f, 1), _images(system, g, 1))
    assert q == 3  # elliptic image t has order 3


def test_normalize_powers_preserves_hyperbolic_data():
    # where f was hyperbolic, f^p stays hyperbolic with tau scaled by p and
    # the same boundary fixed points
    system = three_action_system()
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    p, _, _ = normalize_powers(system, _classes(system, f, 2), _images(system, g, 2))
    f2 = f**p
    for i, action in enumerate(system.actions):
        cls = action.classify_word(f)
        if not cls.is_hyperbolic:
            continue
        cls2 = action.classify_word(f2)
        assert cls2.is_hyperbolic
        tl, tl2 = cls.hyperbolic.translation_length, cls2.hyperbolic.translation_length
        assert abs(tl2 - p * tl) < 1e-9
        model = action.model
        assert model.boundary_equal(cls.hyperbolic.fixed_plus, cls2.hyperbolic.fixed_plus)
        assert model.boundary_equal(cls.hyperbolic.fixed_minus, cls2.hyperbolic.fixed_minus)


def test_profile_partition_tags():
    plane = HalfPlaneModel()
    F = plane.matrix(2, 1, 1, 1)
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act1 = Action("h-prime", plane, {"f": F, "g": D})
    p2 = HalfPlaneModel()
    act2 = Action("h-dep", p2, {"f": p2.matrix(2, 1, 1, 1), "g": p2.matrix(5, 3, 3, 2)})  # g = f^2
    p3 = HalfPlaneModel()
    act3 = Action("stage", p3, {"f": p3.matrix(0, -1, 1, 0), "g": p3.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [act1, act2, act3])
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    _, _, profile = normalize_powers(system, _classes(system, f, 2), _images(system, g, 2))
    # one entry per action before the stage's own
    assert [partition(a.model, e) for a, e in zip(system.actions, profile)] == ["H'", "H"]


def test_combine_step_trivial_when_already_hyperbolic():
    plane = HalfPlaneModel()
    a1 = Action("one", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(0, -1, 1, 0)})
    p2 = HalfPlaneModel()
    a2 = Action("two", p2, {"f": p2.matrix(3, 1, 2, 1), "g": p2.matrix(0, -1, 1, 0)})
    system = ActionSystem(("f", "g"), [a1, a2])
    f = GroupWord.parse("f")
    cert = combine_step(system, _running(system, f, 1), SearchSchedule(8))
    assert cert.word == GroupWord.parse("f")
    assert cert.stages[0].trivial


def test_combine_step_dependent_hyperbolic_case():
    # g shares f's axis in action one (g = f^2) but is the only hyperbolic
    # element in action two: the schedule finds f^a g^b regardless
    plane = HalfPlaneModel()
    F = plane.matrix(2, 1, 1, 1)
    a1 = Action("one", plane, {"f": F, "g": plane.compose(F, F)})
    p2 = HalfPlaneModel()
    a2 = Action("two", p2, {"f": p2.matrix(0, -1, 1, 0), "g": p2.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [a1, a2])
    f = GroupWord.parse("f")
    cert = combine_step(system, _running(system, f, 1), SearchSchedule(8))
    assert verify_certificate(
        ActionSystem(("f", "g"), [a1, a2], [None, None]), _extend(cert, system)
    ) or all(c.is_hyperbolic for c in cert.per_action)


def _extend(cert: Certificate, system: ActionSystem) -> Certificate:
    classes = tuple(a.classify_word(cert.word) for a in system.actions)
    return Certificate(cert.word, cert.stages, classes, cert.images)


def test_schedule_exhausted_carries_trials():
    system = worked_system()
    with pytest.raises(ScheduleExhausted) as err:
        f = GroupWord.parse("f")
        combine_step(system, _running(system, f, 1), SearchSchedule(0))
    assert err.value.stage == 1
    assert err.value.trials == []


def test_simultaneous_single_action():
    plane = HalfPlaneModel()
    act = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(0, -1, 1, 0)})
    system = ActionSystem(("f", "g"), [act], [GroupWord.parse("f")])
    cert = simultaneous_hyperbolic(system, SearchSchedule(4))
    assert cert.word == GroupWord.parse("f")


def test_simultaneous_worked_example():
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(32))
    assert cert.word.display() == "f^2 g^2"
    for cls in cert.per_action:
        assert class_invariant(cls) == "cosh-half=7/2"
    assert verify_certificate(system, cert)


def test_simultaneous_monotone_stages():
    # after each recorded stage the running word is hyperbolic in all
    # actions up to that stage
    system = three_action_system()
    schedule = SearchSchedule(8)
    cert = simultaneous_hyperbolic(system, schedule)
    f, _ = resolve_witness(system, 0)
    assert cert.stages[0].profile == ()
    for record in cert.stages:
        if record.stage == 0:
            continue
        if record.trivial:
            assert record.profile == ()
        else:
            g, _ = resolve_witness(system, record.stage)
            classes, images = _classes(system, f, record.stage), _images(system, g, record.stage)
            p, q, profile = normalize_powers(system, classes, images)
            assert record.profile == profile and len(profile) == record.stage
            assert (record.p, record.q) == (p, q)
            f = (f**p) ** record.a * (g**q) ** record.b
        for i in range(record.stage + 1):
            assert system.actions[i].classify_word(f).is_hyperbolic
    assert f == cert.word


def test_simultaneous_three_actions_small_cap():
    system = three_action_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    assert all(c.is_hyperbolic for c in cert.per_action)
    assert verify_certificate(system, cert)


def test_verify_certificate_negative_controls():
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    identity_cert = Certificate(
        GroupWord(()), cert.stages, cert.per_action, cert.images
    )
    assert not verify_certificate(system, identity_cert)
    elliptic_cert = Certificate(
        GroupWord.parse("f g"), cert.stages, cert.per_action, cert.images
    )
    ok, notes = verify_certificate_detailed(system, elliptic_cert)
    assert not ok and notes


def test_records_checker_imports_nothing_from_the_search():
    code = (
        "import sys\n"
        "import hypiso.records\n"
        "assert 'hypiso.combiner' not in sys.modules, sorted(sys.modules)\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_certificate_and_record_checks_agree():
    system = three_action_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    record = record_for_certificate("combine", system, cert, [])
    assert verify_certificate_detailed(system, cert) == verify_record(system, record) == (True, [])
    squares = tuple(a.classify_word(cert.word**2) for a in system.actions)
    wrong = Certificate(cert.word, cert.stages, squares, cert.images)
    ok, notes = verify_certificate_detailed(system, wrong)
    assert not ok and all("witness mismatch" in n for n in notes)
    swapped = Certificate(
        cert.word, cert.stages, tuple(reversed(cert.per_action)), cert.images
    )
    ok, notes = verify_certificate_detailed(system, swapped)  # a tree class in a plane action
    assert not ok and "another model" in notes[0]
    short = Certificate(cert.word, cert.stages, cert.per_action[:2], cert.images[:2])
    assert verify_certificate_detailed(system, short) == (
        False, ["certificate covers 2 actions, system has 3"]
    )


def test_verify_folds_no_ray_and_refuses_another_tree_model(monkeypatch):
    # verify compares a tree class by its core, and check_printable reads
    # a tree class's model id from its core: a class of another tree model
    # is one note, as the record line's MixedModels, with no ray folded
    system = three_action_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    model = system.actions[2].model
    other = _other_tree_class(model)
    foreign = Certificate(cert.word, cert.stages, cert.per_action[:2] + (other,), cert.images)

    def no_fold(*args):
        raise AssertionError("a ray was folded")

    monkeypatch.setattr(TreeModel, "_fold", no_fold)
    assert verify_certificate_detailed(system, cert) == (True, [])
    assert verify_certificate_detailed(system, foreign) == (False, [
        f"certificate witness from another model: value tagged {other.hyperbolic.model.model_id}, "
        f"model is {model.model_id}"
    ])


def _other_tree_class(model: TreeModel):
    """A hyperbolic class of another tree model of the same kind."""
    if isinstance(model, CayleyTreeModel):
        other = CayleyTreeModel(model.rank + 1)
        return other.classify(other.word((1, 2)))
    m, n = model.orders
    other = BassSerreModel(m + 1, n)
    return other.classify(other.word(((0, 1), (1, 1))))


def _mutated_certificates(system: ActionSystem, cert: Certificate):
    """(kind, certificate) with one class replaced at a time: by the word's
    square's (same fixed points, another trace), its inverse's (swapped
    fixed points), a conjugate's (same trace, moved points), an elliptic
    class, a tree class in a plane action and a plane class in a tree
    action, and another tree model's class of the same kind; and the
    certificate cut short."""
    word, gens = cert.word, [GroupWord.generator(g) for g in system.generators]
    classes = dict(zip(("plane", "tree"), ([], [])))
    for action, cls in zip(system.actions, cert.per_action):
        classes["tree" if isinstance(action.model, TreeModel) else "plane"].append(cls)

    def replaced(i, cls):
        per_action = cert.per_action[:i] + (cls,) + cert.per_action[i + 1:]
        return Certificate(word, cert.stages, per_action, cert.images)

    out = [("short", Certificate(word, cert.stages, cert.per_action[:-1], cert.images[:-1]))]
    for i, action in enumerate(system.actions):
        g = gens[i % len(gens)]
        out += [
            ("squared", replaced(i, action.classify_word(word**2))),
            ("inverse", replaced(i, action.classify_word(word.inverse()))),
            ("conjugated", replaced(i, action.classify_word(g * word * g.inverse()))),
            ("elliptic", replaced(i, IsometryClass("elliptic", period=2))),
        ]
        if isinstance(action.model, TreeModel):
            out += [("plane class in a tree action", replaced(i, cls)) for cls in classes["plane"][:1]]
            out.append(("another tree model", replaced(i, _other_tree_class(action.model))))
        else:
            out += [("tree class in a plane action", replaced(i, cls)) for cls in classes["tree"][:1]]
    return out


def _assert_checks_match_the_oracle(system: ActionSystem, cert: Certificate, rejected: Counter) -> None:
    """The value checker's verdict and notes are the rendering oracle's, on
    the certificate and its mutations; rejected counts the mutations failed."""
    record = record_for_certificate("combine", system, cert, [])
    assert verify_certificate_detailed(system, cert) == verify_certificate_detailed_reference(system, cert)
    assert verify_certificate_detailed(system, cert) == verify_record(system, record) == (True, [])
    for kind, mutated in _mutated_certificates(system, cert):
        got = verify_certificate_detailed(system, mutated)
        assert got == verify_certificate_detailed_reference(system, mutated), kind
        rejected[kind] += not got[0]


def test_certificate_check_matches_the_rendering_oracle():
    # sampler seeds 0-99 and configs/: every kind of mutation is rejected
    # somewhere, with the oracle's notes
    systems = [random_action_system(seed) for seed in range(100)]
    systems += [build_action_system(parse_config(path.read_text())) for path in sorted(CONFIGS.glob("*.cfg"))]
    rejected = Counter()
    for system in systems:
        _assert_checks_match_the_oracle(system, simultaneous_hyperbolic(system, SearchSchedule(32)), rejected)
    assert len(rejected) == 8 and min(rejected.values()) > 0, rejected


def test_certificate_check_past_the_print_limit():
    # a class its record line cannot print fails as the rendering oracle
    # fails, whether the cheap bound on its digits decides or the line does
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    limit = sys.get_int_max_str_digits()
    outcomes = Counter()
    try:
        sys.set_int_max_str_digits(640)
        for n in (1, 360, 450, 800):  # entries of about 3, 1000, 1250 and 2200 bits
            word = cert.word**n
            powered = Certificate(word, cert.stages, tuple(a.classify_word(word) for a in system.actions), ())
            got = []
            for check in (verify_certificate_detailed, verify_certificate_detailed_reference):
                try:
                    got.append(check(system, powered))
                except ValidationError as exc:
                    got.append(str(exc))
            assert got[0] == got[1], n
            outcomes[type(got[0]).__name__] += 1
    finally:
        sys.set_int_max_str_digits(limit)
    assert outcomes == {"tuple": 2, "str": 2}, outcomes


def test_determinism_bit_for_bit():
    outs = []
    for _ in range(2):
        system = worked_system()
        cert = simultaneous_hyperbolic(system, SearchSchedule(32))
        rec = record_for_certificate("combine", system, cert, [("seed", "0")])
        outs.append(rec.emit())
    assert outs[0] == outs[1]


def test_random_systems_quick():
    for seed in range(8):
        system = random_action_system(seed)
        cert = simultaneous_hyperbolic(system, SearchSchedule(32))
        assert verify_certificate(system, cert)


def test_hypothesis_violation_raised_on_parabolic_running_word():
    plane = HalfPlaneModel()
    act = Action("bad", plane, {"f": plane.matrix(1, 1, 0, 1), "g": plane.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [act])
    with pytest.raises(HypothesisViolation):
        f = GroupWord.parse("f")
        combine_step(system, _running(system, f, 0), SearchSchedule(4))


def test_parabolic_candidate_is_a_failed_trial():
    # action one: f = [[2, 1], [1, 1]] and g = f^-1 [[1, 6], [0, 1]] are
    # hyperbolic (traces 3 and -3), but the first candidate f g is the
    # parabolic [[1, 6], [0, 1]]; action two needs the search (f elliptic of
    # infinite order, g hyperbolic).  The candidate is logged as a failed
    # trial with its tag, not raised as a HypothesisViolation.
    p1, p2 = HalfPlaneModel(), HalfPlaneModel()
    one = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(1, 5, -1, -4)})
    two = Action("two", p2, {"f": p2.matrix(0, -1, 1, Fraction(1, 2)), "g": p2.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [one, two], [GroupWord.parse("f"), GroupWord.parse("g")])
    assert _class(system, GroupWord.parse("f g"), 0).tag == "hypothesis_violation"
    with pytest.raises(ScheduleExhausted) as err:
        combine_step(system, _running(system, GroupWord.parse("f"), 1), SearchSchedule(1))
    assert err.value.trials == [(1, 1, 0, "hypothesis_violation")]


def test_schedule_covers_all_pairs_once():
    cap = 7
    pairs = list(SearchSchedule(cap).pairs())
    assert len(pairs) == cap * cap
    assert len(set(pairs)) == cap * cap
    assert all(1 <= a <= cap and 1 <= b <= cap for a, b in pairs)
    # ordering: max ascending, then a, then b
    keys = [(max(a, b), a, b) for a, b in pairs]
    assert keys == sorted(keys)


def test_combine_step_rejects_non_hyperbolic_g():
    system = worked_system()
    with pytest.raises(WitnessNotHyperbolic):
        # g = f is elliptic in the stage action (action two)
        f = GroupWord.parse("f")
        system.witnesses[1] = f
        combine_step(system, _running(system, f, 1), SearchSchedule(4))


def test_combine_step_refuses_a_running_word_that_is_not_hyperbolic():
    # g is elliptic in action one, so it cannot be the running word of stage 1
    system = worked_system()
    with pytest.raises(NotHyperbolic, match="^precondition broken: running word is elliptic in action 0$"):
        combine_step(system, _running(system, GroupWord.parse("g"), 1), SearchSchedule(4))


def test_search_refuses_a_parabolic_witness_with_no_hypothesis_check():
    # g is parabolic in action zero and the witness of action one, where f is
    # elliptic: stage 1 finds it while normalizing the powers of f and g
    plane = HalfPlaneModel()
    zero = Action("zero", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(1, 1, 0, 1)})
    one = Action("one", plane, {"f": plane.matrix(0, -1, 1, 0), "g": plane.matrix(2, 1, 1, 1)})
    with pytest.raises(HypothesisViolation, match="^g is parabolic in action 'zero'$"):
        simultaneous_hyperbolic(ActionSystem(("f", "g"), [zero, one]), SearchSchedule(8))


def test_search_classifies_each_word_once_per_action(monkeypatch):
    # each stage extends the previous stage's certificate, resolves its
    # witness only when it needs one, images the witness once per action
    # and classifies and tests that one image, so no word is imaged twice
    # in one action, witnesses included.  Stage 0 classifies its witness;
    # stage k classifies f in action k and, when it searches, g and the
    # certified candidate in actions 0..k, each once.  A stage's own
    # actions, which send the letters f and g to f's and g's images, image
    # each candidate at most once; they are kept alive here, so that no
    # two of them share an id.
    classified, imaged, alive = Counter(), Counter(), {}
    original_image = Action.image

    def counted_image(self, word):
        alive[id(self)] = self
        imaged[(id(self), word)] += 1
        return original_image(self, word)

    for model_class in (HalfPlaneModel, BassSerreModel, CayleyTreeModel):

        def counted_classify(self, iso, original=model_class.classify):
            classified[id(self)] += 1
            return original(self, iso)

        monkeypatch.setattr(model_class, "classify", counted_classify)
    monkeypatch.setattr(Action, "image", counted_image)
    systems = [build_action_system(parse_config((CONFIGS / "three_action.cfg").read_text()))]
    systems += [random_action_system(seed) for seed in range(20)]
    for system in systems:
        classified.clear()
        imaged.clear()
        alive.clear()
        cert = simultaneous_hyperbolic(system, SearchSchedule(32))
        stages = cert.stages[1:]
        expected = 1 + sum(1 + (0 if r.trivial else 2 * (r.stage + 1)) for r in stages)
        assert sum(classified.values()) == expected
        own = {id(action) for action in system.actions}
        assert [w for (i, w), n in imaged.items() if i in own and n > 1] == []
        assert [w for (i, w), n in imaged.items() if i not in own and n > 1] == []
        assert len(alive) == len(own) + sum(r.stage + 1 for r in stages if not r.trivial)


# -- the images a certificate keeps ----------------------------------------------


def assert_images_are_the_word_images(system: ActionSystem, cert: Certificate):
    """Oracle: each image the search composed is the word's image letter by
    letter, as the checker computes it."""
    assert len(cert.images) == len(cert.per_action) == system.n_actions
    for action, image in zip(system.actions, cert.images):
        assert image.payload == action.image(cert.word).payload


def test_certificate_images_on_seeds_and_configs():
    systems = [random_action_system(seed) for seed in range(100)]
    systems += [build_action_system(parse_config(path.read_text())) for path in sorted(CONFIGS.glob("*.cfg"))]
    searched = 0
    for system in systems:
        cert = simultaneous_hyperbolic(system, SearchSchedule(32))
        assert_images_are_the_word_images(system, cert)
        searched += any(not stage.trivial for stage in cert.stages)
    assert searched >= 20


# plane generators of chain-style systems: hyperbolics, and rotations of order
# 2, 3 and infinity (traces 0, 1 and 1/2)
PLANE_HYPERBOLICS = [(2, 1, 1, 1), (3, 2, 1, 1), (1, 1, 1, 2), (5, 2, 2, 1)]
PLANE_ROTATIONS = [(0, -1, 1, 0), (0, -1, 1, 1), (1, -1, 1, 0), (0, -1, 1, Fraction(1, 2)),
                   (Fraction(1, 2), -1, 1, 0)]
# Bass-Serre words of Z/2 * Z/3: hyperbolic ones, and elliptic ones of order 2 and 3
BS_HYPERBOLICS = [((0, 1), (1, 1)), ((0, 1), (1, 2)), ((1, 1), (0, 1), (1, 1), (0, 1), (1, 2), (0, 1))]
BS_ELLIPTICS = [((0, 1),), ((1, 1),), ((1, 2),), ((1, 1), (0, 1), (1, 2)), ((0, 1), (1, 1), (0, 1))]


@st.composite
def chain_systems(draw, max_k: int = 4):
    """k generators and k actions; action i sees generator i hyperbolic and
    every other one elliptic, on the plane (conjugated by a shear) or on the
    Bass-Serre tree of Z/2 * Z/3."""
    k = draw(st.integers(2, max_k))
    gens = tuple(f"g{j + 1}" for j in range(k))
    actions = []
    for i in range(k):
        if draw(st.booleans()):
            plane, shear = HalfPlaneModel(), Matrix2.of(1, draw(st.integers(-2, 2)), 0, 1)
            images = {}
            for j, gen in enumerate(gens):
                m = Matrix2.of(*draw(st.sampled_from(PLANE_HYPERBOLICS if j == i else PLANE_ROTATIONS)))
                images[gen] = plane.own(shear * m * shear.inverse())
            actions.append(Action(f"plane{i}", plane, images))
        else:
            bs = BassSerreModel(2, 3)
            images = {
                gen: bs.word(draw(st.sampled_from(BS_HYPERBOLICS if j == i else BS_ELLIPTICS)))
                for j, gen in enumerate(gens)
            }
            actions.append(Action(f"tree{i}", bs, images))
    return ActionSystem(gens, actions, [GroupWord.generator(gen) for gen in gens])


@given(chain_systems())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_certificate_images_on_chain_systems(system):
    try:
        cert = simultaneous_hyperbolic(system, SearchSchedule(6))
    except (HypothesisViolation, ScheduleExhausted):
        return  # a parabolic f or g, or no pair in the small schedule: nothing certified
    assert_images_are_the_word_images(system, cert)
    assert verify_certificate(system, cert)


@given(chain_systems(8))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_certificate_check_matches_the_rendering_oracle_on_chain_systems(system):
    try:
        cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    except (HypothesisViolation, ScheduleExhausted):
        return
    _assert_checks_match_the_oracle(system, cert, Counter())


def _assert_stats_tally_the_stages(system: ActionSystem, schedule: SearchSchedule) -> None:
    """Each stage's certificate and the final one: the search stats are the
    stages' candidates and their number, and each searched stage's
    candidates are the pairs it drew from the schedule."""
    steps, drawn = [], []

    def step(system, running, schedule, original=combiner.combine_step):
        steps.append(original(system, running, schedule))
        return steps[-1]

    def pairs(self, original=SearchSchedule.pairs):
        drawn.append(0)
        for pair in original(self):
            drawn[-1] += 1
            yield pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combiner, "combine_step", step)
        patch.setattr(SearchSchedule, "pairs", pairs)
        cert = simultaneous_hyperbolic(system, schedule)
    for out in (*steps, cert):
        assert out.search_stats == SearchStats(sum(s.candidates_tried for s in out.stages), len(out.stages))
    assert drawn == [s.candidates_tried for s in cert.stages if not s.trivial]


def test_search_stats_tally_the_stages():
    systems = [random_action_system(seed) for seed in range(20)]
    systems += [build_action_system(parse_config(path.read_text())) for path in sorted(CONFIGS.glob("*.cfg"))]
    for system in systems:
        _assert_stats_tally_the_stages(system, SearchSchedule(32))


@given(chain_systems(8))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_search_stats_tally_the_stages_on_chain_systems(system):
    try:
        _assert_stats_tally_the_stages(system, SearchSchedule(6))
    except (HypothesisViolation, ScheduleExhausted):
        return


# g in action one is a rotation whose primitive matrix (6, -9, 5, 6) has s = 9:
# |a + d| = 12 is past 2 but short of 2s, so only a trace read with its s
# tells the rotation apart, and the E test asks whether it fixes a point
SCALED_ROTATION = """hypiso-config v1
generators f g

action one
model half_plane
gen f [[2, 1], [1, 1]]
gen g [[2/3, -1], [5/9, 2/3]]
witness f

action two
model half_plane
gen f [[0, -1], [1, 0]]
gen g [[3, 2], [1, 1]]
witness g
"""


# -- the partition: built only when report reads it --------------------------


def _stage_partitions(system: ActionSystem, schedule: SearchSchedule) -> list:
    """(lazily read, eager reference) partitions of every nontrivial stage
    of the search on the system, the running word rebuilt stage by stage;
    [] when the search fails."""
    try:
        cert = simultaneous_hyperbolic(system, schedule)
    except (HypothesisViolation, ScheduleExhausted):
        return []
    f, _ = resolve_witness(system, 0)
    out = []
    for record in cert.stages[1:]:
        if record.trivial:
            continue
        g, _ = resolve_witness(system, record.stage)
        eager = eager_partitions(system, _classes(system, f, record.stage), _images(system, g, record.stage))
        assert eager[-1] is None  # the stage's own action has no entry
        out.append((tuple(partition(a.model, e) for a, e in zip(system.actions, record.profile)), eager[:-1]))
        f = (f**record.p) ** record.a * (g**record.q) ** record.b
    assert f == cert.word
    return out


def test_lazy_partitions_match_the_eager_reference():
    texts = [p.read_text() for p in sorted(CONFIGS.glob("*.cfg"))] + [SCALED_ROTATION]
    systems = [build_action_system(parse_config(text)) for text in texts]
    systems += [random_action_system(seed) for seed in range(100)]
    seen = Counter()
    for system in systems:
        for lazy, eager in _stage_partitions(system, SearchSchedule(32)):
            assert lazy == eager
            seen.update(eager)

    @given(chain_systems(8))
    @settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    def on_chain_systems(system):
        for lazy, eager in _stage_partitions(system, SearchSchedule(6)):
            assert lazy == eager
            seen.update(eager)

    on_chain_systems()
    assert all(seen[kind] > 0 for kind in ("H'", "H", "E", "E-E'-candidate")), seen


def test_the_e_test_asks_about_the_repelling_point(monkeypatch):
    # no elliptic image in these models fixes one end of an axis and not the
    # other (a rotation fixes no boundary point, +-identity every one, and a
    # tree's elliptic either every end or none, its edge groups trivial), so
    # only the point the E test asks about shows which end it reads
    asked = []
    fixes = HalfPlaneModel.fixes

    def recorded(self, iso, b):
        asked.append(b)
        return fixes(self, iso, b)

    monkeypatch.setattr(HalfPlaneModel, "fixes", recorded)
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    entry = cert.stages[1].profile[0]
    assert partition(system.actions[0].model, entry) == "E-E'-candidate"
    ends = entry.cf.hyperbolic
    assert len(asked) == 1 and asked[0] == ends.fixed_minus and asked[0] != ends.fixed_plus


# f and g are hyperbolic on distinct axes in action one, and f is a rotation
# in action two: stage 1's partition of action one is H'
INDEPENDENT_AXES = """hypiso-config v1
generators f g

action one
model half_plane
gen f [[2, 1], [1, 1]]
gen g [[2, 0], [0, 1/2]]
witness f

action two
model half_plane
gen f [[0, -1], [1, 0]]
gen g [[2, 1], [1, 1]]
witness g
"""


def test_search_and_verify_build_no_partition(tmp_path, capsys, monkeypatch):
    # the search and the certificate check never run the partition's tests;
    # report reads the partitions and runs them
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(combiner, "independent", counting("independent", combiner.independent))
    for model in (SpaceModel, HalfPlaneModel, TreeModel):
        for name in ("fixes", "boundary_equal"):
            if name in vars(model):
                monkeypatch.setattr(model, name, counting(name, vars(model)[name]))
    systems = [build_action_system(parse_config(p.read_text())) for p in sorted(CONFIGS.glob("*.cfg"))]
    systems += [random_action_system(seed) for seed in range(100)]
    nontrivial = 0
    for system in systems:
        try:
            cert = simultaneous_hyperbolic(system, SearchSchedule(32))
        except (HypothesisViolation, ScheduleExhausted):
            continue
        nontrivial += sum(not stage.trivial for stage in cert.stages)
    assert nontrivial >= 20 and calls == Counter(), (nontrivial, calls)
    path = str(CONFIGS / "three_action.cfg")
    assert cli.main(["combine", "--input", path, "--format", "records"]) == 0
    rec_path = tmp_path / "cert.rec"
    rec_path.write_text(capsys.readouterr().out)
    assert cli.main(["combine", "--input", path, "--verify", str(rec_path)]) == 0
    assert calls == Counter()
    # three_action.cfg has an E-E'-candidate stage, INDEPENDENT_AXES an H' one
    independent_axes = tmp_path / "independent.cfg"
    independent_axes.write_text(INDEPENDENT_AXES)
    for config in (path, str(independent_axes)):
        assert cli.main(["report", "--input", config]) == 0
    assert capsys.readouterr().out.count("partition") == 2
    assert calls["independent"] > 0 and calls["fixes"] > 0 and calls["boundary_equal"] > 0


def test_profiles_differing_only_in_a_partition_compare_unequal():
    plane = HalfPlaneModel()
    cf = plane.classify(plane.matrix(2, 1, 1, 1))

    def entry(g):
        return ProfileEntry(cf, plane.classify(g), g)

    # f^2 and f^3 share f's axis; z -> 4z has another
    h, h3 = entry(plane.matrix(5, 3, 3, 2)), entry(plane.matrix(13, 8, 8, 5))
    h_prime = entry(plane.matrix(2, 0, 0, Fraction(1, 2)))
    assert (h.cg.tag, h3.cg.tag, h_prime.cg.tag) == ("hyperbolic",) * 3
    assert (partition(plane, h), partition(plane, h3), partition(plane, h_prime)) == ("H", "H", "H'")
    assert h != h_prime
    assert StageRecord(1, "one", profile=(h,)) != StageRecord(1, "one", profile=(h_prime,))


# -- equivariance: conjugating an action's images changes no decision ----------


def _conjugator(rng: random.Random) -> tuple[Fraction, ...]:
    """The entries of a det-1 rational h with denominators up to 9."""
    while True:
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if a and ((1 + b * c) / a).denominator <= 9 and (abs(a), b, c) != (1, 0, 0):
            return a, b, c, (1 + b * c) / a


def _plane_conjugators(system: ActionSystem, h_entries) -> list:
    """The matrix of h_entries in each plane action's model; None elsewhere."""
    return [a.model.matrix(*h_entries) if isinstance(a.model, HalfPlaneModel) else None for a in system.actions]


def _conjugated(system: ActionSystem, hs) -> ActionSystem:
    """The system with every image M of action i replaced by h M h^-1 for
    h = hs[i]; the actions whose h is None stay as they are."""
    actions = []
    for action, h in zip(system.actions, hs):
        if h is not None:
            model = action.model
            conj = {g: model.compose(model.compose(h, m), model.invert(h)) for g, m in action.images.items()}
            action = Action(action.name, model, conj)
        actions.append(action)
    return ActionSystem(system.generators, actions, system.witnesses)


def _assert_search_commutes(system: ActionSystem, hs):
    """Every decision of the search (tags, the fixes test, fixed-point
    equality) commutes with the isometries hs[i]: on the conjugated system
    only the fixed points move, to h of the originals.  Returns the search's
    certificate on the system and the conjugated system's record."""
    conj = _conjugated(system, hs)
    cert = simultaneous_hyperbolic(system, SearchSchedule(32))
    cert_h = simultaneous_hyperbolic(conj, SearchSchedule(32))
    assert cert_h.word == cert.word
    # entries compare by value, and conjugation moves their fixed points:
    # compare what the search decided, and each entry's tags and partition
    def decided(cert, system):
        return [
            (s.a, s.b, s.p, s.q, s.schedule_index, s.candidates_tried, s.trivial,
             [(e.cf.tag, e.cg.tag, partition(a.model, e)) for a, e in zip(system.actions, s.profile)])
            for s in cert.stages
        ]

    assert decided(cert_h, conj) == decided(cert, system)
    assert check_hypotheses(conj, 4).violations == check_hypotheses(system, 4).violations
    for action, action_h, h, cls, cls_h in zip(system.actions, conj.actions, hs, cert.per_action, cert_h.per_action):
        model = action.model
        pairs = [(cls, cls_h)] + [
            (model.classify(action.images[g]), model.classify(action_h.images[g])) for g in system.generators
        ]
        for c, c_h in pairs:
            assert (c_h.tag, class_invariant(c_h)) == (c.tag, class_invariant(c))
            if h is not None and c.is_hyperbolic:
                ends = (c.hyperbolic.fixed_plus, c.hyperbolic.fixed_minus)
                ends_h = (c_h.hyperbolic.fixed_plus, c_h.hyperbolic.fixed_minus)
                assert all(model.boundary_equal(e_h, model.boundary_apply(h, e)) for e, e_h in zip(ends, ends_h))
    record = parse_record(record_for_certificate("combine", conj, cert_h, []).emit())
    assert verify_record(conj, record) == (True, [])
    return cert, record


def test_search_is_invariant_under_plane_conjugation():
    # the third-last system has parabolic words of length 2, so a failed
    # trial and hypothesis violations.  In the last two, h moves one fixed
    # point of f alone, so that only the minus= or only the plus= column
    # tells the conjugated record from the original: f is z -> 4z (plus
    # infinity, minus 0) and h is z -> z + 1, then f is its conjugate by
    # z -> z/(z + 1) (plus 1, minus 0) and h is that map
    p1, p2 = HalfPlaneModel(), HalfPlaneModel()
    one = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(1, 5, -1, -4)})
    two = Action("two", p2, {"f": p2.matrix(0, -1, 1, Fraction(1, 2)), "g": p2.matrix(2, 1, 1, 1)})
    systems = [build_action_system(parse_config((CONFIGS / "three_action.cfg").read_text()))]
    systems += [random_action_system(seed) for seed in range(20)]
    systems += [ActionSystem(("f", "g"), [one, two], [GroupWord.parse("f"), GroupWord.parse("g")])]
    cases = [(system, _conjugator(random.Random(seed))) for seed, system in enumerate(systems)]
    for f, h in (((2, 0, 0, Fraction(1, 2)), (1, 1, 0, 1)), ((2, 0, Fraction(3, 2), Fraction(1, 2)), (1, 0, 1, 1))):
        p3 = HalfPlaneModel()
        three = Action("three", p3, {"f": p3.matrix(*f), "g": p3.matrix(2, 1, 1, 1)})
        cases.append((ActionSystem(("f", "g"), [three], [GroupWord.parse("f")]), h))
    moved_ends = Counter()
    for system, h_entries in cases:
        hs = _plane_conjugators(system, h_entries)
        cert, record = _assert_search_commutes(system, hs)
        # the negative control: the conjugated record names h's images of
        # the fixed points, which the original system refuses in exactly
        # the plane actions where h moves one of them
        moved = []
        for i, (h, cls) in enumerate(zip(hs, cert.per_action)):
            model = system.actions[i].model
            ends = [e for e in cls.hyperbolic.fixed_points if h is not None and not model.fixes(h, e)]
            moved_ends[len(ends)] += 1
            if ends:
                moved.append(f"action {i} ({system.actions[i].name})")
        ok, notes = verify_record(system, record)
        assert ok == (not moved) and [n.split(":")[0] for n in notes] == moved
    assert moved_ends[1] >= 2 and moved_ends[2] >= 20


def test_search_is_invariant_under_tree_conjugation():
    # on a tree, h is a word of the tree's own group, here of 1-3 letters
    # or syllables, and one tree action's images are conjugated by it
    systems = [build_action_system(parse_config((CONFIGS / "three_action.cfg").read_text()))]
    systems += [random_action_system(seed) for seed in range(20)]
    conjugated = controls = 0
    for seed, system in enumerate(systems):
        trees = [i for i, a in enumerate(system.actions) if isinstance(a.model, TreeModel)]
        if not trees:
            continue
        rng = random.Random(seed)
        i = trees[seed % len(trees)]
        model = system.actions[i].model
        h = model.identity()
        while h == model.identity():
            units = [rng.choice(model.letters()) if isinstance(model, CayleyTreeModel)
                     else (rng.randrange(2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            h = model.word(units)
        cert, record = _assert_search_commutes(system, [h if j == i else None for j in range(system.n_actions)])
        conjugated += 1
        # the negative control: the record names h's images of the fixed
        # points, which the original system refuses unless h fixes them
        cls = cert.per_action[i]
        if all(model.fixes(h, e) for e in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus)):
            continue
        controls += 1
        ok, notes = verify_record(system, record)
        assert not ok and [n.split(":")[0] for n in notes] == [f"action {i} ({system.actions[i].name})"]
    assert conjugated == 19 and controls >= 15


# -- the plane's batched hypothesis check against imaging each word -------------


def test_reduced_words_follow_the_word_tree():
    # combiner's reduced_words and word_tree against the nested loops of the
    # reference, which read no tree: each level holds its words' last steps,
    # and word k of level n + 1 is a child of word k // (r - 1) of level n
    for generators, count in ((("f",), 10), (("f", "g"), 484), (("f", "g", "h"), 4686)):
        expected = list(reduced_words(generators, 5))
        assert len(expected) == count
        assert list(combiner.reduced_words(generators, 5)) == expected
        r, paths = 2 * len(generators), [step_path(generators, word) for word in expected]
        by_level = [[path for path in paths if len(path) == n + 1] for n in range(5)]
        levels = combiner.word_tree(r, 5)
        assert len(levels) == 5 and combiner.word_tree(r, 0) == []
        for n, level in enumerate(levels):
            assert list(level) == [path[-1] for path in by_level[n]]
            if n:
                assert [path[:-1] for path in by_level[n]] == [by_level[n - 1][k // (r - 1)] for k in range(len(level))]


def test_witness_search_builds_only_the_levels_it_reads(monkeypatch):
    # reduced_words grows the tree one level at a time, so the unclaimed
    # witness search builds no level past the one holding its first
    # hyperbolic word: with 20 generators and the first hyperbolic that is
    # level 0, where all WITNESS_SEARCH_DEPTH levels would be 40 * 39^3 steps
    monkeypatch.setattr(combiner, "_WORD_TREES", {})
    p = HalfPlaneModel()
    names = tuple(f"g{i}" for i in range(20))
    images = {name: p.matrix(2, 1, 1, 1) if i == 0 else p.matrix(1, 2, 0, 1) for i, name in enumerate(names)}
    many = ActionSystem(names, [Action("many", p, images)])
    assert resolve_witness(many, 0)[0] == GroupWord((("g0", 1),))
    assert {r: len(levels) for r, levels in combiner._WORD_TREES.items()} == {40: 1}
    # f: z -> -1/z and g: z -> -4/z are elliptic, f g: z -> z/4 is the first
    # hyperbolic word, at level 1
    f, g = p.matrix(0, -1, 1, 0), p.matrix(0, -2, Fraction(1, 2), 0)
    two = ActionSystem(("f", "g"), [Action("two", p, {"f": f, "g": g})])
    assert resolve_witness(two, 0)[0] == GroupWord((("f", 1), ("g", 1)))
    assert {r: len(levels) for r, levels in combiner._WORD_TREES.items()} == {40: 1, 4: 2}


def _assert_batched_walk_matches(system: ActionSystem, depths) -> int:
    """parabolic_words on the word tree against the reference walk on each
    plane action; the number of violations found at the deepest depth."""
    found = 0
    for action in system.actions:
        if not isinstance(action.model, HalfPlaneModel):
            continue
        generators = [action.images[g] for g in system.generators]
        walked = walked_parabolic_words(system, action, max(depths))
        for depth in depths:
            expected = tuple((n, k) for n, k in walked if n < depth)
            tree = combiner.word_tree(2 * len(generators), depth)
            assert action.model.parabolic_words(generators, tree) == expected
        found += len(walked)
    return found


def test_batched_parabolic_words_match_the_walk():
    found = 0
    for seed in range(60):
        found += _assert_batched_walk_matches(random_action_system(seed), (4, 5, 6))
    p1, p2 = HalfPlaneModel(), HalfPlaneModel()
    one = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(1, 5, -1, -4)})
    two = Action("two", p2, {"f": p2.matrix(0, -1, 1, Fraction(1, 2)), "g": p2.matrix(2, 1, 1, 1)})
    systems = [random_action_system(seed) for seed in range(20)]
    systems += [ActionSystem(("f", "g"), [one, two])]
    for seed, system in enumerate(systems):
        hs = _plane_conjugators(system, _conjugator(random.Random(seed)))
        found += _assert_batched_walk_matches(_conjugated(system, hs), (5,))
    assert found >= 60  # violations at every depth, past the sampler's 3


def test_batched_parabolic_words_grow_one_tree_per_step_count(monkeypatch):
    # from an empty cache: depths 0 and 1, then deeper calls that grow each
    # tree, interleaving one, two and three generators, and keep the levels
    # already built; f and g are parabolic, h of order 2 (h h is -1, a trace
    # hit that is not a violation) and k an infinite-order rotation with s = 2
    monkeypatch.setattr(combiner, "_WORD_TREES", {})
    p = HalfPlaneModel()
    f, g, h, k = p.matrix(1, 2, 0, 1), p.matrix(1, 0, 2, 1), p.matrix(0, -1, 1, 0), p.matrix(0, -1, 1, Fraction(1, 2))
    one = ActionSystem(("f",), [Action("one", p, {"f": f})])
    two = ActionSystem(("f", "h"), [Action("two", p, {"f": f, "h": h})])
    three = ActionSystem(("f", "g", "k"), [Action("three", p, {"f": f, "g": g, "k": k})])
    found, built = 0, {}
    for depths in ((0,), (1,), (1, 3), (2, 5)):
        for system in (one, three, two):
            found += _assert_batched_walk_matches(system, depths)
            for r, levels in combiner._WORD_TREES.items():
                if levels:
                    built.setdefault(r, levels[0])  # the first level 0 built
    assert {r: len(levels) for r, levels in combiner._WORD_TREES.items()} == {2: 5, 4: 5, 6: 5}
    assert built.keys() == {2, 4, 6} and all(combiner._WORD_TREES[r][0] is level for r, level in built.items())
    assert found >= 60


def _past_int64_systems() -> tuple[ActionSystem, ActionSystem]:
    """f = z -> z + 1/s with 2^31 < s < 2^32: the steps are Python ints from
    the first level, and f f, before any gcd, has s^2 > 2^63.  And f = z ->
    z + 1/t with t < 2^30: int64 steps, a level past 2^30 at length 2, and
    f f f has 2^62 < t^3 < 2^63 at length 3, so the 2s of its tag passes
    2^63."""
    plane = HalfPlaneModel()
    s, t = 3_500_000_017, 1_900_001
    return tuple(
        ActionSystem(("f", "g"), [Action(name, plane, {"f": plane.matrix(1, Fraction(1, n), 0, 1),
                                                       "g": plane.matrix(2, 1, 1, 1)})])
        for name, n in (("big", s), ("late", t))
    )


def test_batched_parabolic_words_past_int64():
    plane = HalfPlaneModel()
    big, late = _past_int64_systems()
    assert max(plane.size(image) for image in big.actions[0].images.values()) > 30
    assert max(plane.size(image) for image in late.actions[0].images.values()) <= 30
    for system, f_f in ((big, (1, 0)), (late, (2, 0))):  # f f, and f f f
        assert f_f in walked_parabolic_words(system, system.actions[0], 4)
        assert _assert_batched_walk_matches(system, (1, 2, 3, 4)) > 0


def test_parabolic_words_level_zero_matches_the_walk():
    # level 0, the steps themselves, is tagged from their tuples: |a + d| =
    # 2s and not +-identity.  A parabolic step and its negative, a parabolic
    # with s = 3, and +-identity, each alone and beside a hyperbolic
    plane = HalfPlaneModel()
    steps = [(1, 1, 0, 1), (-1, -1, 0, -1), (1, Fraction(1, 3), 0, 1), (1, 0, 0, 1), (-1, 0, 0, -1)]
    systems = list(_past_int64_systems())
    for entries in steps:
        m = plane.matrix(*entries)
        systems.append(ActionSystem(("f",), [Action("one", plane, {"f": m})]))
        systems.append(ActionSystem(("f", "g"), [Action("two", plane, {"f": m, "g": plane.matrix(2, 1, 1, 1)})]))
    found = 0
    for system in systems:
        generators = list(system.actions[0].images.values())
        assert plane.parabolic_words(generators, []) == ()
        found += _assert_batched_walk_matches(system, (0, 1, 2, 3, 4))
    assert found >= 60


def test_one_generator_checks_level_zero_only(monkeypatch):
    # every word of one generator is a power f^n, n != 0, parabolic exactly
    # when f is: the plane is asked for level 0 alone, and the violations
    # equal the reference walk's at every depth.  +-I, rotations of orders
    # 2, 3 and infinity, parabolics with s = 1 and s = 3 and hyperbolics,
    # each alone and beside a tree action and a hyperbolic plane action
    plane, bs = HalfPlaneModel(), BassSerreModel(2, 3)
    matrices = [(1, 0, 0, 1), (-1, 0, 0, -1), (0, -1, 1, 0), (0, -1, 1, 1), (-1, -1, 1, 0), ROTATION_3_5,
                (0, -1, 1, Fraction(1, 2)), (1, 1, 0, 1), (-1, 1, 0, -1), (1, 0, 3, 1), (1, Fraction(1, 3), 0, 1),
                (2, 1, 1, 1), (3, Fraction(1, 2), 2, Fraction(2, 3))]
    asked = []
    hook = HalfPlaneModel.parabolic_words
    monkeypatch.setattr(HalfPlaneModel, "parabolic_words",
                        lambda self, gens, tree: asked.append(len(tree)) or hook(self, gens, tree))
    words = list(reduced_words(("f",), 39))
    violations = 0
    for entries in matrices:
        f = plane.matrix(*entries)
        for extra in ([], [Action("tree", bs, {"f": bs.word([(0, 1), (1, 1)])})],
                      [Action("hyp", plane, {"f": plane.matrix(2, 1, 1, 1)})]):
            system = ActionSystem(("f",), [Action("one", plane, {"f": f}), *extra])
            walked = [(w, i) for i, action in enumerate(system.actions) for w in words
                      if action.model.tag(action.image(w)) == "hypothesis_violation"]
            for depth in range(40):
                report = check_hypotheses(system, depth)
                assert report.violations == tuple((w, i) for w, i in walked if len(w) <= depth)
                assert report.words_checked == 2 * depth
            violations += len(walked)
    assert set(asked) == {0, 1} and violations == 4 * 3 * 78
