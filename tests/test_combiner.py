import itertools
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hypiso.actions import Action, ActionSystem
from hypiso.combiner import (
    Certificate,
    SearchSchedule,
    SearchStats,
    check_hypotheses,
    combine_step,
    independent,
    normalize_powers,
    resolve_witness,
    simultaneous_hyperbolic,
    verify_certificate,
    verify_certificate_detailed,
)
from hypiso.config import build_action_system, parse_config
from hypiso.errors import HypothesisViolation, NotHyperbolic, ScheduleExhausted, WitnessNotHyperbolic
from hypiso.halfplane import HalfPlaneModel
from hypiso.records import record_for_certificate, verify_record
from hypiso.sampling import random_action_system
from hypiso.trees import BassSerreModel
from hypiso.words import GroupWord


def worked_system() -> ActionSystem:
    p1 = HalfPlaneModel()
    p2 = HalfPlaneModel()
    a1 = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(0, -1, 1, 0)})
    a2 = Action("two", p2, {"f": p2.matrix(0, -1, 1, 0), "g": p2.matrix(2, 1, 1, 1)})
    return ActionSystem(("f", "g"), [a1, a2], [GroupWord.parse("f"), GroupWord.parse("g")])


def three_action_system() -> ActionSystem:
    system = worked_system()
    bs = BassSerreModel(2, 3, ball_radius=8)
    a3 = Action("tree", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(0, 1)])})
    return ActionSystem(
        ("f", "g"), system.actions + [a3], system.witnesses + [GroupWord.parse("f")]
    )


def _classes(system: ActionSystem, word: GroupWord, upto: int) -> tuple:
    return tuple(system.actions[i].classify_word(word) for i in range(upto + 1))


def _class(system: ActionSystem, word: GroupWord, k: int):
    return system.actions[k].classify_word(word)


def _running(system: ActionSystem, word: GroupWord, k: int) -> Certificate:
    """A certificate for word in actions 0..k-1, as stage k receives it."""
    return Certificate(word, (), _classes(system, word, k - 1), SearchStats(0, 0))


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


def test_check_hypotheses_composes_once_per_word(monkeypatch):
    # each word's image is its parent's image composed with one generator
    # image; the only other composition images a claimed witness
    calls = []
    original = HalfPlaneModel.compose

    def counted(self, first, second):
        calls.append(1)
        return original(self, first, second)

    monkeypatch.setattr(HalfPlaneModel, "compose", counted)
    system = build_action_system(parse_config((CONFIGS / "worked_example.cfg").read_text()))
    report = check_hypotheses(system, 6)
    assert report.words_checked == 1456
    assert len(calls) <= system.n_actions * (report.words_checked + 1)


def test_witness_not_hyperbolic_raises():
    system = worked_system()
    system.witnesses[0] = GroupWord.parse("g")  # elliptic in action one
    with pytest.raises(WitnessNotHyperbolic):
        check_hypotheses(system, 2)


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
        indep(GroupWord.identity())


def test_normalize_powers_plane_orders():
    system = worked_system()
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    f2, g2, prof = normalize_powers(system, f, g, _classes(system, f, 1), _class(system, g, 1))
    assert prof.p == 2  # rho_2(f) is the projective order-2 rotation
    assert prof.q == 2  # rho_1(g) likewise
    assert f2 == GroupWord.parse("f^2")
    assert g2 == GroupWord.parse("g^2")


def test_normalize_powers_all_hyperbolic():
    plane = HalfPlaneModel()
    act = Action(
        "p", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(2, 0, 0, Fraction(1, 2))}
    )
    system = ActionSystem(("f", "g"), [act], [GroupWord.parse("f")])
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    f2, g2, prof = normalize_powers(system, f, g, _classes(system, f, 0), _class(system, g, 0))
    assert prof.p == 1 and prof.q == 1


def test_normalize_powers_bass_serre_order_3():
    bs = BassSerreModel(2, 3)
    act = Action("t", bs, {"f": bs.word([(0, 1), (1, 1)]), "g": bs.word([(1, 1)])})
    plane = HalfPlaneModel()
    act2 = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(2, 1, 1, 1)})
    system = ActionSystem(("f", "g"), [act, act2], [GroupWord.parse("f"), GroupWord.parse("g")])
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    _, g2, prof = normalize_powers(system, f, g, _classes(system, f, 1), _class(system, g, 1))
    assert prof.q == 3  # elliptic image t has order 3
    assert g2 == GroupWord.parse("g^3")


def test_normalize_powers_preserves_hyperbolic_data():
    # where f was hyperbolic, f^p stays hyperbolic with tau scaled by p and
    # the same boundary fixed points
    system = three_action_system()
    f, g = GroupWord.parse("f"), GroupWord.parse("g")
    f2, g2, prof = normalize_powers(system, f, g, _classes(system, f, 2), _class(system, g, 2))
    for i, action in enumerate(system.actions):
        cls = action.classify_word(f)
        if not cls.is_hyperbolic:
            continue
        cls2 = action.classify_word(f2)
        assert cls2.is_hyperbolic
        tl, tl2 = cls.hyperbolic.translation_length, cls2.hyperbolic.translation_length
        assert abs(tl2.value - prof.p * tl.value) < 1e-9
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
    _, _, prof = normalize_powers(system, f, g, _classes(system, f, 2), _class(system, g, 2))
    tags = {e.action_name: e.partition for e in prof.entries}
    assert tags["h-prime"] == "H'"
    assert tags["h-dep"] == "H"
    assert tags["stage"] is None


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
    return Certificate(cert.word, cert.stages, classes, cert.search_stats)


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
        assert cls.hyperbolic.translation_length.exact_cosh_half == Fraction(7, 2)
    assert verify_certificate(system, cert)


def test_simultaneous_monotone_stages():
    # after each recorded stage the running word is hyperbolic in all
    # actions up to that stage
    system = three_action_system()
    schedule = SearchSchedule(8)
    cert = simultaneous_hyperbolic(system, schedule)
    f, _ = resolve_witness(system, 0)
    assert cert.stages[0].profile is None
    for record in cert.stages:
        if record.stage == 0:
            continue
        if record.trivial:
            assert record.profile is None
        else:
            g, g_class = resolve_witness(system, record.stage)
            f2, g2, profile = normalize_powers(
                system, f, g, _classes(system, f, record.stage), g_class
            )
            assert record.profile == profile
            assert (record.p, record.q) == (profile.p, profile.q)
            f = f2**record.a * g2**record.b
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
    identity_cert = Certificate(GroupWord.identity(), cert.stages, cert.per_action, cert.search_stats)
    assert not verify_certificate(system, identity_cert)
    elliptic_cert = Certificate(GroupWord.parse("f g"), cert.stages, cert.per_action, cert.search_stats)
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
    wrong = Certificate(cert.word, cert.stages, squares, cert.search_stats)
    ok, notes = verify_certificate_detailed(system, wrong)
    assert not ok and all("witness mismatch" in n for n in notes)
    swapped = Certificate(cert.word, cert.stages, tuple(reversed(cert.per_action)), cert.search_stats)
    ok, notes = verify_certificate_detailed(system, swapped)  # a tree class in a plane action
    assert not ok and "another model" in notes[0]
    short = Certificate(cert.word, cert.stages, cert.per_action[:2], cert.search_stats)
    assert verify_certificate_detailed(system, short) == (
        False, ["certificate covers 2 actions, system has 3"]
    )


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


def test_search_classifies_each_word_once_per_action(monkeypatch):
    # each stage extends the previous stage's certificate, resolves its
    # witness only when it needs one, and takes the witness's class from
    # resolve_witness, so no word is classified twice in one action,
    # witnesses included
    classified = Counter()
    original_classify = Action.classify_word

    def counted_classify(self, word):
        classified[(id(self), word)] += 1
        return original_classify(self, word)

    monkeypatch.setattr(Action, "classify_word", counted_classify)
    systems = [build_action_system(parse_config((CONFIGS / "three_action.cfg").read_text()))]
    systems += [random_action_system(seed) for seed in range(20)]
    for system in systems:
        classified.clear()
        simultaneous_hyperbolic(system, SearchSchedule(32))
        repeated = [w for (_, w), n in classified.items() if n > 1]
        assert repeated == []
