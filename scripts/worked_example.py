#!/usr/bin/env python3
"""End-to-end run of the worked two-action PSL(2) instance.

Builds the system in code, checks the hypotheses, runs the combiner,
re-verifies the certificate from scratch, and prints the exact data.
Equivalent CLI run:  hypiso combine --input configs/worked_example.cfg
"""

from hypiso import (
    Action,
    ActionSystem,
    GroupWord,
    HalfPlaneModel,
    SearchSchedule,
    check_hypotheses,
    simultaneous_hyperbolic,
    verify_certificate,
)
from hypiso.records import class_invariant, record_for_certificate


def main() -> None:
    p1, p2 = HalfPlaneModel(), HalfPlaneModel()
    system = ActionSystem(
        ("f", "g"),
        [
            Action("plane-one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(0, -1, 1, 0)}),
            Action("plane-two", p2, {"f": p2.matrix(0, -1, 1, 0), "g": p2.matrix(2, 1, 1, 1)}),
        ],
        [GroupWord.parse("f"), GroupWord.parse("g")],
    )

    report = check_hypotheses(system, word_sample_depth=4)
    print(f"hypotheses: {'pass' if report.passed else 'FAIL'} ({report.words_checked} words)")

    cert = simultaneous_hyperbolic(system, SearchSchedule(max_exponent=32))
    print(f"word: {cert.word.display()}")
    for i, cls in enumerate(cert.per_action):
        print(
            f"  action {system.actions[i].name}: {cls.tag}, {class_invariant(cls)}, "
            f"tau ~ {cls.hyperbolic.translation_length:.6f}"
        )
    for s in cert.stages:
        how = "trivial" if s.trivial else f"a={s.a} b={s.b} p={s.p} q={s.q}"
        print(f"  stage {s.stage} ({s.action_name}): {how}")
    print(f"re-verification: {verify_certificate(system, cert)}")
    print()
    print(record_for_certificate("combine", system, cert, [("seed", "0")]).emit(), end="")


if __name__ == "__main__":
    main()
