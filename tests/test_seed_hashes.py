"""Byte identity on the seeded random systems: for random_action_system
seeds 0-99, the sha256 of the combine record, of the depth-4 hypothesis
report and of the generator classes (elliptic witnesses included) is
pinned in seed_hashes.json.  For seeds 0-29 so are the diagnostics of
``hypiso dynamics`` and ``hypiso delta`` as the CLI runs them: the
North-South check at orbit depth 64 between threshold-1.0 neighborhoods
about the basepoint, and the four-point delta, each on ``cli._sample`` (the
seed's own plane points, or the tree ball of radius 3).  All 100 seeds
would add about 8 s to the suite, mostly Cayley-tree orbits.

Run this file as a script (PYTHONPATH=src python tests/test_seed_hashes.py)
to rewrite seed_hashes.json from the current code; name seeds after it
(... test_seed_hashes.py 3 7) to rewrite only those.  Do that only for a
deliberate change of output, and say so where the change is described.
"""

import hashlib
import json
import sys
from pathlib import Path

from hypiso import cli, dynamics
from hypiso.combiner import SearchSchedule, check_hypotheses, resolve_witness, simultaneous_hyperbolic
from hypiso.errors import NoPassingN
from hypiso.geometry import estimate_delta_four_point
from hypiso.records import record_for_certificate
from hypiso.sampling import random_action_system
from hypiso.words import GroupWord

HASHES = Path(__file__).with_name("seed_hashes.json")
SEEDS = range(100)
DIAGNOSTIC_SEEDS = range(30)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dynamics_lines(system, seed: int) -> list[str]:
    """The N of each action's North-South check, or why it failed."""
    lines = []
    for i, action in enumerate(system.actions):
        witness, cls = resolve_witness(system, i)
        base = action.model.basepoint
        plus = dynamics.NeighborhoodSpec(cls.hyperbolic.fixed_plus, 1.0, base)
        minus = dynamics.NeighborhoodSpec(cls.hyperbolic.fixed_minus, 1.0, base)
        sample = cli._sample(action, seed, 24, 3)
        try:
            lines.append(f"ns {i} N {dynamics.ns_dynamics_check(action, witness, plus, minus, sample, 64)}")
        except (NoPassingN, ValueError) as exc:
            lines.append(f"ns {i} failed {type(exc).__name__}: {exc}")
    return lines


def delta_lines(system, seed: int) -> list[str]:
    """Each action's four-point delta, to the last bit of its float."""
    lines = []
    for i, action in enumerate(system.actions):
        sample = cli._sample(action, seed, 60, 3)
        est = estimate_delta_four_point(action.model, sample, action.model.basepoint)
        lines.append(f"delta {i} {est.delta!r} n {est.sample_size}")
    return lines


def seed_hashes(seed: int) -> dict[str, str]:
    system = random_action_system(seed)
    cert = simultaneous_hyperbolic(system, SearchSchedule(32))
    record = record_for_certificate("combine", system, cert, [("seed", str(seed))])
    classes = [
        repr(action.classify_word(GroupWord.generator(gen)))
        for action in system.actions
        for gen in system.generators
    ]
    hashes = {
        "record": _sha(record.emit()),
        "hypotheses": _sha(repr(check_hypotheses(system, 4))),
        "classes": _sha("\n".join(classes)),
    }
    if seed in DIAGNOSTIC_SEEDS:
        hashes["dynamics"] = _sha("\n".join(dynamics_lines(system, seed)))
        hashes["delta"] = _sha("\n".join(delta_lines(system, seed)))
    return hashes


def test_seed_hashes_are_pinned():
    expected = json.loads(HASHES.read_text())
    got = {str(seed): seed_hashes(seed) for seed in SEEDS}
    assert sorted(expected) == sorted(got)
    changed = [seed for seed in got if got[seed] != expected[seed]]
    assert not changed, f"seeds whose output changed: {changed}"


if __name__ == "__main__":
    seeds = [int(arg) for arg in sys.argv[1:]] or list(SEEDS)
    unknown = sorted(set(seeds) - set(SEEDS))
    if unknown:
        sys.exit(f"unknown seeds: {' '.join(map(str, unknown))}")
    pinned = json.loads(HASHES.read_text()) if sys.argv[1:] else {}
    pinned.update({str(seed): seed_hashes(seed) for seed in seeds})
    HASHES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(seeds)} seeds to {HASHES}", file=sys.stderr)
