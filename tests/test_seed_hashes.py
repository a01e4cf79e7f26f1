"""Byte identity on the seeded random systems: for random_action_system
seeds 0-99, the sha256 of the combine record, of the depth-4 hypothesis
report and of the generator classes (elliptic witnesses included) is
pinned in seed_hashes.json.

Run this file as a script (PYTHONPATH=src python tests/test_seed_hashes.py)
to rewrite seed_hashes.json from the current code; name seeds after it
(... test_seed_hashes.py 3 7) to rewrite only those.  Do that only for a
deliberate change of output, and say so where the change is described.
"""

import hashlib
import json
import sys
from pathlib import Path

from hypiso.combiner import SearchSchedule, check_hypotheses, simultaneous_hyperbolic
from hypiso.records import record_for_certificate
from hypiso.sampling import random_action_system
from hypiso.words import GroupWord

HASHES = Path(__file__).with_name("seed_hashes.json")
SEEDS = range(100)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seed_hashes(seed: int) -> dict[str, str]:
    system = random_action_system(seed)
    cert = simultaneous_hyperbolic(system, SearchSchedule(32))
    record = record_for_certificate("combine", system, cert, [("seed", str(seed))])
    classes = [
        repr(action.classify_word(GroupWord.generator(gen)))
        for action in system.actions
        for gen in system.generators
    ]
    return {
        "record": _sha(record.emit()),
        "hypotheses": _sha(repr(check_hypotheses(system, 4))),
        "classes": _sha("\n".join(classes)),
    }


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
