"""Self-tests for the benchmark harness: statistics, calibration, oracles
and the chain generator.  Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402

F = Fraction


# -- the tail rule -------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, pct = calib.tail(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [40, 41, 57, 200])
def test_tail_never_below_p50(n):
    rng = random.Random(n)
    for _ in range(50):
        samples = [rng.lognormvariate(0, 2) for _ in range(n)]
        value, _ = calib.tail(samples)
        assert value >= calib.p50(samples)


def test_tail_refuses_fewer_than_40_samples():
    with pytest.raises(calib.TooFewSamples):
        calib.tail([1.0] * 39)


# -- calibration ---------------------------------------------------------------------


def test_calibration_scales_to_the_nominal_host():
    clock = calib.Calibrated(nominal_us=20.0)
    # the host runs at half the nominal speed: the kernel takes 40 us
    inside = [40e-6] * calib.MIN_PROBES
    assert clock.scale(0.100, inside, [10e-6] * 8) == pytest.approx(0.050)
    # too few probes inside the operation: the probes around it count too
    assert clock.scale(0.090, [40e-6], [20e-6, 60e-6]) == pytest.approx(0.045)


def test_probes_run_inside_a_long_operation():
    calls = []
    clock = calib.Calibrated(kernel=lambda: calls.append(1), nominal_us=1.0, interval_s=0.001)

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        return 7

    out, cal, net = clock.time(busy)
    assert out == 7
    assert len(calls) > 2 * calib.BRACKET + calib.MIN_PROBES
    assert 0 < net < 0.06 and cal > 0
    assert len(clock.kernel_samples) == len(calls)


# -- oracles against hand-worked values ------------------------------------------------


def worked_example():
    return gen.read_config((ROOT / "configs" / "worked_example.cfg").read_text())


def test_plane_oracle_worked_example_f2_g2():
    spec = worked_example()
    word = oracles.parse_word("f^2 g^2")
    for action in spec.actions:
        m = oracles.plane_image(action.images, word)
        assert m[0] + m[3] == -7
        assert oracles.classify(action, word) == ("hyperbolic", "cosh-half=7/2")


def test_plane_oracle_tags():
    assert oracles.plane_tag((F(1), F(1), F(0), F(1))) == "parabolic"
    assert oracles.plane_tag((F(-1), F(0), F(0), F(-1))) == "elliptic"
    assert oracles.plane_tag((F(0), F(-1), F(1), F(0))) == "elliptic"
    assert oracles.plane_tag((F(2), F(1), F(1), F(1))) == "hyperbolic"


def test_plane_fixed_points():
    # [[2, 1], [1, 1]] fixes (1 +- sqrt 5)/2; the + root attracts
    m = (F(2), F(1), F(1), F(1))
    assert oracles.plane_fixed_point_problems(m, "quad:1/2;1/2;5", "quad:1/2;-1/2;5") == []
    assert oracles.plane_fixed_point_problems(m, "quad:1/2;-1/2;5", "quad:1/2;1/2;5") != []
    assert oracles.plane_fixed_point_problems(m, "quad:1/2;1/2;5", "rat:0") != []
    # diag(2, 1/2) attracts towards infinity and repels from 0
    d = (F(2), F(0), F(0), F(1, 2))
    assert oracles.plane_fixed_point_problems(d, "inf", "rat:0") == []


def test_parabolic_count():
    # f = [[1, 1], [0, 1]]: every nonzero power of f is parabolic
    f = (F(1), F(1), F(0), F(1))
    assert oracles.parabolic_count([f], 3) == 6
    assert oracles.parabolic_count([(F(2), F(1), F(1), F(1))], 3) == 0


def test_cayley_oracle():
    images = {"f": (1, 2), "g": (-2, -1)}  # g = f^-1
    assert oracles.cayley_image(images, oracles.parse_word("f g")) == ()
    assert oracles.cayley_tau(images, oracles.parse_word("f^3")) == 6
    conj = {"f": (1, 2, -1), "g": (1,)}  # a b a^-1 has cyclic length 1
    assert oracles.cayley_tau(conj, oracles.parse_word("f")) == 1
    # a b a^-1 . a^-1 = a b a^-2 is conjugate to b a^-1
    assert oracles.cayley_tau(conj, oracles.parse_word("f g^-1")) == 2
    assert oracles.cayley_tau(conj, oracles.parse_word("f f^-1")) == 0


def test_bass_serre_oracle():
    orders = (2, 3)
    images = {"f": ((0, 1), (1, 1)), "g": ((0, 1),)}  # three_action.cfg tree-one
    assert oracles.bs_tau(images, oracles.parse_word("f"), orders) == 2
    assert oracles.bs_tau(images, oracles.parse_word("f^2 g^2"), orders) == 4
    assert oracles.bs_tau(images, oracles.parse_word("g"), orders) == 1  # elliptic
    # t s t^-1 is conjugate into <s>: cyclic syllable length 1
    assert oracles.bs_cyclic_length(((1, 1), (0, 1), (1, 2)), orders) == 1
    assert oracles.bs_reduce(((1, 1), (1, 2), (0, 3)), orders) == ((0, 1),)


def test_reduced_word_count():
    assert oracles.reduced_word_count(2, 3) == 4 + 12 + 36
    assert oracles.reduced_word_count(2, 6) == 1456


def test_certificate_problems_and_altered_record():
    spec = worked_example()
    record = (
        "hypiso-record v1\ncommand combine\nstatus ok\nexit-code 0\nword f^2 g^2\n"
        "stage 0 plane-one a 1 b 0 p 1 q 1 index - tried 0 trivial 1\n"
        "stage 1 plane-two a 1 b 1 p 2 q 2 index 0 tried 1 trivial 0\n"
        "witness 0 plane-one half_plane hyperbolic cosh-half=7/2 plus=quad:1/2;1/6;45 minus=quad:1/2;-1/6;45\n"
        "witness 1 plane-two half_plane hyperbolic cosh-half=7/2 plus=quad:1/2;1/6;45 minus=quad:1/2;-1/6;45\n"
        "end\n"
    )
    assert oracles.certificate_problems(spec, record, 32) == []
    assert oracles.certificate_problems(spec, record, 0) != []  # a = 1 > 0
    altered = oracles.alter_witness(record)
    assert "cosh-half=9/2" in altered
    assert oracles.certificate_problems(spec, altered, 32) != []


# -- generator and config text -----------------------------------------------------------


def test_config_text_round_trip():
    spec = gen.read_config((ROOT / "configs" / "three_action.cfg").read_text())
    assert [a.kind for a in spec.actions] == ["half_plane", "half_plane", "bass_serre"]
    again = gen.read_config(gen.write_config(spec))
    assert again == spec


def test_chain_system_shape():
    k = 6
    spec = gen.chain_system(k, random.Random(3))
    assert spec.generators == tuple(f"g{i + 1}" for i in range(k))
    for i, action in enumerate(spec.actions):
        assert action.witness == f"g{i + 1}"
        for j, g in enumerate(spec.generators):
            tag, _ = oracles.classify(action, [(g, 1)])
            assert tag == ("hyperbolic" if j == i else "elliptic")
        if action.kind == "half_plane":
            assert oracles.parabolic_count([action.images[g] for g in spec.generators], 2) == 0
    assert gen.read_config(gen.write_config(spec)) == spec


def test_symmetric_copy_keeps_every_classification():
    base = gen.read_config((ROOT / "configs" / "three_action.cfg").read_text())
    base.actions.append(gen.ActionSpec("free", "cayley_tree", (2,), {"f": (1, 2), "g": (2,)}, "f"))
    spec = gen.symmetric_copy(base, random.Random(5))
    assert spec != base
    for text in ("f", "g", "f^2 g^2", "f g^-1", "g^3"):
        word = oracles.parse_word(text)
        for a, b in zip(base.actions, spec.actions):
            assert oracles.classify(a, word) == oracles.classify(b, word)
