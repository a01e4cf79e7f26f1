import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from hypiso import cli, combiner, dynamics
from hypiso.actions import Action, ActionSystem
from hypiso.cli import MAX_ORBIT_DEPTH, MAX_SAMPLE_POINTS, main
from hypiso.config import WORKED_EXAMPLE, parse_config
from hypiso.errors import ParseError, ValidationError
from hypiso.halfplane import HalfPlaneModel
from hypiso.models import MAX_ISOMETRY_SIZE
from hypiso.records import RECORD_HEADER, parse_record
from hypiso.trees import BassSerreModel, CayleyTreeModel, TreeModel
from hypiso.words import GroupWord

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

THREE_ACTION = """hypiso-config v1
generators f g
max-exponent 16
seed 0

action plane-one
model half_plane
gen f [[2, 1], [1, 1]]
gen g [[0, -1], [1, 0]]
witness f

action plane-two
model half_plane
gen f [[0, -1], [1, 0]]
gen g [[2, 1], [1, 1]]
witness g

action tree-one
model bass_serre 2 3
ball-radius 8
gen f s t
gen g s
witness f
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_worked_example():
    config = parse_config(WORKED_EXAMPLE)
    assert config.generators == ("f", "g")
    assert len(config.actions) == 2
    system = config.build()
    assert system.n_actions == 2
    assert system.witnesses[0] is not None


def test_parse_header_required():
    with pytest.raises(ParseError) as err:
        parse_config("generators f g\n")
    assert err.value.line == 1


def test_parse_error_carries_line():
    text = WORKED_EXAMPLE + "\nbogus-directive 1\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == len(text.splitlines())


def test_bad_determinant_rejected():
    text = WORKED_EXAMPLE.replace("[[2, 1], [1, 1]]", "[[2, 0], [0, 1]]", 1)
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "determinant" in str(err.value)


def test_zero_denominator_rejected():
    text = WORKED_EXAMPLE.replace("[[2, 1], [1, 1]]", "[[2/0, 1], [1, 1]]", 1)
    with pytest.raises(ValidationError):
        parse_config(text)


def test_unknown_generator_in_witness():
    text = WORKED_EXAMPLE.replace("witness f", "witness h", 1)
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "h" in str(err.value)


def test_unknown_letter_in_tree_word():
    text = THREE_ACTION.replace("gen f s t", "gen f s x")
    with pytest.raises(ValidationError):
        parse_config(text)


def test_missing_generator_image():
    text = WORKED_EXAMPLE.replace("gen g [[0, -1], [1, 0]]\n", "", 1)
    with pytest.raises(ValidationError):
        parse_config(text)


def test_ball_radius_on_plane_rejected():
    text = WORKED_EXAMPLE.replace("model half_plane", "model half_plane\nball-radius 4", 1)
    with pytest.raises(ValidationError):
        parse_config(text)


def test_cli_combine_worked_example(tmp_path, capsys):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    code = main(["combine", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "word: f^2 g^2" in out
    assert "cosh-half=7/2" in out


def test_cli_combine_records_round_trip(tmp_path, capsys):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    code = main(["combine", "--input", path, "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(RECORD_HEADER)
    record = parse_record(out)
    assert record.word == "f^2 g^2"
    assert record.emit() == out  # byte round-trip
    # verify mode accepts the record
    rec_path = write(tmp_path, "cert.rec", out)
    assert main(["combine", "--input", path, "--verify", rec_path]) == 0
    capsys.readouterr()
    # tampering with the word breaks verification with exit 2
    bad = out.replace("word f^2 g^2", "word f g")
    bad_path = write(tmp_path, "bad.rec", bad)
    assert main(["combine", "--input", path, "--verify", bad_path]) == 2
    capsys.readouterr()


def test_cli_determinism(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    main(["report", "--input", path, "--format", "records"])
    first = capsys.readouterr().out
    main(["report", "--input", path, "--format", "records"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.cfg", "not a config\n")
    assert main(["classify", "--input", path]) == 1
    capsys.readouterr()


def test_cli_validation_error_exit_1(tmp_path, capsys):
    text = WORKED_EXAMPLE.replace("[[2, 1], [1, 1]]", "[[2, 0], [0, 1]]", 1)
    path = write(tmp_path, "det.cfg", text)
    assert main(["classify", "--input", path]) == 1
    capsys.readouterr()


def test_cli_parabolic_exit_3(tmp_path, capsys):
    text = """hypiso-config v1
generators f g

action bad
model half_plane
gen f [[1, 1], [0, 1]]
gen g [[2, 1], [1, 1]]
witness g
"""
    path = write(tmp_path, "parab.cfg", text)
    assert main(["combine", "--input", path]) == 3
    err = capsys.readouterr().err
    assert "f" in err and "bad" in err


def test_cli_delta_tree_exact_zero(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    code = main(["delta", "--input", path, "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta 2 tree-one four_point exact 0" in out


def test_cli_classify_table(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    code = main(["classify", "--input", path, "--word", "f g"])
    out = capsys.readouterr().out
    assert code == 0
    assert "hyperbolic" in out and "elliptic" in out


def test_cli_dynamics(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    code = main(["dynamics", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=" in out


def test_cli_report(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    code = main(["report", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "word: f^2 g^2" in out
    assert "partition" in out


def test_cli_bad_word_flag_exit_1(tmp_path, capsys):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["classify", "--input", path, "--word", "h^2"]) == 1
    capsys.readouterr()


def test_config_comments_and_blank_lines():
    text = WORKED_EXAMPLE.replace(
        "generators f g", "generators f g   # shared alphabet\n\n# schedule\nseed 7"
    )
    config = parse_config(text)
    assert config.schedule["seed"] == 7
    assert config.build().n_actions == 2


def test_parse_record_garbage():
    with pytest.raises(ParseError):
        parse_record("not a record\n")
    with pytest.raises(ParseError):
        parse_record(RECORD_HEADER + "\nstatus ok\n")  # no command line


def test_cli_schedule_settings_flow(tmp_path, capsys):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    main(["combine", "--input", path, "--format", "records"])
    out = capsys.readouterr().out
    assert "setting max-exponent 16" in out  # config value, not builtin default
    main(["combine", "--input", path, "--format", "records", "--max-exponent", "24"])
    out = capsys.readouterr().out
    assert "setting max-exponent 24" in out  # flag overrides config


def test_cli_verify_unreadable_file_exit_1(tmp_path, capsys):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    missing = str(tmp_path / "missing.rec")
    assert main(["combine", "--input", path, "--verify", missing]) == 1
    assert f"error: cannot read {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["max-exponent", "ball-radius", "orbit-depth", "word-sample-depth"])
def test_negative_setting_in_config_exit_1(tmp_path, capsys, key):
    text = THREE_ACTION.replace("seed 0", f"seed 0\n{key} -1")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert key in str(err.value)
    path = write(tmp_path, "neg.cfg", text)
    assert main(["report", "--input", path]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-exponent", "--ball-radius", "--orbit-depth"])
def test_negative_setting_flag_exit_1(tmp_path, capsys, flag):
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    assert main(["report", "--input", path, flag, "-1"]) == 1
    assert flag[2:] in capsys.readouterr().err


def test_negative_action_ball_radius_rejected():
    with pytest.raises(ValidationError):
        parse_config(THREE_ACTION.replace("ball-radius 8", "ball-radius -1"))


def test_report_normalizes_once_per_stage(tmp_path, capsys, monkeypatch):
    # the report reads each stage's profile from the search; it does not
    # normalize the powers a second time
    calls = []
    original = combiner.normalize_powers

    def counted(*args, **kwargs):
        calls.append(len(args[3]) - 1)  # f_classes covers actions 0..stage
        return original(*args, **kwargs)

    monkeypatch.setattr(combiner, "normalize_powers", counted)
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    assert main(["report", "--input", path, "--format", "records"]) == 0
    record = parse_record(capsys.readouterr().out)
    searched = [line.split()[1] for line in record.stages if " trivial 0" in line]
    assert [str(stage) for stage in calls] == searched
    profiled = {line.split()[1] for line in record.extra if line.startswith("profile ")}
    assert profiled == {line.split()[1] for line in record.stages} - {"0"}


def test_cayley_rank_over_26_exit_1(tmp_path, capsys):
    text = THREE_ACTION.replace("model bass_serre 2 3", "model cayley_tree 27").replace("gen g s", "gen g b")
    text = text.replace("gen f s t", "gen f a b")
    with pytest.raises(ValidationError, match="rank must be <= 26"):
        parse_config(text).build()
    path = write(tmp_path, "rank27.cfg", text)
    assert main(["delta", "--input", path]) == 1
    assert "rank must be <= 26" in capsys.readouterr().err


def _no_walk(*args, **kwargs):
    raise AssertionError("walked past a cap")


@pytest.mark.parametrize("command", ["delta", "dynamics"])
def test_tree_sample_over_cap_exit_1(tmp_path, capsys, monkeypatch, command):
    # the radius-3 ball of the rank-20 Cayley tree has 60,801 vertices
    monkeypatch.setattr(TreeModel, "ball_vertices", _no_walk)
    text = THREE_ACTION.replace("model bass_serre 2 3", "model cayley_tree 20")
    text = text.replace("gen f s t", "gen f a b").replace("gen g s", "gen g b")
    path = write(tmp_path, "wide.cfg", text)
    assert main([command, "--input", path, "--ball-radius", "3"]) == 1
    err = capsys.readouterr().err
    assert "action 'tree-one'" in err and f"over the cap of {MAX_SAMPLE_POINTS}" in err


def test_plane_sample_over_cap_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_plane_points", _no_walk)
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["delta", "--input", path, "--samples", str(MAX_SAMPLE_POINTS + 1)]) == 1
    assert "over the cap" in capsys.readouterr().err


def test_samples_under_cap_pass():
    # every tree ball that delta (radius 4) or dynamics (radius 3) sampled
    # before the cap stays under it; the largest is the rank-3 radius-4 ball
    assert CayleyTreeModel(3).ball_size(4) == 937 <= MAX_SAMPLE_POINTS
    assert BassSerreModel(2, 3).ball_size(4) <= MAX_SAMPLE_POINTS


def test_word_sample_depth_over_cap_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ActionSystem, "walk", _no_walk)
    path = write(tmp_path, "deep.cfg", THREE_ACTION.replace("seed 0", "seed 0\nword-sample-depth 30"))
    assert main(["combine", "--input", path]) == 1
    assert "word-sample-depth: 30 gives over" in capsys.readouterr().err


def test_word_sample_depth_9_under_cap(monkeypatch):
    # depth 9 on three_action.cfg: 39,364 words in 3 actions, 118,092 pairs
    monkeypatch.setattr(ActionSystem, "walk", lambda self, action, depth: iter(()))
    system = parse_config(THREE_ACTION).build()
    report = combiner.check_hypotheses(system, 9)
    assert report.words_checked * system.n_actions == 118_092 <= combiner.MAX_HYPOTHESIS_PAIRS


@pytest.mark.parametrize("command", ["combine", "report"])
def test_each_word_classified_once_per_action(capsys, monkeypatch, command):
    # the hypothesis check only tags the claimed witnesses; the search
    # classifies each of them, and each candidate, once
    seen = Counter()
    original = Action.classify_word

    def counted(self, word):
        seen[self.name, word.display()] += 1
        return original(self, word)

    monkeypatch.setattr(Action, "classify_word", counted)
    assert main([command, "--input", str(CONFIGS / "three_action.cfg")]) == 0
    capsys.readouterr()
    assert seen and [pair for pair, n in seen.items() if n > 1] == []


def test_cli_dynamics_orbit_reaching_the_boundary_in_floats(capsys):
    # by depth 640 an orbit point's float coordinates equal the attracting
    # fixed point's, where the extended Gromov product is infinite
    argv = ["dynamics", "--input", str(CONFIGS / "worked_example.cfg"), "--checks", "ns"]
    assert main(argv + ["--orbit-depth", "640"]) == 0
    out = capsys.readouterr().out
    assert out.count("N=1") == 2
    assert main(argv + ["--orbit-depth", "200"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [["classify"], ["combine"], ["combine", "--format", "records"]])
def test_number_too_long_to_print_exit_1(tmp_path, capsys, argv):
    # the trace of f^12000 has over 5,000 digits
    path = write(tmp_path, "huge.cfg", WORKED_EXAMPLE.replace("witness f\n", "witness f^12000\n"))
    assert main([argv[0], "--input", path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: an exact number has over {limit} digits, the limit for printing one\n"


CAP = f"MAX_ISOMETRY_SIZE: a power passes the cap of {MAX_ISOMETRY_SIZE} on an isometry's size"


@pytest.mark.parametrize("command", ["classify", "combine"])
def test_power_past_the_size_cap_exit_1(tmp_path, capsys, command):
    # f^1000000 has entries of about 1.39 million bits; the cap stops its
    # squares at about 2^20 bits, instead of seconds of isqrt on them
    path = write(tmp_path, "huge.cfg", WORKED_EXAMPLE.replace("witness f\n", "witness f^1000000\n"))
    start = time.perf_counter()
    assert main([command, "--input", path]) == 1
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {CAP}")


def test_word_image_past_the_size_cap_exit_1(tmp_path, capsys):
    # each power is under the cap (about 486,000 bits), the image of the
    # word is not (about 971,000): the cap is checked after each syllable,
    # before seconds of classification and a number too long to print
    witness = "witness f^350000 g^2 f^350000\n"
    path = write(tmp_path, "long.cfg", WORKED_EXAMPLE.replace("witness f\n", witness))
    start = time.process_time()  # CPU time: other processes on the host do not count
    assert main(["classify", "--input", path]) == 1
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    cap = f"MAX_ISOMETRY_SIZE: a word's image passes the cap of {MAX_ISOMETRY_SIZE} on an isometry's size"
    assert captured.out == "" and captured.err.startswith(f"error: {cap}")


def test_cayley_image_past_the_size_cap_exit_1(tmp_path, capsys):
    text = "hypiso-config v1\ngenerators f g\n\naction t\nmodel cayley_tree 2\ngen f a^100000000\ngen g b\n"
    assert main(["combine", "--input", write(tmp_path, "cayley.cfg", text)]) == 1
    cap = f"the word passes the cap of {MAX_ISOMETRY_SIZE} letters (MAX_ISOMETRY_SIZE)"
    assert capsys.readouterr().err == f"error: action 't' gen f: {cap}\n"
    cayley, half = CayleyTreeModel(2), MAX_ISOMETRY_SIZE // 2
    assert len(cayley.parse_word(f"a^{half} b^{half}").payload) == MAX_ISOMETRY_SIZE
    with pytest.raises(ValueError, match="MAX_ISOMETRY_SIZE"):
        cayley.parse_word(f"a^{half} b^{half} a")


def test_finite_order_power_passes_the_size_cap():
    system = parse_config(WORKED_EXAMPLE).build()
    plane_one = system.actions[0]  # g has order 2 there; f is hyperbolic
    assert plane_one.image(GroupWord.parse("g^1000001")) == plane_one.images["g"]
    assert plane_one.model.power(plane_one.images["g"], 10**100).payload.is_proj_identity()
    with pytest.raises(ValidationError, match="MAX_ISOMETRY_SIZE"):
        plane_one.image(GroupWord.parse("f^1000000"))
    bass_serre = BassSerreModel(2, 3)
    rotation = bass_serre.parse_word("s t " * 1000 + "s " + "t^-1 s " * 1000)  # conjugate of s
    assert bass_serre.power(rotation, 10**9) == bass_serre.identity()
    cayley = CayleyTreeModel(1)
    assert len(cayley.power(cayley.parse_word("a"), MAX_ISOMETRY_SIZE).payload) == MAX_ISOMETRY_SIZE
    with pytest.raises(ValidationError):
        cayley.power(cayley.parse_word("a"), MAX_ISOMETRY_SIZE + 1)


def test_one_action_system_per_run(tmp_path, capsys, monkeypatch):
    # parse_config builds the system it validates, and build() returns it
    built = []
    original = ActionSystem.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ActionSystem, "__post_init__", counted)
    config = parse_config(THREE_ACTION)
    assert config.build() is config.build() and len(built) == 1
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    for argv in (["combine"], ["delta", "--ball-radius", "2"], ["dynamics", "--ball-radius", "2"]):
        built.clear()
        assert main([argv[0], "--input", path, *argv[1:]]) == 0
        assert len(built) == 1
    capsys.readouterr()


def test_dynamics_projection_builds_each_orbit_once(capsys, monkeypatch):
    # per action, one image resolves the witness and one builds its orbit
    # {f^n x : |n| <= 8}, 16 steps, shared by the 10 sample points
    images, steps = Counter(), Counter()
    image, apply = Action.image, HalfPlaneModel.apply

    def counted_image(self, word):
        images[self.name] += 1
        return image(self, word)

    def counted_apply(self, iso, p):
        steps["plane"] += 1
        return apply(self, iso, p)

    monkeypatch.setattr(Action, "image", counted_image)
    monkeypatch.setattr(HalfPlaneModel, "apply", counted_apply)
    assert main(["dynamics", "--input", str(CONFIGS / "three_action.cfg"), "--checks", "projection"]) == 0
    capsys.readouterr()
    assert images == {"plane-one": 2, "plane-two": 2, "tree-one": 2}
    assert steps["plane"] == 32


def test_orbit_depth_over_cap_exit_1(capsys, monkeypatch):
    # test_cli_dynamics_orbit_reaching_the_boundary_in_floats runs at 640
    assert MAX_ORBIT_DEPTH >= 640
    for name in ("ns_dynamics_check", "orbit_points"):
        monkeypatch.setattr(dynamics, name, _no_walk)
    monkeypatch.setattr(cli, "resolve_witness", _no_walk)
    depth = MAX_ORBIT_DEPTH + 1
    argv = ["dynamics", "--input", str(CONFIGS / "worked_example.cfg"), "--orbit-depth", str(depth)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: orbit-depth: {depth} is over the cap of {MAX_ORBIT_DEPTH}\n"


TREES_ONLY = """hypiso-config v1
generators f g

action tree-one
model bass_serre 2 3
ball-radius 2
gen f s t
gen g s
witness f
"""


def test_negative_ball_radius_flag_rejected_when_every_action_sets_its_own(tmp_path, capsys):
    path = write(tmp_path, "trees.cfg", TREES_ONLY)
    assert main(["delta", "--input", path]) == 0
    capsys.readouterr()
    assert main(["delta", "--input", path, "--ball-radius", "-1"]) == 1
    assert capsys.readouterr().err == "error: ball-radius: must be >= 0, got -1\n"
    # the ball radii are range-checked before the other settings
    assert main(["combine", "--input", path, "--ball-radius", "-1", "--max-exponent", "-2"]) == 1
    assert capsys.readouterr().err == "error: ball-radius: must be >= 0, got -1\n"


def test_bare_witness_line_is_a_parse_error(tmp_path, capsys):
    text = WORKED_EXAMPLE.replace("witness f\n", "witness\n", 1)
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == 8
    path = write(tmp_path, "bare.cfg", text)
    assert main(["combine", "--input", path]) == 1
    assert capsys.readouterr().err == "error: line 8, col 1: witness line needs a word\n"


# (replaced text, its replacement) in WORKED_EXAMPLE -> the position or
# field the error names, then its message
CONFIG_ERRORS = [
    ("generators f g", "generators", "line 2, col 1: generators line needs at least one name"),
    ("generators f g", "generators f g\nbogus 1", "line 3, col 1: unexpected directive 'bogus' before any action"),
    ("generators f g\n", "", "line 13, col 1: missing generators line"),
    (WORKED_EXAMPLE[WORKED_EXAMPLE.index("action"):], "", "line 3, col 1: config defines no actions"),
    ("generators f g", "generators f g\nseed 1 2", "line 3, col 1: seed expects 1 argument(s)"),
    ("generators f g", "generators f g\nseed x", "line 3, col 1: expected an integer, got 'x'"),
    ("model half_plane", "model", "line 5, col 1: model line needs a kind"),
    ("gen g [[0, -1], [1, 0]]", "gen g", "line 7, col 1: gen line needs a name and an image"),
    ("[[2, 1], [1, 1]]", "[[2, 1], [1]]", "action 'plane-one' gen f: matrix needs 4 entries, got 3"),
    ("model half_plane", "model half_plane 3", "action 'plane-one' model: half_plane takes no parameters"),
    ("model half_plane", "model bass_serre 2", "action 'plane-one' model: bass_serre needs two factor orders"),
    ("model half_plane", "model cayley_tree", "action 'plane-one' model: cayley_tree needs a rank"),
    ("model half_plane", "model sphere", "action 'plane-one' model: unknown model kind 'sphere'"),
    ("model half_plane\n", "", "action 'plane-one': missing model line"),
    ("witness f", "gen h [[2, 1], [1, 1]]\nwitness f", "action 'plane-one': image given for unknown generator 'h'"),
]


@pytest.mark.parametrize("old, new, message", CONFIG_ERRORS)
def test_config_error_names_its_place(tmp_path, capsys, old, new, message):
    path = write(tmp_path, "bad.cfg", WORKED_EXAMPLE.replace(old, new, 1))
    assert main(["combine", "--input", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# a record edit -> exit code of combine --verify, and what it prints
RECORD_ERRORS = [
    (("exit-code 0", "exit-code x"), 1, "err", "error: line 4, col 1: bad exit code 'x'\n"),
    (("word f^2 g^2\n", ""), 2, "out", "verification: FAILED\n  record carries no word\n"),
    (("word f^2 g^2", "word f h"), 2, "out", "  bad word: "),
    (("witness 1 ", "note 1 "), 2, "out", "  record lists 1 witnesses, system has 2 actions\n"),
]


@pytest.mark.parametrize("edit, code, stream, message", RECORD_ERRORS)
def test_record_error_names_its_place(tmp_path, capsys, edit, code, stream, message):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["combine", "--input", path, "--format", "records"]) == 0
    record = capsys.readouterr().out
    assert edit[0] in record
    rec_path = write(tmp_path, "edited.rec", record.replace(*edit, 1))
    assert main(["combine", "--input", path, "--verify", rec_path]) == code
    assert message in getattr(capsys.readouterr(), stream)
