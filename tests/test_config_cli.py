import argparse
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from hypiso import cli, combiner, dynamics, geometry, sampling
from hypiso.actions import Action, ActionSystem
from hypiso.cli import MAX_ORBIT_DEPTH, MAX_PRINT_DIGITS, MAX_SAMPLE_POINTS, main
from hypiso.config import parse_config
from hypiso.errors import ParseError, ValidationError
from hypiso.geometry import PlaneGeometry, TreeGeometry, lab
from hypiso.halfplane import HalfPlaneModel
from hypiso.models import MAX_ISOMETRY_SIZE
from hypiso.records import RECORD_HEADER, parse_record
from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord

from reference import power

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
WORKED_EXAMPLE = (CONFIGS / "worked_example.cfg").read_text()

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
    assert str(err.value).startswith("line 1, col 1: ")


def test_parse_error_carries_line():
    text = WORKED_EXAMPLE + "\nbogus-directive 1\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert str(err.value).startswith(f"line {len(text.splitlines())}, col 1: ")


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


def test_record_body_keeps_its_order(tmp_path, capsys):
    # a record keeps its body lines in file order: a combine record whose
    # stats line sits before its witness lines emits back byte for byte and
    # still verifies
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["combine", "--input", path, "--format", "records"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    [stats] = [line for line in lines if line.startswith("stats ")]
    first_witness = next(i for i, line in enumerate(lines) if line.startswith("witness "))
    lines.remove(stats)
    lines.insert(first_witness, stats)
    moved = "".join(lines)
    assert parse_record(moved).emit() == moved
    rec_path = write(tmp_path, "moved.rec", moved)
    assert main(["combine", "--input", path, "--verify", rec_path]) == 0
    assert "verification: ok" in capsys.readouterr().out


def test_classify_dynamics_and_verify_load_no_numpy(tmp_path, capsys):
    # numpy serves the hypothesis check past depth 1 and the delta estimate,
    # which none of these commands runs: a cold process never imports it.
    # classify and combine --verify load no part of the geometry lab either
    path = str(CONFIGS / "three_action.cfg")
    assert main(["combine", "--input", path, "--format", "records"]) == 0
    rec_path = write(tmp_path, "cert.rec", capsys.readouterr().out)
    depth_1 = write(tmp_path, "depth1.cfg", THREE_ACTION.replace("seed 0", "seed 0\nword-sample-depth 1"))
    code = (
        "import sys\n"
        "from hypiso.cli import main\n"
        f"assert main(['classify', '--input', {path!r}]) == 0\n"
        f"assert main(['combine', '--input', {path!r}, '--verify', {rec_path!r}]) == 0\n"
        "lab = [m for m in ('hypiso.dynamics', 'hypiso.geometry', 'hypiso.sampling') if m in sys.modules]\n"
        "assert lab == [], lab\n"
        f"assert main(['dynamics', '--input', {path!r}]) == 0\n"
        f"assert main(['combine', '--input', {depth_1!r}]) == 0\n"
        f"assert main(['report', '--input', {depth_1!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, stdout=subprocess.DEVNULL)


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


def test_cached_parser_keeps_no_word_between_calls(tmp_path, capsys):
    # --word appends to a default list: a later call must not see the earlier words
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    assert main(["classify", "--input", path]) == 0
    plain = capsys.readouterr().out
    assert main(["classify", "--input", path, "--word", "f g"]) == 0
    assert capsys.readouterr().out.count("'f g'") == 3
    assert main(["classify", "--input", path]) == 0
    assert capsys.readouterr().out == plain


def test_cached_parser_survives_a_flag_error(tmp_path, capsys):
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["combine", "--input", path]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["combine", "--input", path, "--format", "yaml"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["combine", "--input", path]) == 0
    assert capsys.readouterr().out == first


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    for command in ("classify", "combine", "report", "classify", "combine"):
        assert main([command, "--input", path]) == 0
    capsys.readouterr()
    assert built.count("hypiso") == 1


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


def test_cli_non_utf8_file_exit_1(tmp_path, capsys):
    # a config or a record is read as UTF-8 whatever the locale: a byte 0xff
    # in either exits 1 with the codec's message, and CRLF line ends read as
    # LF ones, byte for byte
    good = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["combine", "--input", good, "--format", "records"]) == 0
    record = capsys.readouterr().out
    codec = "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"
    for name, text in (("bad.cfg", WORKED_EXAMPLE), ("bad.rec", record)):
        bad = tmp_path / name
        bad.write_bytes(text[:3].encode() + b"\xff" + text[3:].encode())
        argv = ["--input", str(bad)] if name == "bad.cfg" else ["--input", good, "--verify", str(bad)]
        assert main(["combine", *argv]) == 1
        assert capsys.readouterr().err == f"error: cannot read {bad}: {codec}\n"
    crlf_cfg, crlf_rec = tmp_path / "crlf.cfg", tmp_path / "crlf.rec"
    crlf_cfg.write_bytes(WORKED_EXAMPLE.replace("\n", "\r\n").encode())
    crlf_rec.write_bytes(record.replace("\n", "\r\n").encode())
    assert main(["combine", "--input", str(crlf_cfg), "--format", "records"]) == 0
    assert capsys.readouterr().out == record
    verified = []
    for rec in (write(tmp_path, "lf.rec", record), str(crlf_rec)):
        assert main(["combine", "--input", good, "--verify", rec]) == 0
        verified.append(capsys.readouterr())
    assert verified[0] == verified[1]


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
        calls.append(len(args[1]) - 1)  # f_classes covers actions 0..stage
        return original(*args, **kwargs)

    monkeypatch.setattr(combiner, "normalize_powers", counted)
    path = write(tmp_path, "three.cfg", THREE_ACTION)
    assert main(["report", "--input", path, "--format", "records"]) == 0
    record = parse_record(capsys.readouterr().out)
    stages = [line for line in record.lines if line.startswith("stage ")]
    searched = [line.split()[1] for line in stages if " trivial 0" in line]
    assert [str(stage) for stage in calls] == searched
    profiled = {line.split()[1] for line in record.lines if line.startswith("profile ")}
    assert profiled == {line.split()[1] for line in stages} - {"0"}


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
    monkeypatch.setattr(TreeGeometry, "ball_vertices", _no_walk)
    text = THREE_ACTION.replace("model bass_serre 2 3", "model cayley_tree 20")
    text = text.replace("gen f s t", "gen f a b").replace("gen g s", "gen g b")
    path = write(tmp_path, "wide.cfg", text)
    assert main([command, "--input", path, "--ball-radius", "3"]) == 1
    err = capsys.readouterr().err
    assert "action 'tree-one'" in err and f"over the cap of {MAX_SAMPLE_POINTS}" in err


def test_plane_sample_over_cap_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "sample_plane_points", _no_walk)
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    assert main(["delta", "--input", path, "--samples", str(MAX_SAMPLE_POINTS + 1)]) == 1
    assert "over the cap" in capsys.readouterr().err


def test_negative_samples_exit_1_before_sampling(tmp_path, capsys, monkeypatch):
    # a negative --samples is refused before any point is sampled, while 0
    # to 2 points are sampled and are too few for the four-point condition
    path = write(tmp_path, "worked.cfg", WORKED_EXAMPLE)
    for samples, message in ((0, "need >= 3 points, got 0"), (2, "need >= 3 points, got 2")):
        assert main(["delta", "--input", path, "--samples", str(samples)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setattr(sampling, "sample_plane_points", _no_walk)
    assert main(["delta", "--input", path, "--samples", "-5"]) == 1
    assert capsys.readouterr().err == "error: --samples: must be >= 0, got -5\n"


def test_samples_under_cap_pass():
    # every tree ball that delta (radius 4) or dynamics (radius 3) sampled
    # before the cap stays under it; the largest is the rank-3 radius-4 ball
    assert lab(CayleyTreeModel(3)).ball_size(4) == 937 <= MAX_SAMPLE_POINTS
    assert lab(BassSerreModel(2, 3)).ball_size(4) <= MAX_SAMPLE_POINTS


def test_delta_and_dynamics_build_one_lab_per_action(monkeypatch, capsys):
    # each command builds an action's lab once and hands it to the sample and
    # to every check it runs there: 3 labs for the 3 actions of three_action.cfg
    built = []
    monkeypatch.setattr(geometry, "lab", lambda model: built.append(model) or lab(model))
    for command in ("delta", "dynamics"):
        built.clear()
        assert main([command, "--input", str(CONFIGS / "three_action.cfg")]) == 0
        assert len(built) == 3, command
    capsys.readouterr()


def test_word_sample_depth_over_cap_exit_1(tmp_path, capsys, monkeypatch):
    # refused before the word tree is built or any level tagged
    monkeypatch.setattr(combiner, "word_tree", _no_walk)
    monkeypatch.setattr(HalfPlaneModel, "parabolic_words", _no_walk)
    path = write(tmp_path, "deep.cfg", THREE_ACTION.replace("seed 0", "seed 0\nword-sample-depth 30"))
    assert main(["combine", "--input", path]) == 1
    assert "word-sample-depth: 30 gives over" in capsys.readouterr().err


def test_word_sample_depth_9_under_cap():
    # depth 9 on three_action.cfg: 39,364 words in 3 actions, 118,092 pairs
    system = parse_config(THREE_ACTION).build()
    report = combiner.check_hypotheses(system, 9)
    assert report.words_checked * system.n_actions == 118_092 <= combiner.MAX_HYPOTHESIS_PAIRS


def test_one_generator_depth_checks_level_zero(tmp_path, capsys, monkeypatch):
    # with one generator the pair cap admits depths past 100,000, and every
    # word is a power of f: the check asks the plane for level 0 alone, so
    # neither a 301-digit hyperbolic at depth 8,000 nor a small one at the
    # cap's last depth multiplies f^n (a full walk took 12-38 s on them)
    big = 2**300
    asked = []
    hook = HalfPlaneModel.parabolic_words
    monkeypatch.setattr(HalfPlaneModel, "parabolic_words",
                        lambda self, gens, tree: asked.append(len(tree)) or hook(self, gens, tree))
    for depth, f in ((8000, f"[[{big}, 1], [{big - 1}, 1]]"), (124_999, "[[2, 1], [1, 1]]")):
        text = f"hypiso-config v1\ngenerators f\nword-sample-depth {depth}\n\naction plane\nmodel half_plane\n"
        text += f"gen f {f}\n"
        assert main(["combine", "--input", write(tmp_path, "one.cfg", text)]) == 0
    assert asked == [1, 1]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["combine", "report"])
def test_each_word_classified_once_per_action(capsys, monkeypatch, command):
    # the hypothesis check only tags the claimed witnesses; the search
    # classifies the image of each of them, and of each candidate, once
    seen = Counter()
    for model_class in (HalfPlaneModel, BassSerreModel, CayleyTreeModel):

        def counted(self, iso, original=model_class.classify):
            seen[id(self), iso.payload] += 1
            return original(self, iso)

        monkeypatch.setattr(model_class, "classify", counted)
    assert main([command, "--input", str(CONFIGS / "three_action.cfg")]) == 0
    capsys.readouterr()
    assert seen and [pair for pair, n in seen.items() if n > 1] == []


def test_cli_dynamics_orbit_reaching_the_boundary_in_floats(capsys):
    # by depth 640 an orbit point's float coordinates equal the attracting
    # fixed point's, where the extended Gromov product is infinite; ns stops
    # at its Busemann floor well before, at either depth
    argv = ["dynamics", "--input", str(CONFIGS / "worked_example.cfg"), "--checks", "ns"]
    assert main(argv + ["--orbit-depth", "640"]) == 0
    out = capsys.readouterr().out
    assert out.count("N=1") == 2
    assert main(argv + ["--orbit-depth", "200"]) == 0
    assert capsys.readouterr().out == out


def test_cli_dynamics_depth_1000_with_infinity_attracting(tmp_path, capsys):
    # f = diag(2, 1/2) attracts to infinity, where an orbit's y grows fourfold
    # a step and its integer ratios leave float range near step 512: ns stops
    # at its Busemann floor before, with no traceback
    text = WORKED_EXAMPLE.replace("gen f [[2, 1], [1, 1]]", "gen f [[2, 0], [0, 1/2]]")
    path = write(tmp_path, "diagonal.cfg", text)
    argv = ["dynamics", "--input", path, "--orbit-depth", "1000", "--checks", "ns", "--format", "records"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "ns 0 plane-one N 1" in captured.out.splitlines() and captured.err == ""


@pytest.mark.parametrize("checks", ["nss", "ns,insize,projection,separation", "ns, Insize"])
def test_dynamics_unknown_check_exit_1(capsys, checks):
    # a misspelt check is an error naming --checks, not a run of no check
    argv = ["dynamics", "--input", str(CONFIGS / "three_action.cfg"), "--checks", checks]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    unknown = checks.split(",")[-1].strip()
    assert captured.err == (
        f"error: --checks: unknown check {unknown!r}; the checks are ns, insize, projection\n"
    )


@pytest.mark.parametrize("argv", [["classify"], ["combine"], ["combine", "--format", "records"]])
def test_number_too_long_to_print_exit_1(tmp_path, capsys, argv):
    # the trace of f^12000 has over 5,000 digits
    path = write(tmp_path, "huge.cfg", WORKED_EXAMPLE.replace("witness f\n", "witness f^12000\n"))
    assert main([argv[0], "--input", path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an exact number has over {MAX_PRINT_DIGITS} digits, the limit for printing one\n"


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


JUNCTION = """hypiso-config v1
generators z x y u w

action plane
model half_plane
gen z [[1, 0], [0, 1]]
gen x [[2, 1], [1, 1]]
gen y [[1, -1], [-1, 2]]
gen u [[1, -1], [-1, 2]]
gen w [[-6, -1], [1, 0]]
witness z x^250000

action tree
model bass_serre 2 3
gen z 1
gen x 1
gen y 1
gen u 1
gen w s t
witness x^250000 y^250000 u^250000 w
"""


def test_search_keeps_the_checker_cap_at_the_junction(tmp_path, capsys):
    # the search images f g as F G = x^250000 x^-250000 w in the plane, under
    # the cap; the word flattens to z x^500000 y^250000 u^250000 w, whose
    # x^500000 the checker cannot image.  combine must fail as --verify would
    path = write(tmp_path, "junction.cfg", JUNCTION)
    assert main(["combine", "--input", path, "--format", "records"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {CAP}")


EDGE = """hypiso-config v1
generators x y w

action line
model cayley_tree 1
gen x a^10
gen y a^-10
gen w a
witness x^26500

action tree
model bass_serre 2 3
gen x 1
gen y 1
gen w s t
witness x^26500 y^1000 w
"""


def test_search_keeps_the_checker_cap_within_twice_the_cap(tmp_path, capsys):
    # the search images f g as a^265000 a^255001 = a^520001 on the line, under
    # the cap; the word flattens to x^53000 y^1000 w, whose a-priori bound,
    # 11 units a letter, lies in (cap, 2 cap], and whose x^53000 the checker
    # cannot image (a^530000).  A 10-unit generator's powers reach 10/11 of
    # their bound, so only the image, not twice the cap, decides
    system = parse_config(EDGE).build()
    line = system.actions[0]
    f, g = system.witnesses
    search = line.model.compose(line.image(f), line.image(g))
    assert line.model.size(search) <= MAX_ISOMETRY_SIZE
    word = f * g
    bound = sum(abs(e) * (line._sizes[gen] + 1) for gen, e in word.syllables) - 1
    assert MAX_ISOMETRY_SIZE < bound <= 2 * MAX_ISOMETRY_SIZE
    with pytest.raises(ValidationError, match="MAX_ISOMETRY_SIZE"):
        line.image(word)
    path = write(tmp_path, "edge.cfg", EDGE)
    assert main(["combine", "--input", path, "--format", "records"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {CAP}")


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
    assert power(plane_one.model, plane_one.images["g"], 10**100).payload.is_proj_identity()
    with pytest.raises(ValidationError, match="MAX_ISOMETRY_SIZE"):
        plane_one.image(GroupWord.parse("f^1000000"))
    bass_serre = BassSerreModel(2, 3)
    rotation = bass_serre.parse_word("s t " * 1000 + "s " + "t^-1 s " * 1000)  # conjugate of s
    assert power(bass_serre, rotation, 10**9) == bass_serre.identity()
    cayley = CayleyTreeModel(1)
    assert len(power(cayley, cayley.parse_word("a"), MAX_ISOMETRY_SIZE).payload) == MAX_ISOMETRY_SIZE
    with pytest.raises(ValidationError):
        power(cayley, cayley.parse_word("a"), MAX_ISOMETRY_SIZE + 1)


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
    # per action, one image resolves the witness, and its orbit
    # {f^n x : |n| <= 8}, 16 steps, is built from that image once and
    # shared by the 10 sample points
    images, steps = Counter(), Counter()
    image, apply = Action.image, PlaneGeometry.apply

    def counted_image(self, word):
        images[self.name] += 1
        return image(self, word)

    def counted_apply(self, iso, p):
        steps["plane"] += 1
        return apply(self, iso, p)

    monkeypatch.setattr(Action, "image", counted_image)
    monkeypatch.setattr(PlaneGeometry, "apply", counted_apply)
    assert main(["dynamics", "--input", str(CONFIGS / "three_action.cfg"), "--checks", "projection"]) == 0
    capsys.readouterr()
    assert images == {"plane-one": 1, "plane-two": 1, "tree-one": 1}
    assert steps["plane"] == 32


def test_dynamics_images_each_witness_once(capsys, monkeypatch):
    # every check (ns, insize, projection) reads the one image that
    # resolves the action's witness
    images = Counter()
    image = Action.image

    def counted_image(self, word):
        images[self.name, word.display()] += 1
        return image(self, word)

    monkeypatch.setattr(Action, "image", counted_image)
    assert main(["dynamics", "--input", str(CONFIGS / "three_action.cfg")]) == 0
    capsys.readouterr()
    assert images == {("plane-one", "f"): 1, ("plane-two", "g"): 1, ("tree-one", "f"): 1}


def test_orbit_depth_over_cap_exit_1(capsys, monkeypatch):
    # test_cli_dynamics_orbit_reaching_the_boundary_in_floats runs at 640
    assert MAX_ORBIT_DEPTH >= 640
    for name in ("ns_dynamics_check", "orbit_projection"):
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
    assert str(err.value).startswith("line 8, col 1: ")
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
    ("witness f", "witness f^", "action 'plane-one' witness: invalid literal for int() with base 10: ''"),
    ("generators f g", "generators f g f", "generators: duplicate generator names"),
    (WORKED_EXAMPLE, WORKED_EXAMPLE.replace(" f ", " f^2 ").replace("witness f\n", "witness g\n"),
     "generators: generator name 'f^2' cannot be written in a word"),
    ("model half_plane", "model cayley_tree 0", "action 'plane-one' model: rank must be >= 1"),
    ("model half_plane", "model bass_serre 1 3", "action 'plane-one' model: factor orders must be >= 2"),
]


@pytest.mark.parametrize("old, new, message", CONFIG_ERRORS)
def test_config_error_names_its_place(tmp_path, capsys, old, new, message):
    path = write(tmp_path, "bad.cfg", WORKED_EXAMPLE.replace(old, new, 1))
    assert main(["combine", "--input", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_parabolic_check_lists_at_most_max_listed_violations(tmp_path, capsys):
    # one parabolic generator: every power f^n up to the depth is a violation,
    # 249,998 words, of which the first MAX_LISTED are listed and the rest counted
    path = write(tmp_path, "parabolic.cfg", "hypiso-config v1\ngenerators f\nword-sample-depth 124999\n"
                 "action one\nmodel half_plane\ngen f [[1, 1], [0, 1]]\n")
    assert main(["combine", "--input", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == cli.MAX_LISTED + 1 == 51
    assert err[:3] == [f"hypothesis violation: word {w!r} in action 0 (one)" for w in ("f", "f^-1", "f^2")]
    assert err[-1] == "hypothesis violation: 249948 more words not listed"
    assert main(["combine", "--input", path, "--format", "records"]) == 3
    record = capsys.readouterr().out.splitlines()
    assert len(record) <= 60
    assert record[-3:] == ["violation 0 one f^-25", "violations-unlisted 249948", "end"]


# a record edit -> exit code of combine --verify, and what it prints
RECORD_ERRORS = [
    (("exit-code 0", "exit-code x"), 1, "err", "error: line 4, col 1: bad exit code 'x'\n"),
    (("word f^2 g^2\n", ""), 2, "out", "verification: FAILED\n  record carries no word\n"),
    (("word f^2 g^2", "word f h"), 2, "out", "  bad word: "),
    (("witness 1 ", "note 1 "), 2, "out", "  record lists 1 witnesses, system has 2 actions\n"),
    (("word f^2 g^2", "word f^ g^2"), 2, "out", "  bad word: invalid literal for int() with base 10: ''\n"),
    (("hypiso-record v1", "hypiso-record v2"), 1, "err", "error: line 1, col 1: expected header 'hypiso-record v1'\n"),
    (("command combine\n", ""), 1, "err", "error: line 1, col 1: record has no command line\n"),
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


# one plane action whose f is written out in full: a spelling of [[2, 1],
# [1, 1]] classifies as that matrix does, and a bad one exits 1 naming it
ONE_ACTION = """hypiso-config v1
generators f g

action one
model half_plane
gen f {}
gen g [[0, -1], [1, 0]]
"""
ONE_ACTION_CLASSIFIED = (
    "#  action  kind        element  tag         invariant      tau~    \n"
    "-  ------  ----------  -------  ----------  -------------  --------\n"
    "0  one     half_plane  gen f    hyperbolic  cosh-half=3/2  1.924847\n"
    "0  one     half_plane  gen g    elliptic    period=2       -       \n"
)


def _int_message(text: str) -> str:
    """int()'s own message on text under the CLI's print limit, which a bad
    rational entry quotes."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    finally:
        sys.set_int_max_str_digits(limit)
    raise AssertionError(f"{text!r} reads as an integer")


# a matrix -> the error classify prints after the action's field, or None
# for the matrix [[2, 1], [1, 1]]; a denominator is read before its numerator
MATRIX_SPELLINGS = [
    ("[[2, 1], [1, 1]]", None),
    ("[[2, +1], [1, 1]]", None),
    ("[[2, -1/-1], [1, 1]]", None),
    ("[[2, 2/2], [1, 1]]", None),
    ("[[2, 1/0], [1, 1]]", "bad rational entry: zero denominator"),
    ("[[2, x/0], [1, 1]]", "bad rational entry: zero denominator"),
    ("[[2, 1.5], [1, 1]]", f"bad rational entry: {_int_message('1.5')}"),
    ("[[2, x], [1, 1]]", f"bad rational entry: {_int_message('x')}"),
    ("[[2, 1/x], [1, 1]]", f"bad rational entry: {_int_message('x')}"),
    ("[[2, 1/2/3], [1, 1]]", f"bad rational entry: {_int_message('2/3')}"),
    (f"[[2, {'1' * 5000}], [1, 1]]", f"bad rational entry: {_int_message('1' * 5000)}"),
    ("[[2, 1/-2], [1, 1]]", "determinant is 5/2, must be exactly 1"),
    ("[[2, 1_0], [1, 1]]", "determinant is -8, must be exactly 1"),
    ("[[2, 1], [1]]", "matrix needs 4 entries, got 3"),
]


@pytest.mark.parametrize("matrix, error", MATRIX_SPELLINGS,
                         ids=[m if len(m) < 40 else "5000-digit numerator" for m, _ in MATRIX_SPELLINGS])
def test_matrix_spellings_classify_as_they_read(tmp_path, capsys, matrix, error):
    path = write(tmp_path, "one.cfg", ONE_ACTION.format(matrix))
    code = main(["classify", "--input", path])
    out, err = capsys.readouterr()
    if error is None:
        assert (code, out, err) == (0, ONE_ACTION_CLASSIFIED, "")
    else:
        assert (code, out, err) == (1, "", f"error: action 'one' gen f: {error}\n")
