import pytest

from hypiso import cli, combiner
from hypiso.actions import ActionSystem
from hypiso.cli import MAX_SAMPLE_POINTS, main
from hypiso.config import WORKED_EXAMPLE, parse_config
from hypiso.errors import ParseError, ValidationError
from hypiso.records import RECORD_HEADER, parse_record
from hypiso.trees import BassSerreModel, CayleyTreeModel, TreeModel


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
