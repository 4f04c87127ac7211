"""Exit codes, argument plumbing, and stage subcommands."""

import hashlib
from pathlib import Path

import pytest

from lsnpc.cli import COMMANDS, build_parser, main
from lsnpc.datagen import GeneratorConfig, generate_synthetic, save_dataset
from lsnpc.experiment import STAGES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_INI = """
[data]
n = 240
d = 6
k = 3
rank = 3

[model]
m = 2
embed_hidden = 12
embed_dim = 12
encoder_hidden = 12
decoder_hidden = 12
shift_hidden = 8

[base]
epochs = 4
hidden = 16,16

[lsnpc]
epochs = 2
clean_epochs = 1

[noise]
kinds = sym
rates = 0.4

[run]
paradigm = unsupervised
seeds = 1
"""


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return path


def test_every_stage_is_a_subcommand():
    assert COMMANDS[: len(STAGES)] == STAGES
    assert set(COMMANDS) >= {"sweep", "ablate", "verify-theory", "run-all"}


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["deploy", "--config", "x.ini"])
    capsys.readouterr()


def test_eval_run_succeeds_and_writes_artifacts(tiny_ini, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eval", "--config", str(tiny_ini), "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "manifest.txt").exists()
    assert capsys.readouterr().err == ""


def test_progress_goes_to_stderr_unless_quiet(tiny_ini, tmp_path, capsys):
    code = main(["train-base", "--config", str(tiny_ini),
                 "--out", str(tmp_path / "loud")])
    assert code == 0
    assert "base [sym nr=40 s=1]" in capsys.readouterr().err


def test_seed_flag_replaces_seed_list(tiny_ini, tmp_path):
    out = tmp_path / "out"
    code = main(["gen-data", "--config", str(tiny_ini), "--out", str(out),
                 "--seed", "7", "--quiet"])
    assert code == 0
    assert (out / "data" / "ds_s7.bin").exists()
    assert not (out / "data" / "ds_s1.bin").exists()


# sha256 of the theory_report.csv that verify-theory writes for smoke.ini
SMOKE_THEORY_CSV = "10422bca2305a0df4d67ed64487fe011bf03c443d8120682a151cdfcd6c45147"


def test_seed_flag_sets_the_theory_seed(tmp_path):
    def report(name, config, *flags):
        out = tmp_path / name
        assert main(["verify-theory", "--config", str(config), "--out", str(out),
                     "--quiet", *flags]) == 0
        return (out / "theory_report.csv").read_bytes()

    smoke = CONFIGS / "smoke.ini"
    seven = tmp_path / "seed7.ini"
    seven.write_text(smoke.read_text().replace("[theory]\n", "[theory]\nseed = 7\n"))
    plain = report("plain", smoke)  # smoke.ini keeps the default [theory] seed, 1
    assert hashlib.sha256(plain).hexdigest() == SMOKE_THEORY_CSV
    flagged = report("flagged", smoke, "--seed", "7")
    assert flagged == report("seven", seven)
    assert flagged != plain


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[base]\nmomentum = 0.9\n")
    assert main(["eval", "--config", str(bad), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["eval", "--config", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()
    # settings the dataclasses reject fail at parse time, before any data
    for body in ("[split]\ntrain = 0.9\n", "[data]\nrank = 40\n",
                 "[base]\noptimizer = sgdd\n", "[run]\nseeds = 1,1\n"):
        bad.write_text(body)
        out = tmp_path / "out"
        assert main(["eval", "--config", str(bad), "--out", str(out), "--quiet"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "data").exists()
    source = tmp_path / "ds.bin"
    save_dataset(generate_synthetic(GeneratorConfig(n=240, d=6, k=3, rank=3, seed=1))[0],
                 source)
    for body in ("[theory]\ntrain_n = 12\n", "[theory]\nm = 0\n",
                 "[theory]\nnoise_rate = 1.5\n",
                 f"[data]\nsource = {source}\n[theory]\ntrain_n = 12\n"):
        bad.write_text(body)
        out = tmp_path / "theory_out"
        assert main(["verify-theory", "--config", str(bad), "--out", str(out),
                     "--quiet"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(out.glob("theory_report.*"))


def test_negative_seed_flag_exits_1_before_writing(tiny_ini, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(tiny_ini), "--out", str(out),
                 "--seed", "-1", "--quiet"]) == 1
    assert "none negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,old,new", [
    ("eval", "rates = 0.4", "rates ="),
    ("sweep", "[run]", "[sweep]\nnu_values =\n[run]"),
    ("train-lsnpc", "encoder_hidden = 12", "encoder_hidden ="),
    ("train-lsnpc", "decoder_hidden = 12", "decoder_hidden = -3"),
    ("train-base", "hidden = 16,16", "hidden = 0"),
], ids=["empty-rates", "empty-nu", "empty-encoder", "negative-decoder", "zero-base-hidden"])
def test_empty_list_or_bad_width_exits_1_before_writing(tmp_path, capsys, command, old, new):
    ini = tmp_path / "bad.ini"
    ini.write_text(TINY_INI.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_label_noise_on_one_label_exits_1_before_writing(tmp_path, capsys):
    ini = tmp_path / "one_label.ini"
    ini.write_text(TINY_INI.replace("k = 3", "k = 1"))
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(ini), "--out", str(out), "--quiet"]) == 1
    assert "at least 2 labels" in capsys.readouterr().err
    assert not out.exists()


def test_verify_theory_on_one_label_exits_2_before_any_report(tmp_path, capsys):
    # With no label noise k = 1 parses and evaluates; the bound checks need
    # label pairs at two distances and fail before the quadrature.
    ini = tmp_path / "one_label.ini"
    ini.write_text(TINY_INI.replace("k = 3", "k = 1").replace("rates = 0.4", "rates = 0.0")
                   + "\n[theory]\nnoise_rate = 0.0\n")
    out = tmp_path / "out"
    assert main(["verify-theory", "--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert "k = 1 labels" in capsys.readouterr().err
    assert not list(out.glob("theory_report.*"))
    assert main(["eval", "--config", str(ini), "--out", str(out), "--quiet"]) == 0


def test_runtime_failures_exit_2(tmp_path, capsys):
    ini = tmp_path / "broken.ini"
    ini.write_text(f"[data]\nsource = {tmp_path / 'no_such.bin'}\n")
    code = main(["eval", "--config", str(ini), "--out", str(tmp_path / "o"),
                 "--quiet"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err
