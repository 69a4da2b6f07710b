"""Experiment CLI."""

import importlib

import pytest

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.runner import OPT_IN_IDS, main


def test_table1_via_cli(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "resnet50" in out


def test_eq1_via_cli(capsys):
    assert main(["eq1"]) == 0
    assert "Eq. 1" in capsys.readouterr().out


def test_seed_flag(capsys):
    assert main(["table1", "--seed", "3"]) == 0


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig5_plot_flag(capsys):
    assert main(["fig5", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "generation" in out
    assert "RES-1" in out


def test_plot_flag_ignored_for_tables(capsys):
    assert main(["table1", "--plot"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_out_flag_writes_reports(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    written = tmp_path / "table1.txt"
    assert written.exists()
    assert "Table 1" in written.read_text()


@pytest.mark.parametrize(
    "exp_id", [e for e in (*EXPERIMENT_IDS, *OPT_IN_IDS) if e != "headline"]
)
def test_every_cli_id_names_an_experiment_module(exp_id):
    """The CLI imports ``repro.experiments.<id>`` on demand, so every id
    (but ``headline``, which the runner renders itself) must name a
    module with ``run`` and ``render``."""
    module = importlib.import_module(f"repro.experiments.{exp_id}")
    assert callable(module.run) and callable(module.render)
