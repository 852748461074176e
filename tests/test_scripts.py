import importlib.util
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gentleleak.cli import main, sweep_csv, tradeoff_csv
from gentleleak.cloning import lower_bound_sweep
from gentleleak.leakage import maximal_quantum_leakage
from gentleleak.simulate import tradeoff_sweep
from gentleleak.states import bb84_ensemble

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def readme_cli_examples() -> list[str]:
    """The `gentleleak ...` lines of the bash block under README's '## CLI' heading."""
    cli = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", cli, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("gentleleak ")]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMakeInputs:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            load_script("make_inputs").main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
        assert not (tmp_path / "data").exists()

    def test_stray_argument_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            load_script("make_inputs").main(["out"])
        assert exc.value.code == 2
        assert not (tmp_path / "data").exists()

    def test_writes_the_sample_inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_script("make_inputs").main([]) == 0
        assert (tmp_path / "data" / "bb84.json").is_file()


class TestReadmeCliExamples:
    """Every CLI example in README runs on the make_inputs files and exits 0."""

    @pytest.mark.parametrize("line", readme_cli_examples())
    def test_example_exits_0(self, line, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert load_script("make_inputs").main([]) == 0
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, capsys.readouterr().err


class TestReproduceFigure2:
    def test_csv_matches_the_api_and_prints_the_anchor(self, tmp_path, capsys):
        out = tmp_path / "figure2.csv"
        assert load_script("reproduce_figure2").main(["--grid", "11", "--out", str(out)]) == 0
        e = bb84_ensemble()
        rows = lower_bound_sweep(e, np.linspace(0.0, 1.0, 11), maximal_quantum_leakage(e).bits)
        assert out.read_text() == sweep_csv(rows)
        assert "anchor alpha=0.10: lower bound 0.7608 bits" in capsys.readouterr().out


class TestEavesdropTradeoff:
    def test_csv_matches_the_api(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        argv = ["--rounds", "1000", "--points", "3", "--out", str(out)]
        assert load_script("eavesdrop_tradeoff").main(argv) == 0
        rows = tradeoff_sweep(np.linspace(0.0, 0.1, 3), rounds=1000, seed=42)
        assert out.read_text() == tradeoff_csv(rows)


class TestDiffOutputs:
    """scripts/diff_outputs.py finds nothing between a tree and itself, and names a changed text."""

    @staticmethod
    def diff(other, *expect):
        argv = [sys.executable, str(SCRIPTS / "diff_outputs.py"), str(other)]
        argv += ["--expect", *expect] if expect else []
        return subprocess.run(argv, capture_output=True, text=True, timeout=300)

    def test_this_tree_differs_nowhere(self):
        proc = self.diff(ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.fullmatch(r"(\d+) items: \1 byte-identical, 0 differ \(0 unexpected\)\n",
                            proc.stdout)

    def test_a_changed_text_is_named(self, tmp_path):
        shutil.copytree(ROOT / "src" / "gentleleak", tmp_path / "src" / "gentleleak",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cli = tmp_path / "src" / "gentleleak" / "cli.py"
        text = cli.read_text()
        assert text.count("input file is not UTF-8 text") == 1
        cli.write_text(text.replace("input file is not UTF-8 text", "input file is not UTF-8"))
        proc = self.diff(tmp_path)
        assert proc.returncode == 1, proc.stderr
        first, last = proc.stdout.splitlines()[0], proc.stdout.splitlines()[-1]
        assert first.startswith("leakage:not-utf8: stderr at byte ")
        assert last.endswith(" 1 differ (1 unexpected)")
        proc = self.diff(tmp_path, "leakage:not-utf8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("leakage:not-utf8: expected, stderr at byte ")
        assert proc.stdout.endswith(" 1 differ (0 unexpected)\n")

    def test_a_stale_expectation_fails(self):
        proc = self.diff(ROOT, "leakage:bb84")
        assert proc.returncode == 1, proc.stderr
        first, last = proc.stdout.splitlines()
        assert first == "leakage:bb84: expected to differ, but byte-identical"
        assert re.fullmatch(r"(\d+) items: \1 byte-identical, 0 differ \(0 unexpected\)", last)
