import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
