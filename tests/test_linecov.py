"""`tools/linecov.py` keys each file's hits by the SHA-256 of its source,
so hits recorded before an edit never count for the edited file."""

import importlib.util
import json
from pathlib import Path

import pytest

LINECOV_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"


@pytest.fixture
def linecov(tmp_path, monkeypatch):
    """The tool, loaded by path, reading a one-file package in tmp_path."""
    spec = importlib.util.spec_from_file_location("linecov", LINECOV_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("a = 1\nb = 2\nc = 3\n")
    monkeypatch.setattr(module, "PACKAGE", package)
    return module


def test_merge_adds_hits_of_unchanged_source_and_replaces_stale_ones(
        tmp_path, linecov):
    data, mod = tmp_path / "linecov.json", linecov.PACKAGE / "mod.py"
    linecov.merge(data, {str(mod): {1}})
    linecov.merge(data, {str(mod): {2}})
    entry = json.loads(data.read_text())["mod.py"]
    assert entry == {"sha256": linecov.source_hash(mod), "lines": [1, 2]}
    mod.write_text("a = 1\n\nb = 2\nc = 3\n")
    linecov.merge(data, {str(mod): {4}})
    entry = json.loads(data.read_text())["mod.py"]
    assert entry == {"sha256": linecov.source_hash(mod), "lines": [4]}


@pytest.mark.parametrize("stored", [{"sha256": "0" * 64, "lines": [1, 2, 3]},
                                    [1, 2, 3]],
                         ids=["other-hash", "unhashed"])
def test_report_ignores_and_names_hits_of_other_source(tmp_path, capsys,
                                                       linecov, stored):
    data = tmp_path / "linecov.json"
    data.write_text(json.dumps({"mod.py": stored}))
    linecov.report(data)
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["ignored hits recorded against other source: mod.py",
                        "3 executable lines never ran"]
    linecov.merge(data, {str(linecov.PACKAGE / "mod.py"): {1, 2, 3}})
    linecov.report(data)
    assert capsys.readouterr().out.splitlines() == [
        "0 executable lines never ran"]
