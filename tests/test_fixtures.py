import os
import shutil

import pytest

from bettikit.cli import main
from bettikit.fixtures import FIXTURES, fixture_path, run_all, run_fixture


def test_every_fixture_file_exists():
    for entry in FIXTURES:
        assert os.path.exists(fixture_path(entry.filename)), entry.filename


def test_corpus_reproduces_expected_outputs():
    for entry, problems in run_all():
        assert problems == [], f"{entry.name}: {problems}"


def test_fixtures_dir_override(tmp_path, monkeypatch):
    entry = FIXTURES[0]
    content = open(fixture_path(entry.filename)).read()
    (tmp_path / entry.filename).write_text(content)
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    assert fixture_path(entry.filename).startswith(str(tmp_path))
    assert run_fixture(entry) == []


def test_fixtures_dir_missing_file(tmp_path, monkeypatch):
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    with pytest.raises(OSError):
        run_fixture(FIXTURES[0])


@pytest.mark.parametrize("filename, old, new", [
    ("twisted_cubic.ideal", "x0*x2", "x0*x9"),
    ("veronese_projection.table", "2: . 7 10 5 1", "1: . x"),
])
def test_fixtures_command_names_a_malformed_file(tmp_path, monkeypatch, capsys,
                                                 filename, old, new):
    for entry in FIXTURES:
        shutil.copy(fixture_path(entry.filename), tmp_path / entry.filename)
    bad = tmp_path / filename
    bad.write_text(bad.read_text().replace(old, new))
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    assert main(["fixtures"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"{bad}:2:")
