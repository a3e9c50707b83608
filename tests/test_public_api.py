"""The package's public surface: its exported names and the README's
Python example."""

import contextlib
import io
import json
import re
from pathlib import Path

import normeval
from normeval import corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from normeval import *", namespace)
    assert len(set(normeval.__all__)) == len(normeval.__all__)
    missing = [name for name in normeval.__all__ if name not in namespace]
    assert missing == []


def test_one_corpus_api():
    # the run's reader and fold planner are the corpus API; the
    # per-document path beside them is gone
    for name in ("CorpusRows", "plan_folds", "type_table", "TypeTable", "TokenMapping"):
        assert name in normeval.__all__
        assert getattr(normeval, name) is getattr(corpus, name)
    for name in ("Document", "Corpus", "load_corpus", "make_folds", "tokenize"):
        assert name not in normeval.__all__
        assert not hasattr(normeval, name), name
        assert not hasattr(corpus, name), name


def readme_python_block():
    """The README's one Python example, the block after "From Python:"."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^From Python:\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert match is not None
    return match.group(1)


def test_readme_python_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_python_block(), str(README), "exec"), {"__name__": "readme"})
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert (tmp_path / "report.md").read_text(encoding="utf-8").startswith("# Normalizer evaluation")
    *rows, steps = out.getvalue().splitlines()
    assert [row.split()[0] for row in rows] == ["snowball-en", "truncate-3"]
    # the step-by-step numbers are the report's, to the last bit
    [snowball] = [r for r in report["reports"] if r["normalizer"] == "snowball-en"]
    expected = [snowball["compression"]["cr"], snowball["anld"]["anld"], snowball["irs"]["irs"]]
    assert [float(value) for value in steps.split()] == expected
