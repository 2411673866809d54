"""Parsing the tree: a file that cannot be parsed fails the run loudly."""

import pytest

from repro.analysis.model import AnalysisError, parse_tree


def test_unparsable_file_fails_loudly(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    with pytest.raises(AnalysisError):
        parse_tree(tmp_path)
