"""ProjectModel construction tests: import resolution, loud failure.

The rules lean on a model behavior that is easy to silently break:
one-hop resolution of *relative* imports (PA003 follows
``from .state import CACHE`` to the module that owns the container).
"""

import pytest

from repro.analysis.model import ProjectModel


def _write_tree(root, files):
    for rel_path, source in files.items():
        path = root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


class TestRelativeImportResolution:
    def test_single_dot_resolves_to_sibling(self, tmp_path):
        _write_tree(tmp_path, {
            "pkg/alpha.py": "X = 1\n",
            "pkg/beta.py": "from .alpha import X\n",
        })
        model = ProjectModel.build(tmp_path)
        beta = model.find("pkg/beta.py")
        assert beta is not None
        assert beta.imports["X"] == ("pkg.alpha", "X")
        assert model.module_by_name("pkg.alpha") is not None

    def test_double_dot_resolves_to_parent_package(self, tmp_path):
        _write_tree(tmp_path, {
            "pkg/config.py": "LIMIT = 5\n",
            "pkg/sub/worker.py": "from ..config import LIMIT\n",
        })
        model = ProjectModel.build(tmp_path)
        worker = model.find("pkg/sub/worker.py")
        assert worker is not None
        assert worker.imports["LIMIT"] == ("pkg.config", "LIMIT")
        resolved = model.module_by_name("pkg.config")
        assert resolved is not None
        assert resolved.rel_path == "pkg/config.py"

    def test_aliased_import_keeps_both_names(self, tmp_path):
        _write_tree(tmp_path, {
            "pkg/mod.py": "VALUE = 3\n",
            "pkg/use.py": "from .mod import VALUE as V\n",
        })
        model = ProjectModel.build(tmp_path)
        use = model.find("pkg/use.py")
        assert use is not None
        assert use.imports["V"] == ("pkg.mod", "VALUE")
        assert "VALUE" not in use.imports

    def test_relative_module_import(self, tmp_path):
        """``from ..pkg import mod`` binds the *module* name."""
        _write_tree(tmp_path, {
            "pkg/mod.py": "VALUE = 3\n",
            "other/use.py": "from ..pkg import mod\n",
        })
        model = ProjectModel.build(tmp_path)
        use = model.find("other/use.py")
        assert use is not None
        assert use.imports["mod"] == ("pkg", "mod")

    def test_escape_above_the_root_is_ignored(self, tmp_path):
        _write_tree(tmp_path, {
            "use.py": "from ...outside import thing\n",
        })
        model = ProjectModel.build(tmp_path)
        use = model.find("use.py")
        assert use is not None
        assert use.imports == {}


def test_unparsable_file_fails_loudly(tmp_path):
    from repro.analysis.model import AnalysisError
    _write_tree(tmp_path, {"broken.py": "def oops(:\n"})
    with pytest.raises(AnalysisError):
        ProjectModel.build(tmp_path)
