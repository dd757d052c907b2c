import ast
import inspect

import pytest

import tmat
from tmat import DuplicateFamilyError, construct, is_diagonal, is_posdef, is_symmetric
from tmat import sumij as sumij_module
from tmat.sumij import install_sumij


def test_install_registers_and_joins_user_group():
    install_sumij()
    assert "sumij" in tmat.list_families()
    assert len(tmat.list_families()) == 20
    assert tmat.list_matrices(["user"]) == ["sumij"]


def test_materialization_matches_tutorial_output():
    install_sumij()
    rows = tmat.materialize(construct("sumij", n=5)).to_rows()
    assert [int(v.num) for v in rows[0]] == [2, 3, 4, 5, 6]
    assert [int(v.num) for v in rows[4]] == [6, 7, 8, 9, 10]


def test_specialized_predicates():
    install_sumij()
    h = construct("sumij", n=4)
    assert is_symmetric(h) is True
    assert is_posdef(h) is False
    assert is_diagonal(h) is False
    assert is_diagonal(construct("sumij", n=1)) is True
    # [2] is positive definite; a column of two positive entries is not diagonal
    assert is_posdef(construct("sumij", n=1)) is True
    assert is_diagonal(construct("sumij", m=2, n=1)) is False
    assert is_symmetric(construct("sumij", m=2, n=3)) is False


def test_declared_tags():
    install_sumij()
    assert tmat.properties_of("sumij") == ["symmetric", "integer", "positive", "rankdef"]


def test_rank_deficiency():
    install_sumij()
    assert tmat.rank(construct("sumij", n=5)) == 2
    (report,) = tmat.audit("sumij", [3])
    verdicts = {f.tag: f.verdict for f in report.findings}
    assert verdicts["rankdef"] == "pass"
    assert verdicts["positive"] == "pass"


def test_rectangular_form():
    install_sumij()
    h = construct("sumij", m=2, n=3)
    assert tmat.dims(h) == (2, 3)
    assert tmat.element(h, 2, 3) == 5


def test_duplicate_install_rejected():
    install_sumij()
    with pytest.raises(DuplicateFamilyError):
        install_sumij()


def test_extension_uses_only_public_api():
    """The tutorial extension must build against the package's public surface:
    no submodule imports, no underscore-prefixed names."""
    tree = ast.parse(inspect.getsource(sumij_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name == "tmat", f"disallowed import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            assert node.module == "tmat", f"disallowed import from {node.module}"
            assert node.level == 0, "relative imports reach into package internals"
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                assert alias.name in tmat.__all__, f"{alias.name} is not public API"
