"""Every row-wise product of the forward pass goes through ``grid.gemm_rows``.

BLAS may round a row by the row count of its call, so an ``x @ w`` of
its own anywhere in ``grid``, ``fpn``, ``rpn`` or ``rcnn`` would make a
cell's or RoI's value depend on what is computed with it. This parses the
four modules and fails on any ``@``, ``matmul``, ``dot``, ``tensordot`` or
``einsum`` outside ``gemm_rows`` itself and ``dense_conv2d``, whose
per-offset GEMMs run over whole map rows.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pillardet"
MODULES = [PACKAGE / f"{name}.py" for name in ("grid", "fpn", "rpn", "rcnn")]
PRODUCTS = {"matmul", "dot", "tensordot", "einsum"}
ALLOWED = {"gemm_rows", "dense_conv2d"}


def row_products(source: str) -> list[str]:
    """``line: product`` of each matrix product outside the allowed
    functions."""
    found = []

    def walk(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in ALLOWED
        if not allowed:
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append(f"{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
                found.append(f"{node.lineno}: {node.attr}")
            elif isinstance(node, ast.Name) and node.id in PRODUCTS:
                found.append(f"{node.lineno}: {node.id}")
        for child in ast.iter_child_nodes(node):
            walk(child, allowed)

    walk(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_row_product_outside_gemm_rows(path):
    assert row_products(path.read_text()) == []


def test_check_finds_a_planted_product():
    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "def gemm_rows(x, w):\n"
              "    return np.matmul(x, w)\n"
              "def head(x, w):\n"
              "    return x @ w\n"
              "def mlp(x, w):\n"
              "    x @= w\n"
              "    return np.dot(x, w) + einsum('ij,jk', x, w)\n")
    assert row_products(source) == ["6: @", "8: @", "9: dot", "9: einsum"]
    planted = MODULES[-1].read_text() + "\n\ndef planted(x, w):\n    return x @ w\n"
    assert len(row_products(planted)) == 1
