"""``dtype-purity``: the float32 default path must not silently promote.

PR 2 made the engine dtype configurable with a float32 default; a stray
``np.float64`` literal, a ``dtype=float`` keyword (Python's ``float`` *is*
float64) or an ``.astype(float)`` on an engine path silently doubles the
memory traffic and breaks the "float32 unless explicitly blessed" story.

The rule covers the configured engine modules only.  Deliberate float64
promotion sites stay expressible:

* ``arena.take(..., np.float64)`` / ``space.take(..., np.float64)`` — an
  arena buffer pinned to float64 is an explicit, visible blessing (the
  detector's float64 attention and relevance buffers);
* ``np.result_type(...)`` / ``np.dtype(...)`` operands — dtype *arithmetic*
  is how the engines reason about promotion, not promotion itself;
* annotations — typing, not computation;
* anything else carries a ``# repro: allow(dtype-purity): <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.base import Checker, Finding, LintConfig, ModuleSource
from repro.analysis.registry import register

#: Call names whose arguments may legitimately mention float64.
_BLESSED_CALLS = ("take", "result_type", "dtype")

#: numpy ufuncs checked for bare Python-float literal operands.
_UFUNCS = ("add", "subtract", "multiply", "divide", "true_divide", "power")


def _is_float64_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "float64" \
        and isinstance(node.value, ast.Name) \
        and node.value.id in ("np", "numpy")


def _is_float64_expression(node: ast.AST) -> bool:
    """``np.float64``, bare ``float``, or the strings naming them."""
    if _is_float64_attribute(node):
        return True
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    return isinstance(node, ast.Constant) and node.value in ("float64", "f8")


class _Visitor(ast.NodeVisitor):
    """Walks expressions but skips annotation fields entirely."""

    def __init__(self, checker: "DtypePurityChecker",
                 module: ModuleSource) -> None:
        self.checker = checker
        self.module = module
        self.findings = []

    def _report(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            self.checker.name, self.module.path,
            node.lineno, node.col_offset, message))

    # -- annotations are typing, not computation ----------------------- #
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def _visit_function(self, node) -> None:
        for default in list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]:
            self.visit(default)
        for statement in node.body:
            self.visit(statement)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- the actual rule ------------------------------------------------ #
    def _call_name(self, node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        name = self._call_name(node)
        if name in _BLESSED_CALLS:
            # Arguments are blessed; still descend into nested calls so
            # e.g. take("x", np.zeros(...).astype(float), ...) is caught.
            for child in list(node.args) + [kw.value for kw in node.keywords]:
                if not _is_float64_expression(child):
                    self.visit(child)
            self.visit(node.func)
            return
        if name == "astype" and node.args \
                and _is_float64_expression(node.args[0]):
            self._report(node, "astype to float64 on an engine path; stay in "
                               "the configured engine dtype or bless the "
                               "promotion explicitly")
            # The receiver may hide further violations.
            self.visit(node.func.value)
            return
        for keyword in node.keywords:
            if keyword.arg == "dtype" \
                    and _is_float64_expression(keyword.value):
                self._report(
                    keyword.value,
                    "dtype=float64 literal on an engine path (Python float "
                    "is float64); use the engine default dtype")
        if name in _UFUNCS and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy"):
            for operand in node.args[:2]:
                if isinstance(operand, ast.Constant) \
                        and isinstance(operand.value, float):
                    self._report(
                        operand,
                        f"bare Python float operand to np.{name} on an "
                        "engine path; wrap it in the engine dtype so the "
                        "output dtype is explicit")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_float64_attribute(node):
            self._report(node, "np.float64 literal on an engine path "
                               "outside a blessed promotion site")
            return
        self.generic_visit(node)


@register
class DtypePurityChecker(Checker):
    name = "dtype-purity"
    description = ("float64 literals / dtype=float / astype(float) in "
                   "engine modules outside blessed promotion sites")

    def check(self, module: ModuleSource,
              config: LintConfig) -> Iterator[Finding]:
        if module.path not in config.checkers.dtype_modules:
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
