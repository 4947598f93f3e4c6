"""Core types of the lint framework: findings, module sources, checkers.

A :class:`Checker` receives one parsed :class:`ModuleSource` at a time and
yields :class:`Finding` objects anchored at the offending AST node.  The
framework (:mod:`repro.analysis.runner`) owns file discovery, suppression
handling (:mod:`repro.analysis.suppressions`) and reporting
(:mod:`repro.analysis.reporters`); checkers stay pure AST walks.

Everything in this package is standard-library only — the linter must be
runnable in CI before the scientific stack imports (and a numpy-level
breakage must not take the lint gate down with it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored at a source location.

    ``line``/``column`` follow the AST convention (1-based line, 0-based
    column).  ``path`` is repository-relative with ``/`` separators so
    reports are stable across platforms.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


class ModuleSource:
    """One file under analysis: path, text, parsed tree, parent links.

    ``parents`` maps every AST node to its parent, built lazily on first
    access — checkers that only walk top-down never pay for it.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)


@dataclass
class CheckerConfig:
    """Per-rule configuration shared by the built-in checkers.

    The defaults encode this repository's real invariants; library users
    embedding the framework pass their own instance to
    :func:`repro.analysis.runner.lint_paths`.
    """

    #: ``no-print``: modules (repo-relative posix paths) allowed to print —
    #: the CLI surfaces whose stdout is the product, not diagnostics.
    print_allowlist: Tuple[str, ...] = (
        "src/repro/service/cli.py",
        "src/repro/analysis/cli.py",
    )

    #: ``dtype-purity``: engine modules where a float64 literal outside a
    #: blessed promotion site is a bug (the float32 default path must not
    #: silently promote).
    dtype_modules: Tuple[str, ...] = (
        "src/repro/nn/inference.py",
        "src/repro/nn/training_engine.py",
        "src/repro/nn/functional.py",
        "src/repro/nn/optim.py",
        "src/repro/core/batched.py",
        "src/repro/core/relevance.py",
    )

    #: ``telemetry-guard``: hot modules whose telemetry emissions must be
    #: dominated by an ``if telemetry.enabled``-style guard (the
    #: telemetry-off contract is one attribute check per step).
    telemetry_modules: Tuple[str, ...] = (
        "src/repro/nn/inference.py",
        "src/repro/nn/training_engine.py",
        "src/repro/core/training.py",
        "src/repro/core/batched.py",
    )

    #: ``hot-path-alloc``: decorator names that mark a hot function, plus an
    #: optional explicit ``(module path, qualified name)`` list for code
    #: that cannot import :mod:`repro.contracts`.
    hot_decorators: Tuple[str, ...] = ("hot_path",)
    hot_functions: Tuple[Tuple[str, str], ...] = ()

    #: ``hot-path-alloc``: numpy namespace calls that allocate a fresh array.
    allocating_calls: Tuple[str, ...] = (
        "zeros", "empty", "ones", "full",
        "zeros_like", "empty_like", "ones_like", "full_like",
        "array", "copy", "concatenate", "stack", "vstack", "hstack",
        "tile", "repeat", "ascontiguousarray", "roll",
    )


@dataclass
class LintConfig:
    """Framework-level configuration: scope, rule selection, rule settings."""

    #: Root the reported paths are relative to.
    root: str = "."
    checkers: CheckerConfig = field(default_factory=CheckerConfig)


class Checker:
    """Base class for lint rules.

    Subclasses set ``name`` (the rule id used in reports and in
    ``# repro: allow(<name>)`` suppressions) and ``description`` (one line,
    shown by ``lint --list-rules``), then implement :meth:`check`.
    Registration happens through :func:`repro.analysis.registry.register`.
    """

    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource,
              config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared AST helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def dotted_name(node: ast.AST) -> Optional[str]:
        """``a.b.c`` for a Name/Attribute chain, else ``None``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    @staticmethod
    def subscript_base(node: ast.AST) -> Optional[str]:
        """The dotted base of a (possibly nested) subscript expression."""
        while isinstance(node, ast.Subscript):
            node = node.value
        return Checker.dotted_name(node)
