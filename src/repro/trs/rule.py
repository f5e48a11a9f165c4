"""Rewrite rules: the atomic actions of the term rewriting system.

Two concrete rule flavours cover the paper's rule families:

* :class:`PatternRule` -- declarative ``lhs ⇒ rhs`` rules written with the
  pattern syntax of the paper (``?a`` pattern variables), optionally guarded
  by a predicate over the bindings and optionally building the result with a
  callback (needed e.g. for constant folding, where the result constant is
  computed from the matched constants).
* :class:`FunctionRule` -- procedural rules whose matching or rewriting
  cannot be expressed as a single fixed pattern (vectorizing *all*
  isomorphic elements of a ``Vec``, packing non-isomorphic elements,
  balancing chains, composing rotations, ...).

Both expose the same interface:

* ``find(expr)`` returns the list of *paths* (locations) where the rule is
  applicable, in pre-order;
* ``matches_at(node)`` says whether the rule applies at the root of
  ``node``; ``head`` is the node type (or tuple of types) the rule's root
  must have (``None`` when any node may match);
* ``apply_at(expr, path)`` returns the rewritten expression.

The rewrite drivers and the RL environment do not call ``find`` rule by
rule: :meth:`repro.trs.registry.RuleSet.match_paths` walks the expression
once for every rule, asking ``matches_at`` once per distinct node (rules
bucketed by ``head``).  ``find`` stays the public per-rule API and the
oracle the index is tested against.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.ir.nodes import Expr, Var
from repro.ir.parser import parse
from repro.ir.pattern import (
    Bindings,
    PatternVar,
    find_matches,
    get_at,
    match,
    replace_at,
    substitute,
)

__all__ = ["Rule", "PatternRule", "FunctionRule", "RuleApplicationError", "pattern"]

Path = Tuple[int, ...]
Head = Union[type, Tuple[type, ...]]


class RuleApplicationError(ValueError):
    """Raised when a rule is applied at a location where it does not match."""


def pattern(text: str) -> Expr:
    """Parse a pattern written in the paper's rule syntax.

    Identifiers starting with ``?`` become pattern variables; a suffix after
    ``:`` restricts the kind, e.g. ``?c:const`` only matches constants.

    >>> pattern("(+ (* ?a ?b) (* ?a ?c))")           # doctest: +ELLIPSIS
    Add(...)
    """
    parsed = parse(text.replace("?", "__PV__"))
    return _restore_pattern_vars(parsed)


def _restore_pattern_vars(expr: Expr) -> Expr:
    if isinstance(expr, Var) and expr.name.startswith("__PV__"):
        name = expr.name[len("__PV__") :]
        if ":" in name:
            name, kind = name.split(":", 1)
        else:
            kind = "any"
        return PatternVar(name, kind=kind)
    if expr.is_leaf():
        return expr
    children = [_restore_pattern_vars(child) for child in expr.children]
    if children == list(expr.children):
        return expr
    return expr.with_children(children)


class Rule:
    """Abstract rewrite rule."""

    def __init__(self, name: str, category: str = "general", description: str = "") -> None:
        if not name:
            raise ValueError("rule name must be non-empty")
        self.name = name
        self.category = category
        self.description = description

    #: Node type (or types) this rule's match root must have; ``None``
    #: means any.
    head: Optional[Head] = None

    @property
    def head_types(self) -> Tuple[type, ...]:
        """``head`` as a tuple (empty when any node may match)."""
        if self.head is None:
            return ()
        return self.head if isinstance(self.head, tuple) else (self.head,)

    # -- interface -----------------------------------------------------------
    def find(self, expr: Expr) -> List[Path]:
        """Locations (paths, pre-order) where this rule is applicable."""
        raise NotImplementedError

    def matches_at(self, node: Expr) -> bool:
        """True when the rule applies at the root of ``node``."""
        raise NotImplementedError

    def apply_at(self, expr: Expr, path: Path) -> Expr:
        """Apply the rule at ``path`` and return the rewritten expression."""
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------------
    def applicable(self, expr: Expr) -> bool:
        """True when the rule matches anywhere in ``expr``."""
        return bool(self.find(expr))

    def apply_first(self, expr: Expr) -> Expr:
        """Apply the rule at its first match (raises if there is none)."""
        locations = self.find(expr)
        if not locations:
            raise RuleApplicationError(f"rule {self.name!r} does not match")
        return self.apply_at(expr, locations[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name!r} category={self.category!r}>"


class PatternRule(Rule):
    """A declarative ``lhs ⇒ rhs`` rule with optional guard and builder."""

    def __init__(
        self,
        name: str,
        lhs: Expr | str,
        rhs: Optional[Expr | str] = None,
        *,
        guard: Optional[Callable[[Bindings], bool]] = None,
        builder: Optional[Callable[[Bindings], Expr]] = None,
        category: str = "general",
        description: str = "",
    ) -> None:
        super().__init__(name, category=category, description=description)
        self.lhs = pattern(lhs) if isinstance(lhs, str) else lhs
        if rhs is None and builder is None:
            raise ValueError("PatternRule requires either an rhs template or a builder")
        self.rhs = pattern(rhs) if isinstance(rhs, str) else rhs
        self.guard = guard
        self.builder = builder
        if not isinstance(self.lhs, PatternVar):
            self.head = type(self.lhs)

    def matches_at(self, node: Expr) -> bool:
        bindings = match(self.lhs, node)
        if bindings is None:
            return False
        return self.guard is None or bool(self.guard(bindings))

    def find(self, expr: Expr) -> List[Path]:
        matches = find_matches(self.lhs, expr)
        if self.guard is None:
            return [m.path for m in matches]
        return [m.path for m in matches if self.guard(m.bindings)]

    def apply_at(self, expr: Expr, path: Path) -> Expr:
        target = get_at(expr, path)
        bindings = match(self.lhs, target)
        if bindings is None or (self.guard is not None and not self.guard(bindings)):
            raise RuleApplicationError(
                f"rule {self.name!r} does not match at path {path}"
            )
        if self.builder is not None:
            replacement = self.builder(bindings)
        else:
            assert self.rhs is not None
            replacement = substitute(self.rhs, bindings)
        return replace_at(expr, path, replacement)


class FunctionRule(Rule):
    """A procedural rule defined by a matcher and a rewriter callback.

    ``matcher(node)`` returns ``True`` when the rule applies to that node;
    ``rewriter(node)`` returns the replacement (or ``None`` to signal that
    the node should be left alone, which also removes it from the match
    list).  ``head`` names the node types the matcher can accept, so
    :class:`~repro.trs.registry.RuleSet` asks it only at those nodes;
    ``find`` still asks at every node.
    """

    def __init__(
        self,
        name: str,
        matcher: Callable[[Expr], bool],
        rewriter: Callable[[Expr], Optional[Expr]],
        *,
        head: Optional[Head] = None,
        category: str = "general",
        description: str = "",
    ) -> None:
        super().__init__(name, category=category, description=description)
        self.matcher = matcher
        self.rewriter = rewriter
        self.head = head

    def matches_at(self, node: Expr) -> bool:
        return bool(self.matcher(node)) and self.rewriter(node) is not None

    def find(self, expr: Expr) -> List[Path]:
        from repro.ir.analysis import iter_subexpressions

        locations: List[Path] = []
        for path, node in iter_subexpressions(expr):
            if self.matcher(node) and self.rewriter(node) is not None:
                locations.append(path)
        return locations

    def apply_at(self, expr: Expr, path: Path) -> Expr:
        target = get_at(expr, path)
        if not self.matcher(target):
            raise RuleApplicationError(
                f"rule {self.name!r} does not match at path {path}"
            )
        replacement = self.rewriter(target)
        if replacement is None:
            raise RuleApplicationError(
                f"rule {self.name!r} declined to rewrite at path {path}"
            )
        return replace_at(expr, path, replacement)
