"""Pattern matching and substitution for the term rewriting system.

Patterns are ordinary IR expressions that may additionally contain
:class:`PatternVar` leaves (written ``?a`` in the paper's rule syntax).  A
pattern variable matches any sub-expression and binds it; repeated pattern
variables must bind structurally equal sub-expressions (non-linear matching),
which is what rules such as ``(+ (* ?a ?b) (* ?a ?c)) => (* ?a (+ ?b ?c))``
rely on.

Pattern variables can carry an optional *kind* restriction so rules can
require a constant (``kind="const"``) or a plain variable (``kind="var"``)
in a given position.

Locations inside an expression are addressed by *paths*: tuples of child
indices from the root.  :func:`find_matches` enumerates every path where a
pattern matches, in pre-order, which defines the location indexing used by
the RL agent's location-selection network.

The rewrite drivers do not call :func:`find_matches` per rule: they match
every rule at each distinct node once, through
:meth:`repro.trs.registry.RuleSet.match_paths`, which yields the same
pre-order paths.  :func:`find_matches` stays the per-pattern API.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.nodes import Const, Expr, Var

__all__ = [
    "PatternVar",
    "MatchResult",
    "match",
    "substitute",
    "find_matches",
    "get_at",
    "replace_at",
    "Bindings",
]

Bindings = Dict[str, Expr]


class PatternVar(Expr):
    """A pattern variable (``?a``) that matches and binds any sub-expression."""

    op = "pattern"
    __slots__ = ("name", "kind")

    #: Allowed kind restrictions.
    KINDS = ("any", "const", "var", "leaf")

    def __init__(self, name: str, kind: str = "any") -> None:
        if not name:
            raise ValueError("pattern variable name must be non-empty")
        if kind not in self.KINDS:
            raise ValueError(f"unknown pattern kind {kind!r}; expected one of {self.KINDS}")
        super().__init__(())
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "kind", kind)

    def _key(self) -> Tuple:
        return (self.op, self.name, self.kind)

    def with_children(self, children: Sequence[Expr]) -> "PatternVar":
        if children:
            raise ValueError("PatternVar is a leaf and takes no children")
        return self

    def accepts(self, expr: Expr) -> bool:
        """Whether ``expr`` satisfies this variable's kind restriction."""
        if self.kind == "const":
            return isinstance(expr, Const)
        if self.kind == "var":
            return isinstance(expr, Var)
        if self.kind == "leaf":
            return expr.is_leaf()
        return True


class MatchResult:
    """A successful match: the path it occurred at and the variable bindings."""

    __slots__ = ("path", "bindings")

    def __init__(self, path: Tuple[int, ...], bindings: Bindings) -> None:
        self.path = path
        self.bindings = bindings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult(path={self.path}, bindings={sorted(self.bindings)})"


def match(pattern: Expr, expr: Expr) -> Optional[Bindings]:
    """Match ``pattern`` against ``expr`` at the root.

    Returns the bindings dictionary on success, ``None`` on failure.
    """
    bindings: Bindings = {}
    if _match(pattern, expr, bindings):
        return bindings
    return None


def _match(pattern: Expr, expr: Expr, bindings: Bindings) -> bool:
    if isinstance(pattern, PatternVar):
        if not pattern.accepts(expr):
            return False
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = expr
            return True
        return bound == expr
    if type(pattern) is not type(expr):
        return False
    if pattern._key() != expr._key():
        return False
    if len(pattern.children) != len(expr.children):
        return False
    return all(
        _match(pattern_child, expr_child, bindings)
        for pattern_child, expr_child in zip(pattern.children, expr.children)
    )


def substitute(template: Expr, bindings: Bindings) -> Expr:
    """Instantiate ``template`` by replacing its pattern variables.

    Raises ``KeyError`` if the template references an unbound variable.
    """
    if isinstance(template, PatternVar):
        return bindings[template.name]
    if template.is_leaf():
        return template
    new_children = [substitute(child, bindings) for child in template.children]
    if new_children == list(template.children):
        return template
    return template.with_children(new_children)


def find_matches(pattern: Expr, expr: Expr, limit: Optional[int] = None) -> List[MatchResult]:
    """Enumerate every location of ``expr`` where ``pattern`` matches.

    Matches are returned in pre-order of their paths, which is the stable
    "1st match, 2nd match, ..." ordering the location-selection network
    chooses from.  ``limit`` caps the number of results.
    """
    from repro.ir.analysis import iter_subexpressions

    results: List[MatchResult] = []
    for path, node in iter_subexpressions(expr):
        bindings: Bindings = {}
        if _match(pattern, node, bindings):
            results.append(MatchResult(path, bindings))
            if limit is not None and len(results) >= limit:
                break
    return results


def get_at(expr: Expr, path: Sequence[int]) -> Expr:
    """Return the sub-expression of ``expr`` at ``path``."""
    node = expr
    for index in path:
        node = node.children[index]
    return node


def replace_at(expr: Expr, path: Sequence[int], replacement: Expr) -> Expr:
    """Return a copy of ``expr`` with the sub-expression at ``path`` replaced."""
    if not path:
        return replacement
    index = path[0]
    children = list(expr.children)
    children[index] = replace_at(children[index], path[1:], replacement)
    return expr.with_children(children)
