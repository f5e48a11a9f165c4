"""The default rule set: 84 rewrite rules plus the ``END`` action.

The rule set is the agent's action space.  Rules are indexed in a stable
order so that a trained policy's action indices remain meaningful across
runs; the ``END`` action always has the last index.

:meth:`RuleSet.match_paths` is the one matcher every driver uses: a single
walk of the expression yields every rule's pre-order match paths, and a
:class:`MatchMemo` remembers which rules match at each distinct node so a
rewrite only costs matching on the nodes it created.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.nodes import Expr
from repro.trs.rule import Rule
from repro.trs.rules.algebraic import algebraic_rules
from repro.trs.rules.balance import balance_rules
from repro.trs.rules.rotation import rotation_rules
from repro.trs.rules.vectorize import vectorization_rules

__all__ = ["RuleSet", "MatchMemo", "default_ruleset", "END_ACTION_NAME"]

#: Name of the special episode-terminating action.
END_ACTION_NAME = "END"

Path = Tuple[int, ...]


class MatchMemo:
    """Which rules match at each distinct node, for one :class:`RuleSet`.

    An entry maps a node to ``(rule indices matching at it, whether any rule
    matches in its subtree)``; the second flag lets the walk skip match-free
    subtrees.  A memo lives for one ``optimize`` call or one environment
    episode, never process-wide: its keys compare structurally, so a memo
    shared across compilations that parse equal but distinct trees would
    spend its lookups comparing whole trees, and it would grow unboundedly.
    """

    __slots__ = ("entries", "nodes_walked")

    def __init__(self) -> None:
        self.entries: Dict[Expr, Tuple[Tuple[int, ...], bool]] = {}
        #: Nodes visited by :meth:`RuleSet.match_paths` walks.
        self.nodes_walked = 0

    @property
    def misses(self) -> int:
        """Distinct nodes every rule had to be matched against."""
        return len(self.entries)


class RuleSet:
    """An ordered, indexable collection of rewrite rules plus ``END``.

    The ``END`` action is not a rule; it carries the index ``len(rules)`` and
    is exposed through :attr:`end_index` so policies can select it uniformly
    with rewrite rules.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        if not rules:
            raise ValueError("a RuleSet needs at least one rule")
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")
        self._rules: Tuple[Rule, ...] = tuple(rules)
        self._by_name: Dict[str, int] = {rule.name: i for i, rule in enumerate(rules)}
        # Rules to try at a node, by the node's type, in index order: the
        # rules whose head includes that type plus the rules without a head.
        self._wildcard: Tuple[int, ...] = tuple(
            i for i, rule in enumerate(self._rules) if rule.head is None
        )
        self._by_head: Dict[type, Tuple[int, ...]] = {
            head: tuple(
                i
                for i, rule in enumerate(self._rules)
                if rule.head is None or head in rule.head_types
            )
            for head in {head for rule in self._rules for head in rule.head_types}
        }

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    # -- lookups ----------------------------------------------------------------
    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    @property
    def names(self) -> List[str]:
        """Rule names in index order (without ``END``)."""
        return [rule.name for rule in self._rules]

    @property
    def action_count(self) -> int:
        """Number of actions a policy chooses from (rules plus ``END``)."""
        return len(self._rules) + 1

    @property
    def end_index(self) -> int:
        """Action index of the ``END`` action."""
        return len(self._rules)

    def index_of(self, name: str) -> int:
        """Index of the rule called ``name``."""
        return self._by_name[name]

    def by_name(self, name: str) -> Rule:
        """The rule called ``name``."""
        return self._rules[self._by_name[name]]

    def categories(self) -> Dict[str, List[str]]:
        """Rule names grouped by category (for documentation and reporting)."""
        grouped: Dict[str, List[str]] = {}
        for rule in self._rules:
            grouped.setdefault(rule.category, []).append(rule.name)
        return grouped

    # -- applicability ------------------------------------------------------------
    def match_paths(self, expr: Expr, memo: Optional[MatchMemo] = None) -> List[List[Path]]:
        """Every rule's match paths in ``expr``, from one walk.

        Entry ``i`` equals ``self[i].find(expr)``: the paths in pre-order.
        Rules are matched once per distinct node not yet in ``memo``; pass
        the same memo for successive states of one rewrite search.
        """
        memo = memo if memo is not None else MatchMemo()
        entries = memo.entries
        self._fill(expr, entries)
        paths: List[List[Path]] = [[] for _ in self._rules]
        if not entries[expr][1]:
            return paths
        walked = 0
        stack: List[Tuple[Path, Expr]] = [((), expr)]
        while stack:
            path, node = stack.pop()
            walked += 1
            for index in entries[node][0]:
                paths[index].append(path)
            children = node.children
            for position in range(len(children) - 1, -1, -1):
                child = children[position]
                if entries[child][1]:
                    stack.append((path + (position,), child))
        memo.nodes_walked += walked
        return paths

    def _fill(self, expr: Expr, entries: Dict[Expr, Tuple[Tuple[int, ...], bool]]) -> None:
        """Add a memo entry for every node of ``expr`` that lacks one."""
        rules = self._rules
        stack: List[Tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if node in entries:
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children if child not in entries)
                continue
            here = tuple(
                index
                for index in self._by_head.get(type(node), self._wildcard)
                if rules[index].matches_at(node)
            )
            below = bool(here) or any(entries[child][1] for child in node.children)
            entries[node] = (here, below)

    def applicable_rules(self, expr: Expr) -> List[int]:
        """Indices of the rules that match somewhere in ``expr``."""
        return [index for index, paths in enumerate(self.match_paths(expr)) if paths]

    def action_mask(self, expr: Expr, include_end: bool = True) -> List[bool]:
        """Boolean mask over the action space (``END`` is always valid)."""
        mask = [bool(paths) for paths in self.match_paths(expr)]
        if include_end:
            mask.append(True)
        return mask

    def match_locations(self, rule_index: int, expr: Expr) -> List[Tuple[int, ...]]:
        """Locations where rule ``rule_index`` matches in ``expr``."""
        return self._rules[rule_index].find(expr)

    def apply(
        self, expr: Expr, rule_index: int, location_index: int = 0
    ) -> Expr:
        """Apply rule ``rule_index`` at its ``location_index``-th match."""
        rule = self._rules[rule_index]
        locations = self.match_paths(expr)[rule_index]
        if not locations:
            raise ValueError(f"rule {rule.name!r} does not match the expression")
        location_index = min(location_index, len(locations) - 1)
        return rule.apply_at(expr, locations[location_index])


_DEFAULT_RULESET: Optional[RuleSet] = None


def default_ruleset() -> RuleSet:
    """The default 84-rule TRS used throughout the paper's evaluation."""
    global _DEFAULT_RULESET
    if _DEFAULT_RULESET is None:
        rules: List[Rule] = []
        rules.extend(algebraic_rules())
        rules.extend(vectorization_rules())
        rules.extend(rotation_rules())
        rules.extend(balance_rules())
        _DEFAULT_RULESET = RuleSet(rules)
    return _DEFAULT_RULESET
