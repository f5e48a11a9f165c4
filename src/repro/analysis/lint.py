"""AST lint enforcing the project's concurrency and determinism rules.

The serving stack shares mutable state across client threads and the server
thread; the compilation stack promises deterministic, seedable behaviour.
Both promises are conventions — this lint makes them checkable:

``lint-locks`` (lock discipline, rule ``guarded-by``)
    Attributes assigned in ``__init__`` with a trailing
    ``# guarded-by: <lock>`` comment are *guarded*: every other access of
    ``self.<attr>`` inside the class must sit lexically inside a
    ``with self.<lock>:`` block.  A ``threading.Condition(self._lock)``
    assigned to an attribute makes that attribute an *alias* — holding the
    condition holds the lock.  A method that is only ever called with the
    lock already held declares it with a ``# holds: <lock>`` comment on its
    ``def`` line.

``lint-determinism`` (rules ``wall-clock`` / ``unseeded-random``)
    ``time.time()`` and module-level ``random.*`` calls are banned outside
    the serving layers (``server/``, ``service/``, ``obs/`` — where wall
    time and jitter are the point): compilation, tape specialization,
    studies and workload sampling must be reproducible from a seed.
    Explicitly seeded generators (``random.Random(seed)``) are fine.

``lint-hygiene`` (rules ``bare-except`` / ``mutable-default`` / ``dynamic-code``)
    No bare ``except:`` (swallows ``KeyboardInterrupt``/``SystemExit``),
    no mutable default arguments, and no calls to the builtins ``exec``,
    ``eval`` or ``compile`` (a module that binds one of those names itself,
    as ``repro.api`` defines ``compile``, calls its own).  Code built at run
    time is audited at each call: the waiver comment sits on the line, next
    to a comment saying what may enter the source.

Any finding can be waived at the line with ``# lint: allow(<rule>)``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import AnalysisReport, Severity, register_checker

__all__ = ["lint_source", "lint_paths", "default_target"]

#: Top-level package directories where wall-clock time and jitter are the
#: point (schedulers, latency metrics, live consoles) — the determinism
#: rules do not apply there.
_WALL_CLOCK_DIRS = frozenset({"server", "service", "obs"})

#: Module-level ``random.<fn>`` calls that draw from the shared, unseeded
#: global generator.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "seed",
    }
)


def default_target() -> Path:
    """The directory ``repro lint`` checks by default: the package itself."""
    return Path(__file__).resolve().parents[1]


def _waived(line: str, rule: str) -> bool:
    return f"# lint: allow({rule})" in line


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# lint-locks
# ---------------------------------------------------------------------------
class _ClassLockInfo:
    """Lock annotations harvested from one class' ``__init__``."""

    def __init__(self) -> None:
        #: guarded attribute -> lock attribute names that protect it
        self.guarded: Dict[str, Set[str]] = {}
        #: condition attribute -> underlying lock attribute it wraps
        self.aliases: Dict[str, str] = {}

    def held_after(self, held: Set[str]) -> Set[str]:
        """Close ``held`` over condition aliases."""
        closed = set(held)
        for name in held:
            if name in self.aliases:
                closed.add(self.aliases[name])
        return closed


def _harvest_init(init: ast.FunctionDef, lines: Sequence[str]) -> _ClassLockInfo:
    info = _ClassLockInfo()
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        attrs = [a for a in (_self_attr(t) for t in targets) if a]
        if not attrs:
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        marker = "# guarded-by:"
        if marker in line:
            lock_names = {
                name.strip()
                for name in line.split(marker, 1)[1].split(",")
                if name.strip()
            }
            for attr in attrs:
                info.guarded.setdefault(attr, set()).update(lock_names)
        # threading.Condition(self._lock) assigned to self.<attr> makes
        # <attr> an alias: holding the condition holds the lock.
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "Condition"
            and value.args
        ):
            wrapped = _self_attr(value.args[0])
            if wrapped:
                for attr in attrs:
                    info.aliases[attr] = wrapped
    return info


def _declared_holds(def_line: str) -> Set[str]:
    marker = "# holds:"
    if marker not in def_line:
        return set()
    return {
        name.strip()
        for name in def_line.split(marker, 1)[1].split(",")
        if name.strip()
    }


def _check_method_locks(
    method: ast.FunctionDef,
    info: _ClassLockInfo,
    lines: Sequence[str],
    path: str,
    report: AnalysisReport,
) -> None:
    held0 = info.held_after(_declared_holds(lines[method.lineno - 1]))

    def scan(node: ast.AST, held: Set[str]) -> None:
        if isinstance(node, ast.With):
            acquired = set(held)
            for item in node.items:
                scan(item.context_expr, held)
                attr = _self_attr(item.context_expr)
                if attr:
                    acquired.add(attr)
            acquired = info.held_after(acquired)
            for stmt in node.body:
                scan(stmt, acquired)
            return
        attr = _self_attr(node) if isinstance(node, ast.Attribute) else None
        if attr and attr in info.guarded:
            if not info.guarded[attr] & held:
                line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
                if not _waived(line, "guarded-by"):
                    locks = ", ".join(sorted(info.guarded[attr]))
                    report.add(
                        "lint-locks",
                        "guarded-by",
                        Severity.ERROR,
                        f"self.{attr} is guarded by {locks} but accessed "
                        "outside any `with self.<lock>:` block",
                        location=f"{path}:{node.lineno}",
                    )
        for child in ast.iter_child_nodes(node):
            scan(child, held)

    for stmt in method.body:
        scan(stmt, held0)


def _check_class_locks(
    klass: ast.ClassDef,
    lines: Sequence[str],
    path: str,
    report: AnalysisReport,
) -> None:
    init = next(
        (
            node
            for node in klass.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ),
        None,
    )
    if init is None:
        return
    info = _harvest_init(init, lines)
    if not info.guarded:
        return
    for node in klass.body:
        if isinstance(node, ast.FunctionDef) and node.name != "__init__":
            _check_method_locks(node, info, lines, path, report)


@register_checker(
    "lint-locks",
    "lint",
    "guarded-by lock discipline on shared mutable attributes",
)
def check_locks(
    tree: ast.Module, lines: Sequence[str], path: str, report: AnalysisReport
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _check_class_locks(node, lines, path, report)
    report.mark_ran("lint-locks")


# ---------------------------------------------------------------------------
# lint-determinism
# ---------------------------------------------------------------------------
@register_checker(
    "lint-determinism",
    "lint",
    "no wall clock or unseeded global RNG in deterministic paths",
)
def check_determinism(
    tree: ast.Module, lines: Sequence[str], path: str, report: AnalysisReport
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
        ):
            continue
        module, name = func.value.id, func.attr
        rule = None
        if module == "time" and name in ("time", "time_ns"):
            rule = "wall-clock"
            message = (
                f"time.{name}() in a deterministic path; use a monotonic "
                "or injected clock, or move timing into the serving layer"
            )
        elif module == "random" and name in _GLOBAL_RANDOM_FNS:
            rule = "unseeded-random"
            message = (
                f"random.{name}() draws from the global unseeded generator; "
                "use an explicit random.Random(seed)"
            )
        if rule is None:
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if _waived(line, rule):
            continue
        report.add(
            "lint-determinism",
            rule,
            Severity.ERROR,
            message,
            location=f"{path}:{node.lineno}",
        )
    report.mark_ran("lint-determinism")


# ---------------------------------------------------------------------------
# lint-hygiene
# ---------------------------------------------------------------------------
#: Builtins that run source text built at run time.
_DYNAMIC_CODE = frozenset({"exec", "eval", "compile"})


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name the module binds: defs, classes, imports, assignments and
    parameters.  A call to one of these is not a call to the builtin."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


@register_checker(
    "lint-hygiene",
    "lint",
    "no bare except clauses, mutable default arguments or unwaived exec/eval/compile",
)
def check_hygiene(
    tree: ast.Module, lines: Sequence[str], path: str, report: AnalysisReport
) -> None:
    dynamic = _DYNAMIC_CODE - _bound_names(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in dynamic
        ):
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if not _waived(line, "dynamic-code"):
                report.add(
                    "lint-hygiene",
                    "dynamic-code",
                    Severity.ERROR,
                    f"{node.func.id}() runs source built at run time; waive it "
                    "with a comment saying what may enter the source",
                    location=f"{path}:{node.lineno}",
                )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if not _waived(line, "bare-except"):
                report.add(
                    "lint-hygiene",
                    "bare-except",
                    Severity.ERROR,
                    "bare `except:` also swallows KeyboardInterrupt and "
                    "SystemExit; catch Exception or something narrower",
                    location=f"{path}:{node.lineno}",
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    line = (
                        lines[default.lineno - 1]
                        if default.lineno <= len(lines)
                        else ""
                    )
                    if _waived(line, "mutable-default"):
                        continue
                    report.add(
                        "lint-hygiene",
                        "mutable-default",
                        Severity.ERROR,
                        f"mutable default argument in {node.name}(); the "
                        "object is shared across calls — default to None",
                        location=f"{path}:{default.lineno}",
                    )
    report.mark_ran("lint-hygiene")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def lint_source(
    source: str,
    path: str,
    *,
    report: Optional[AnalysisReport] = None,
    wall_clock_ok: bool = False,
) -> AnalysisReport:
    """Lint one module's source text."""
    report = report if report is not None else AnalysisReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.add(
            "lint-hygiene",
            "syntax-error",
            Severity.ERROR,
            f"cannot parse: {exc.msg}",
            location=f"{path}:{exc.lineno or 0}",
        )
        return report
    lines = source.splitlines()
    check_locks(tree, lines, path, report)
    if not wall_clock_ok:
        check_determinism(tree, lines, path, report)
    check_hygiene(tree, lines, path, report)
    return report


def _is_wall_clock_ok(file: Path, root: Path) -> bool:
    try:
        parts = file.resolve().relative_to(root.resolve()).parts
    except ValueError:
        return False
    return bool(parts) and parts[0] in _WALL_CLOCK_DIRS


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    *,
    root: Optional[Path] = None,
) -> Tuple[AnalysisReport, int]:
    """Lint ``paths`` (files or directories; default: the repro package).

    Returns ``(report, files_checked)``.  Files under the serving layers
    (:data:`_WALL_CLOCK_DIRS` relative to ``root``) skip the determinism
    rules; every other rule applies everywhere.
    """
    root = root or default_target()
    targets = [Path(p) for p in paths] if paths else [root]
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            files.append(target)
    report = AnalysisReport()
    for file in files:
        report = lint_source(
            file.read_text(encoding="utf-8"),
            str(file),
            report=report,
            wall_clock_ok=_is_wall_clock_ok(file, root),
        )
    return report, len(files)
