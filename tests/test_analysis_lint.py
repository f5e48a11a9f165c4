"""Concurrency/determinism/hygiene lint: clean on the repo, loud on probes."""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_paths, lint_source


def _lint(source: str, path: str = "probe.py", wall_clock_ok: bool = False):
    return lint_source(
        textwrap.dedent(source), path, wall_clock_ok=wall_clock_ok
    )


def test_repo_is_lint_clean() -> None:
    report, files_checked = lint_paths()
    assert files_checked > 50  # the whole installed package walked
    assert report.ok, [f.render() for f in report.findings[:10]]
    assert not report.findings


class TestLockDiscipline:
    SOURCE = """
    import threading

    class Registry:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}  # guarded-by: _lock

        def good(self):
            with self._lock:
                self._items["a"] = 1

        def bad(self):
            self._items["a"] = 2
    """

    def test_unguarded_access_detected(self) -> None:
        report = _lint(self.SOURCE)
        assert not report.ok
        findings = [f for f in report.findings if f.rule == "guarded-by"]
        assert len(findings) == 1  # only the access outside the with block
        assert "_items" in findings[0].message
        assert findings[0].location.endswith(":14")  # the line inside bad()

    def test_holds_annotation_accepted(self) -> None:
        report = _lint(
            self.SOURCE.replace(
                "def bad(self):",
                "def bad(self):  # holds: _lock",
            )
        )
        assert report.ok

    def test_condition_alias_accepted(self) -> None:
        report = _lint(
            """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._ready = threading.Condition(self._lock)
                    self._entries = []  # guarded-by: _lock

                def pop(self):
                    with self._ready:
                        return self._entries.pop()
            """
        )
        assert report.ok


class TestDeterminism:
    def test_wall_clock_detected(self) -> None:
        report = _lint("import time\nstamp = time.time()\n")
        assert any(f.rule == "wall-clock" for f in report.findings)

    def test_wall_clock_allowed_on_serving_paths(self) -> None:
        report = _lint(
            "import time\nstamp = time.time()\n", wall_clock_ok=True
        )
        assert report.ok

    def test_unseeded_random_detected(self) -> None:
        report = _lint("import random\nx = random.random()\n")
        assert any(f.rule == "unseeded-random" for f in report.findings)

    def test_seeded_random_instance_accepted(self) -> None:
        report = _lint(
            "import random\nrng = random.Random(7)\nx = rng.random()\n"
        )
        assert report.ok

    def test_inline_waiver(self) -> None:
        report = _lint(
            "import time\nstamp = time.time()  # lint: allow(wall-clock)\n"
        )
        assert report.ok


class TestHygiene:
    def test_bare_except_detected(self) -> None:
        report = _lint("try:\n    pass\nexcept:\n    pass\n")
        assert any(f.rule == "bare-except" for f in report.findings)

    def test_mutable_default_detected(self) -> None:
        report = _lint("def f(items=[]):\n    return items\n")
        assert any(f.rule == "mutable-default" for f in report.findings)

    def test_syntax_error_is_a_finding(self) -> None:
        report = _lint("def broken(:\n")
        assert any(f.rule == "syntax-error" for f in report.findings)


class TestDynamicCode:
    def test_exec_eval_compile_detected(self) -> None:
        report = _lint(
            """
            code = compile("x = 1", "<probe>", "exec")
            exec(code, {})
            value = eval("1 + 1")
            """
        )
        findings = [f for f in report.findings if f.rule == "dynamic-code"]
        assert [f.location for f in findings] == ["probe.py:2", "probe.py:3", "probe.py:4"]
        assert "exec()" in findings[1].message

    def test_waived_call_accepted(self) -> None:
        report = _lint('exec("x = 1", {})  # lint: allow(dynamic-code)\n')
        assert report.ok

    def test_methods_and_shadowing_names_accepted(self) -> None:
        # re.compile is an attribute call; a module that defines or imports
        # its own compile calls that, not the builtin.
        report = _lint(
            """
            import re
            from repro.api import compile as build

            pattern = re.compile("a+")

            def compile(source):
                return source

            compile("(+ a b)")
            build("(+ a b)")
            """
        )
        assert report.ok
