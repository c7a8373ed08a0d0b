"""Every option has a caller: each optional parameter of a function or
method that ``qiclab`` exports is passed by some call in the repository.
Every function has a caller: each module-level function that ``qiclab``
exports is called outside the tests."""

import ast
import inspect
import types
from pathlib import Path

import qiclab

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")
OUTSIDE_TESTS = ("src", "demos", "perfbench")


def _exported_callables(namespace) -> dict[str, tuple[str, inspect.Signature]]:
    """``label -> (name it is called by, signature)`` for each public function
    and each method written in a public class that ``namespace`` defines or
    imports from its own package.

    Bound first parameters (``self``/``cls``) are dropped from the signature;
    methods a decorator generates from a string (a dataclass ``__init__``)
    are skipped, as no source file holds them.
    """
    out = {}
    for name in dir(namespace):
        obj = getattr(namespace, name)
        if name.startswith("_") or not getattr(obj, "__module__", "").startswith(namespace.__name__):
            continue
        if inspect.isfunction(obj):
            out[name] = (name, inspect.signature(obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if not inspect.isfunction(fn) or fn.__code__.co_filename.startswith("<"):
                    continue
                params = list(inspect.signature(fn).parameters.values())
                if not isinstance(member, staticmethod):
                    params = params[1:]
                out[f"{name}.{attr}"] = (attr, inspect.signature(fn).replace(parameters=params))
    return out


def _calls(source: str) -> list[tuple[str, int, set[str]]]:
    """``(callee name, positional arguments before any starred one, keywords)``
    for each call in ``source``; a ``**{"k": ...}`` literal passes ``k``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if callee is None:
            continue
        n_pos = next(
            (k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args)
        )
        keywords = set()
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Dict):
                keywords |= {
                    k.value for k in kw.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
        calls.append((callee, n_pos, keywords))
    return calls


def _options_without_caller(callables, sources) -> list[str]:
    """``label(param)`` for each optional parameter that no call passes,
    by keyword or by position, to a callee of that name."""
    calls = [c for s in sources for c in _calls(s)]
    missing = []
    for label, (callee, sig) in sorted(callables.items()):
        params = list(sig.parameters.values())
        for k, prm in enumerate(params):
            if prm.default is inspect.Parameter.empty or prm.kind in (prm.VAR_POSITIONAL, prm.VAR_KEYWORD):
                continue
            positional = prm.kind in (prm.POSITIONAL_ONLY, prm.POSITIONAL_OR_KEYWORD)
            if not any(
                name == callee and (prm.name in kws or positional and k < n_pos)
                for name, n_pos, kws in calls
            ):
                missing.append(f"{label}({prm.name})")
    return missing


def _functions_without_caller(callables, sources) -> list[str]:
    """Each module-level function in ``callables`` that no call names."""
    called = {name for s in sources for name, _, _ in _calls(s)}
    return sorted(label for label in callables if "." not in label and label not in called)


def _repository_sources(dirs=SEARCHED) -> list[str]:
    return [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_exported_option_has_a_caller():
    missing = _options_without_caller(_exported_callables(qiclab), _repository_sources())
    assert not missing, "exported options no call passes:\n" + "\n".join(missing)


def test_every_exported_function_has_a_caller_outside_tests():
    missing = _functions_without_caller(
        _exported_callables(qiclab), _repository_sources(OUTSIDE_TESTS)
    )
    assert not missing, "exported functions only tests call:\n" + "\n".join(missing)


def test_guard_counts_keyword_positional_and_literal_unpacking():
    planted = types.ModuleType("planted")
    source = "\n".join(
        [
            "from dataclasses import dataclass",
            "def f(a, b=1, *, c=2, d=3, e=4, g=5): pass",
            "def _private(h=0): pass",
            "def lonely(): pass",
            "@dataclass",
            "class K:",
            "    field: int = 0",
            "    def m(self, x=0, y=0): pass",
            "    @classmethod",
            "    def build(cls, z=0): pass",
            "    @staticmethod",
            "    def s(w=0): pass",
        ]
    )
    exec(compile(source, "planted.py", "exec"), planted.__dict__)
    calls = [
        "f(0, 1)",  # b by position
        "mod.f(0, c=2)",  # c by keyword, through an attribute
        "f(0, **{'d': 3})",  # d through a literal mapping
        "f(0, **opts)",  # a mapping of unknown keys passes nothing
        "f(*args)",  # nor does a starred sequence
        "k.m(1)",  # x by position on a method; y never
        "K.build()",  # z never
        "K.s(1)",  # w by position on a static method
        "'f(0, e=1)'",  # a string is not a call
        "'lonely()'",
    ]
    assert _options_without_caller(_exported_callables(planted), calls) == [
        "K.build(z)",
        "K.m(y)",
        "f(e)",
        "f(g)",
    ]
    # methods and private functions are not asked for a caller
    assert _functions_without_caller(_exported_callables(planted), calls) == ["lonely"]
