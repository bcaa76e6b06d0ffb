"""README.md cites the package as it is.

Every ``game.``, ``analysis.``, ``channel.``, ``linalg.``, ``presets.``,
``verify.`` or ``cli.`` name the README cites is an attribute of that module,
and every ``keyword=`` in a backticked call of a package function is one of
that function's parameters.
"""

import importlib
import inspect
import re
from pathlib import Path

MODULES = ("game", "analysis", "channel", "linalg", "presets", "verify", "cli")
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# a module name not preceded by a word character, a dot or a slash: `game.payoffs`,
# not `np.linalg.eigh` or `tests/test_analysis.py`
REFERENCE = re.compile(rf"(?<![\w./])({'|'.join(MODULES)})\.(\w+)")
CALL = re.compile(rf"(?<![\w.])(?:({'|'.join(MODULES)})\.)?(\w+)\(([^()]*)\)")


def module(name):
    return importlib.import_module(f"qpd3.{name}")


def package_function(mod, name):
    """The qpd3 function or class ``name``, in module ``mod`` or, unqualified, in any."""
    for owner in [mod] if mod else MODULES:
        fn = getattr(module(owner), name, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("qpd3"):
            return fn
    return None


def code_spans(text):
    """The inline code spans of ``text``, fenced blocks left out."""
    return re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))


def test_readme_module_references_resolve():
    refs = set(REFERENCE.findall(README))
    assert len(refs) >= 30
    assert sorted(f"{m}.{name}" for m, name in refs if not hasattr(module(m), name)) == []


def test_readme_call_keywords_are_parameters():
    calls, wrong = 0, []
    for span in code_spans(README):
        for mod, name, args in CALL.findall(span):
            fn, keywords = package_function(mod, name), re.findall(r"(\w+)=(?!=)", args)
            if fn is None or not keywords:
                continue
            calls += 1
            params = inspect.signature(fn).parameters
            wrong += [f"{name}({key}=...)" for key in keywords if key not in params]
    assert calls >= 2  # analysis.best_response and analysis.nash_check with resolution=
    assert wrong == []
