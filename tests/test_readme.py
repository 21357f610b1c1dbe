"""The README's examples run, the library names it cites exist, and its
Library section names every public name."""
import importlib
import pkgutil
import re
from pathlib import Path

import traceineq

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones bind
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_cites_only_existing_sides_and_checks():
    modules = [traceineq] + [importlib.import_module(f"traceineq.{m.name}")
                             for m in pkgutil.iter_modules(traceineq.__path__)]
    cited = set(re.findall(r"`(?:\w+\.)*((?:check|rhs|lhs)_\w+)[`(]", README))
    assert cited
    missing = sorted(name for name in cited
                     if not any(hasattr(mod, name) for mod in modules))
    assert not missing


def test_public_names_are_named_and_documented():
    library = README.split("\n## Library\n")[1].split("\n## ")[0]
    unnamed = [name for name in traceineq.__all__
               if not re.search(rf"[`.]{name}\b", library)]
    assert not unnamed
    undocumented = []
    for name in traceineq.__all__:
        value = getattr(traceineq, name)
        doc = (value.__doc__ or "").strip() if callable(value) else "a constant"
        # dataclasses and NamedTuples make their signature their docstring
        if not doc or doc.startswith(f"{name}("):
            undocumented.append(name)
    assert not undocumented
