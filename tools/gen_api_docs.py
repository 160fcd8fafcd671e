#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every public module of ``repro``, collects module, class and
function docstrings (first paragraph only — the full text lives in the
source), and writes a navigable markdown reference.  Run after API
changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

#: The address in a default object's repr (``<... object at 0x7f...>``)
#: changes from run to run; the generated file must not.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    text = inspect.cleandoc(doc)
    return text.split("\n\n")[0].replace("\n", " ")


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # Only document members defined in this package.
            mod = getattr(obj, "__module__", "")
            if mod.startswith("repro"):
                yield name, obj


def signature_of(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(…)"


def walk_modules():
    seen = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        name = info.name
        if any(part.startswith("_") for part in name.split(".")):
            continue
        if name in seen:
            continue
        seen.add(name)
        try:
            yield importlib.import_module(name)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"skipping {name}: {exc}", file=sys.stderr)


def main() -> None:
    lines = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    documented = set()
    for module in sorted(walk_modules(), key=lambda m: m.__name__):
        members = [
            (n, o)
            for n, o in public_members(module)
            # Attribute each object to the module that defines it, so
            # re-exports don't duplicate entries.
            if getattr(o, "__module__", "") == module.__name__
        ]
        if not members and not module.__doc__:
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        lines.append(first_paragraph(module.__doc__))
        lines.append("")
        for name, obj in sorted(members):
            key = f"{module.__name__}.{name}"
            if key in documented:
                continue
            documented.add(key)
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"### `{kind} {name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            if inspect.isclass(obj):
                for mname, meth in sorted(vars(obj).items()):
                    if mname.startswith("_") or not (
                        inspect.isfunction(meth) or isinstance(meth, staticmethod)
                    ):
                        continue
                    fn = meth.__func__ if isinstance(meth, staticmethod) else meth
                    lines.append(
                        f"- **`{mname}{signature_of(fn)}`** — {first_paragraph(fn.__doc__)}"
                    )
                lines.append("")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(documented)} documented objects)")


if __name__ == "__main__":
    main()
