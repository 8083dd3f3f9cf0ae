"""Copy oracle: every landed copy holds its source as of issue time.

A copy reads its source when it lands; a functional write over a source
still in flight must snapshot it first (copy-on-conflict).  The oracle
checks that contract from outside the program: :func:`install` wraps
:func:`repro.runtime.memcpy.copy_async` (and every ``repro`` module's
imported binding of it) so each copy records its source bytes when it
is issued and compares the destination bytes with them when it lands.

Use it through the ``copy_oracle`` fixture of ``tests/conftest.py``,
which fails the test if any copy landed other bytes than it was issued
with; ``checked`` counts the copies it compared.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from typing import List

import repro
from repro.errors import RuntimeApiError
from repro.runtime import memcpy


class CopyOracle:
    """Counts checked copies and collects the ones that landed wrong."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: List[str] = []

    def wrap(self, copy_async):
        """``copy_async`` with the issue-time/landing comparison around it."""

        def checked_copy_async(machine, dst, src, phase=None):
            try:
                issued = src.view.tobytes()
            except RuntimeApiError:
                # A released source: the copy itself raises the error.
                issued = None
            result = yield from copy_async(machine, dst, src, phase=phase)
            if issued is not None and len(src):
                self.checked += 1
                landed = dst.view.tobytes()
                if landed != issued:
                    self.mismatches.append(
                        f"{phase or 'copy'} {src.buffer!r}[{src.start}:"
                        f"{src.stop}] -> {dst.buffer!r}[{dst.start}:"
                        f"{dst.stop}] landed other bytes than it was "
                        f"issued with (t={machine.now:.9f})")
            return result

        return checked_copy_async

    def assert_clean(self) -> None:
        """Fail unless every checked copy landed its issue-time bytes."""
        assert not self.mismatches, "\n".join(self.mismatches[:10])


def install(monkeypatch) -> CopyOracle:
    """Route every ``copy_async`` call through a fresh :class:`CopyOracle`.

    Modules bind ``copy_async`` at import, so every ``repro`` module is
    imported first and each one's binding is patched, as well as the one
    in :mod:`repro.runtime.memcpy`.
    """
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    oracle = CopyOracle()
    original = memcpy.copy_async
    checked = oracle.wrap(original)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "copy_async", None) is original):
            monkeypatch.setattr(module, "copy_async", checked)
    return oracle
