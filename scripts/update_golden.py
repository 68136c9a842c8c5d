#!/usr/bin/env python3
"""Rewrite the golden corpus digests, ``tests/golden/digests.json``, from
the current code, and list the cases whose record changed.

Run from anywhere:
    python scripts/update_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_corpus import CASES, DIGESTS, read_digests, run_case  # noqa: E402


def main() -> int:
    old = read_digests() if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = {name: run_case(name, Path(tmp) / str(i)) for i, name in enumerate(sorted(CASES))}
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(new)} cases, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
