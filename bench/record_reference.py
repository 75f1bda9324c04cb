#!/usr/bin/env python3
"""Record the distance of every variant of every ``distance`` slot.

    python3 bench/record_reference.py

Runs each variant through ``eaqecne.cli.main`` at the current commit and
writes ``bench/reference.json`` with the distances and a digest of each
variant's code file.  Rerun only when the slot schedule or the generator
changes, at a commit whose distances are trusted.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import sys
from contextlib import redirect_stdout

from run import WORK, import_package


def main() -> int:
    import_package()
    from eaqecne import cli
    import workloads as wl
    slots = wl.distance_slots()
    workdir = WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    d_all, digests = [], []
    try:
        for i, slot in enumerate(slots):
            _, Q = wl.field_pair(slot["q"])
            ds, ss = [], []
            for v in range(wl.VARIANTS):
                text = wl.code_text(Q, wl.distance_variant(i, slot, v))
                path = workdir / "code"
                path.write_text(text, encoding="utf-8")
                command = "mindist" if slot["kind"] == "mindist" else "analyze"
                out = io.StringIO()
                with redirect_stdout(out):
                    if cli.main([command, str(path)]) != 0:
                        raise RuntimeError(f"slot {i} variant {v} failed")
                found = re.search(r"(?:,|^d=)(\d+)[;\]\s]", out.getvalue())
                ds.append(int(found.group(1)))
                ss.append(wl.digest(text))
            d_all.append(ds)
            digests.append(ss)
            print(f"slot {i} {slot} d={ds}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(
        {"variants": wl.VARIANTS, "slots": slots, "d": d_all, "digest": digests},
        separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
