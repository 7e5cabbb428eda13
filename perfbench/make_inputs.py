"""Regenerate the fixed inputs in perfbench/data.

Run from the repository root:

    python3 perfbench/make_inputs.py

It writes

* ``demo_model.json`` and ``example_model.json``: byte copies of the models
  bundled with the package, so a later edit of the package data cannot change
  what the benchmark asks of the program;
* ``bank_distributed.json`` and ``bank_centralized.json``: ``mjls synthesize``
  on the demo model with ``--decay 1.5 --max-iter 60000``, the README
  walkthrough's arguments, for the two schemes;
* ``single_region_model.json``: the demo model cut down to its region-(1,1)
  data (first rate and emission matrix of each system, no thresholds), so the
  two subsystems evolve independently and the Monte Carlo estimate has an exact
  oracle;
* ``bank_single_region.json``: the region-(1,1) gains of the distributed bank
  with its own Lyapunov matrices, which certify the cut-down model unchanged.

Every bank is checked by ``checks.check_bank`` before it is written; the
benchmark checks them again each time it loads them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
DECAY = 1.5

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


def canonical(doc) -> str:
    # Same layout as the files the program writes: sorted keys, no spaces.
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def synthesize(cli, model: Path, scheme: str, out: Path) -> None:
    argv = ["synthesize", str(model), "--scheme", scheme, "--decay", str(DECAY),
            "--max-iter", "60000", "--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"mjls {' '.join(argv)} exited {rc}:\n{buf.getvalue()}")


def single_region(model_doc: dict) -> dict:
    doc = {key: model_doc[key] for key in ("system1", "system2")}
    doc["partition1"] = {"thresholds": []}
    doc["partition2"] = {"thresholds": []}
    for key in ("rates1", "rates2", "obs1", "obs2"):
        doc[key] = [model_doc[key][0]]
    doc["notes"] = (
        "Demo model restricted to region pair (1,1): the first rate and emission "
        "matrix of each system and no shell thresholds, so the subsystems never "
        "couple and E|x|^2 has an exact discrete-time recursion."
    )
    return doc


def single_region_bank(model_doc: dict, bank_doc: dict) -> dict:
    gains = [g for g in bank_doc["gains"] if (g["region1"], g["region2"]) == (1, 1)]
    p_all = bank_doc["certificate"]["P"]
    bank = {"scheme": "distributed", "gains": gains,
            "certificate": {"P": p_all, "margins": [], "delta": bank_doc["certificate"]["delta"],
                            "certified": True}}
    model = checks.Model(model_doc)
    # The margins list follows the program's (system, mode, cell) order; with
    # one cell that is system-major, then mode.
    bank["certificate"]["margins"] = [
        float(np.linalg.eigvalsh(form.matrix)[-1]) for form in checks.bank_forms(model, bank)
    ]
    return bank


def main() -> None:
    src = ROOT / "src"
    if not (src / "mjls" / "__init__.py").is_file():
        raise SystemExit(f"no mjls package under {src}")
    sys.path.insert(0, str(src))
    from mjls import cli

    DATA.mkdir(exist_ok=True)
    for name in ("demo_model.json", "example_model.json"):
        shutil.copyfile(src / "mjls" / "data" / name, DATA / name)
    demo_doc = checks.load_json(DATA / "demo_model.json")
    demo = checks.Model(demo_doc)

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for scheme in ("distributed", "centralized"):
            out = Path(tmp) / f"bank_{scheme}.json"
            synthesize(cli, DATA / "demo_model.json", scheme, out)
            checks.check_bank(demo, checks.load_json(out), decay=DECAY)
            shutil.copyfile(out, DATA / out.name)

    single_doc = single_region(demo_doc)
    single_bank = single_region_bank(single_doc, checks.load_json(DATA / "bank_distributed.json"))
    checks.check_bank(checks.Model(single_doc), single_bank, decay=DECAY)
    (DATA / "single_region_model.json").write_text(canonical(single_doc))
    (DATA / "bank_single_region.json").write_text(canonical(single_bank))
    for path in sorted(DATA.iterdir()):
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
