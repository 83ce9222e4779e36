"""Check or regenerate the golden files.

Runs every form of a slice on its seeded draws (tests/golden_forms.py): the
scalar closed forms (`closed_forms`), afm_mass on the verify_sweep
families (`afm_mass`), the field-extremization oracle on the same draws
(`oracle`) and the exact oscillator (`ho`). It compares the outputs with the
slice's golden file, bitwise unless golden_forms.TOLERANCE grants the form a
relative delta, printing the worst relative delta per form and one line per
output moved past it; the exit code is 1 if any output moved. With --write,
the files are regenerated instead.

Usage: python scripts/golden.py [--write] [FILE ...]
Each FILE's name (closed_forms.json, afm_mass.json, oracle.json, ho.json)
picks its slice; with no FILE, every slice's file under tests/golden/ is used.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden_forms  # noqa: E402


def main(argv: list[str]) -> int:
    write = "--write" in argv
    paths = [Path(arg) for arg in argv if arg != "--write"]
    paths = paths or [golden_forms.golden(name) for name in golden_forms.SLICES]
    unknown = [path for path in paths if path.stem not in golden_forms.SLICES]
    if unknown:
        print(f"error: no slice named {unknown[0].stem}; "
              f"the slices are {', '.join(golden_forms.SLICES)}", file=sys.stderr)
        return 2
    moved = []
    for path in paths:
        if write:
            golden_forms.write(path.stem, path)
            print(f"wrote {path}")
            continue
        lines, worst = golden_forms.compare(
            json.loads(path.read_text()), golden_forms.records(path.stem)
        )
        for name, delta in worst.items():
            print(f"{name:24s} worst relative delta {delta:.3e}")
        moved += lines
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
