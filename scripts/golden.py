"""Check or regenerate the closed-form golden file.

Runs every closed form on its seeded draws (tests/golden_forms.py) and
compares the outputs bitwise with the golden file, printing the worst
relative delta per form and one line per moved output; the exit code is 1 if
any output moved. With --write, the file is regenerated instead.

Usage: python scripts/golden.py [--write] [FILE]
FILE defaults to tests/golden/closed_forms.json.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden_forms  # noqa: E402


def main(argv: list[str]) -> int:
    write = "--write" in argv
    paths = [arg for arg in argv if arg != "--write"]
    path = Path(paths[0]) if paths else golden_forms.GOLDEN
    if write:
        golden_forms.write(path)
        print(f"wrote {path}")
        return 0
    moved, worst = golden_forms.compare(json.loads(path.read_text()), golden_forms.records())
    for name, delta in worst.items():
        print(f"{name:24s} worst relative delta {delta:.3e}")
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
