"""Layout rules of the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "charsum"


def test_every_source_line_fits_in_100_columns():
    # a line count compares two versions only if neither joins lines to shrink
    wide = [
        f"{path.name}:{n}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not wide, wide
