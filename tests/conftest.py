"""Shared test helpers; the test modules import them with `from conftest
import ...`."""

import os
from pathlib import Path

# the interpreters that tests start import charsum from this checkout too,
# as pytest itself does through pyproject's `pythonpath`
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# the bound between a transform row and its literal oracle: the two sum the
# same terms in different orders, about 1e-14 apart at q = 59
ROUTE_TOL = 1e-12


def records(rep) -> list[tuple[str, str, float, bool]]:
    """(check_id, inputs, deviation, passed) of every check of rep, family by
    family in first-use order and each in check order: the records that
    write_json writes."""
    return [
        (check_id, inputs, dev, dev <= fam.tol)
        for check_id, fam in rep.families.items()
        for inputs, dev in zip(fam.formatted(), fam.deviations)
    ]


def failed_ids(rep) -> set[str]:
    """The check_id of every family of rep with a failed record."""
    return {check_id for check_id, _, _, passed in records(rep) if not passed}
