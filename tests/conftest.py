"""Shared test helpers; the test modules import them with `from conftest
import ...`."""


def records(rep) -> list[tuple[str, str, float, bool]]:
    """(check_id, inputs, deviation, passed) of every check of rep, family by
    family in first-use order and each in check order: the records that
    write_json writes."""
    return [
        (check_id, inputs, dev, dev <= fam.tol)
        for check_id, fam in rep.families.items()
        for inputs, dev in zip(fam.formatted(), fam.deviations)
    ]
