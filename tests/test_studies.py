"""The study scripts import only names the package defines, and they
run.

Each script under `studies/` runs once per session, inside the
package's real traffic (`conftest.real_traffic`, which the reach test
of `test_package_api.py` reads too); these tests read what each study
left there.  A name deleted from the package raises `ImportError` in the
study that imports it.
"""

import pytest

from conftest import STUDIES


def test_studies_are_found():
    assert len(STUDIES) >= 5


@pytest.mark.parametrize("path", STUDIES, ids=lambda p: p.name)
def test_study_imports_exist(path, real_traffic):
    study = real_traffic.studies[path.name]
    assert not isinstance(study.error, ImportError), study.error
    # A study that raises leaves no namespace; `test_quick_study_runs`
    # names its error.
    assert study.error or study.imports_package, f"{path.name} imports nothing from monge1d"


@pytest.mark.parametrize("path", STUDIES, ids=lambda p: p.name)
def test_quick_study_runs(path, real_traffic):
    study = real_traffic.studies[path.name]
    if study.error is not None:
        raise study.error
    assert study.printed.strip()
