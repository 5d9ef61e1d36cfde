"""Fixtures shared by every test module."""

import pytest

from ptlab import numerics


@pytest.fixture(autouse=True)
def cold_eigen_records():
    """Each test starts with no shared eigen record (numerics._eigenpairs),
    and so with none of the clusters and frames kept on them: no test passes
    on a record an earlier test warmed."""
    numerics._eig_record.cache_clear()
