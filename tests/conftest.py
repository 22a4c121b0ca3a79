import pytest


@pytest.fixture
def table_cfg(tmp_path):
    """A table-prepare scenario small enough for the module tests: one
    threshold, two position variances of three draws each, and a loose
    integrator tolerance.  Its outputs are named ``tbl_*``."""
    path = tmp_path / "tbl.cfg"
    path.write_text("[scenario]\nname = tbl\ntype = table-prepare\n"
                    "[geometry]\nxi12 = 0.5\nalpha = 0\n[drive]\ne_mu = 1.0\n"
                    "[sweep]\nthresholds = 0.9\nvariances = 1e-6, 0.005\n"
                    "samples = 3\n[integrator]\nrtol = 1e-5\n[run]\nseed = 7\n")
    return str(path)
