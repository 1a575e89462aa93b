import numpy as np
import pytest

import leafout as lf


@pytest.fixture(scope="session")
def geom5():
    return lf.build_geometry(5, 70.0, 30.0)


@pytest.fixture(scope="session")
def geom4():
    return lf.build_geometry(4, 1.0, 1.0)


@pytest.fixture(scope="session")
def uniform_minus30(geom5):
    rho = lf.uniform_state(geom5, np.radians(-30.0))
    rho.setflags(write=False)       # shared by every test of the session
    return rho


@pytest.fixture(scope="session")
def springs_bistable(geom5):
    # rest angles of the tailored bistable landscape demonstration
    return lf.SpringModel.uniform(geom5, 1.0, np.radians(120.0),
                                  np.radians(-30.0))


@pytest.fixture(scope="session")
def springs_grasp(geom5):
    # rest angles used for the multi-grasp energy curves
    return lf.SpringModel.uniform(geom5, 1.0, np.radians(60.0),
                                  np.radians(-120.0))
