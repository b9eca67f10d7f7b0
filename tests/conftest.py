import pytest

from weylcalc import build_root_datum


@pytest.fixture(scope="session")
def sl2():
    return build_root_datum("SL2")


@pytest.fixture(scope="session")
def pgl2():
    return build_root_datum("PGL2")


@pytest.fixture(scope="session")
def sl3():
    return build_root_datum("SL3")


@pytest.fixture(scope="session")
def pgl3():
    return build_root_datum("PGL3")


@pytest.fixture(scope="session")
def sp4():
    return build_root_datum("Sp4")


@pytest.fixture(scope="session")
def a2_twisted():
    return build_root_datum("A2-twisted")


@pytest.fixture(scope="session")
def a3_twisted():
    return build_root_datum("A3-twisted")


# Simply connected groups beyond the presets, given by their Cartan
# matrices A[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering).
CARTAN_MATRICES = {
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "SL5": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}


def cartan_config(name):
    """The config of CARTAN_MATRICES[name]: the Cartan matrix as the simple
    roots and the identity as the coroots, so X is the coroot lattice."""
    cartan = CARTAN_MATRICES[name]
    n = len(cartan)
    return {
        "name": name,
        "rank": n,
        "roots": cartan,
        "coroots": [[int(i == j) for j in range(n)] for i in range(n)],
    }
