import pytest

from pccorrupt import NetworkState, TrainConfig, train

from synthdata import labelled_clouds


@pytest.fixture(scope="session")
def small_model():
    """A quickly trained 2-class (sphere vs box) classifier with narrow layers.

    Shared by the attack/adaptation tests, which only need *some* trained
    state, not an accurate one.
    """
    data = labelled_clouds(12, 48, seed=7, n_classes=2)
    state = NetworkState.create(2, seed=1, point_dims=(8, 16, 32), head_dim=16)
    config = TrainConfig(epochs=10, batch_size=8, lr=3e-3, seed=3)
    best, history = train(state, data, config)
    return best, data


def _openblas_libraries():
    """Every OpenBLAS this process has loaded, as (getter, setter) pairs."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        getters = [getattr(lib, name) for name in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ) if hasattr(lib, name)]
        set_count = lib.openblas_set_num_threads_local
        getters[0].argtypes, getters[0].restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], ctypes.c_int
        found.append((getters[0], set_count))
    assert found, "no OpenBLAS loaded; the BLAS cap of gen and attack would be a no-op"
    return found


@pytest.fixture
def openblas_at_two_threads():
    """Every loaded OpenBLAS at 2 threads for the test, whatever the environment set."""
    libs = _openblas_libraries()
    previous = [set_count(2) for _, set_count in libs]
    yield lambda: [get_count() for get_count, _ in libs]
    for (_, set_count), count in zip(libs, previous):
        set_count(count)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts after the normal test summary."""
    try:
        from test_acceptance import RESULTS
    except Exception:
        return
    if RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in RESULTS:
            terminalreporter.write_line(line)
