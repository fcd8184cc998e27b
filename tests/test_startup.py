"""Start-up: a command imports only the layers it runs.

Each check runs a fresh interpreter, since this test session has long
since imported the simulator itself."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("coopcode.simkernel", "numpy.random", "multiprocessing", "concurrent.futures")


def _last_line(probe: str) -> str:
    """The last line a fresh interpreter prints after it runs `probe`."""
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


def _loaded_after(code: str) -> list:
    """The HEAVY modules loaded in a fresh interpreter after it runs `code`."""
    line = _last_line(f"{code}\nimport sys\n"
                      f"print('loaded:' + ','.join(m for m in {HEAVY!r} if m in sys.modules))")
    return [m for m in line[len("loaded:"):].split(",") if m]


def test_importing_the_cli_loads_no_simulator_or_pool():
    assert _loaded_after("import coopcode.cli") == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--snr-stop-db", "10"],
    ["analyze", "--traffic", "unicast", "--kind", "cauchy"],
    ["dmt", "--scheme", "dncc,selection,ncc,cc", "--k-select", "1"],
    ["construct", "--q", "8"],
])
def test_commands_without_a_sweep_load_no_simulator_or_pool(argv):
    run = f"from coopcode import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(run) == []


def test_a_one_worker_sweep_loads_no_pool():
    run = "from coopcode import cli\nassert cli.main(['simulate', '--trials', '10']) == 0"
    assert _loaded_after(run) == ["coopcode.simkernel", "numpy.random"]


@pytest.mark.parametrize("argv", [
    ["construct"], ["analyze"], ["simulate", "--trials", "10"], ["dmt"],
])
def test_a_command_loads_no_c_library(argv):
    """main leaves the calling process as it found it: no ctypes.CDLL, the
    way to reach the C library's allocator settings."""
    probe = ("import ctypes\nloads = []\nctypes.CDLL = lambda *a, **kw: loads.append(a)\n"
             f"from coopcode import cli\nassert cli.main({argv!r}) == 0\nprint(loads)")
    assert _last_line(probe) == "[]"
