"""Outputs do not depend on the BLAS thread count.

OpenBLAS splits a dot product of more than about 10,000 entries over its
threads, and the split changes how the sum rounds.  The package takes its
vector reductions with ``tensors.inner`` instead, so one and two BLAS
threads must give the same bytes.  Each thread count runs in a fresh
process, since OpenBLAS reads it when it loads: ``plasthom ergodic`` with
a box of 129 x 129 cells (L = 64), and a plastic Dirichlet fine-scale solve
on ``mesh_unit_square(72)``, whose 10,082 free dofs put every CG inner
product and Newton norm above that size.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json
import sys
from pathlib import Path

import numpy as np

from plasthom.cli import main
from plasthom.fem import mesh_unit_square
from plasthom.finescale import EpsProblemConfig, solve_eps
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.media import ProbabilityLaw, sample_realization

out = Path(sys.argv[1])
law = {"E": {"discrete": {"values": [1.0, 2.0]}}, "nu": {"point": 0.3},
       "sigma_y": {"point": 0.3}}
(out / "run.json").write_text(json.dumps(
    {"law": law, "ergodic": {"L_values": [16, 64], "n_seeds": 4}}))
assert main(["ergodic", "--config", str(out / "run.json"), "--out", str(out)]) == 0

shear = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.4]])
config = EpsProblemConfig(
    mesh=mesh_unit_square(72), medium=sample_realization(ProbabilityLaw.from_config(law), 0),
    epsilon=1 / 8, delta=0.003, time_grid=np.linspace(0.0, 1.0, 3),
    dirichlet=AffineBoundary(StrainPath(np.array([0.0, 1.0]), shear)))
traj = solve_eps(config)
np.savez(out / "eps.npz", u=traj.u, sigma=traj.sigma, p=traj.p,
         residual_norms=np.asarray(traj.residual_norms))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Output directory of the child run under 1 and under 2 BLAS threads."""
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out[threads] = tmp_path_factory.mktemp(f"blas{threads}")
        done = subprocess.run([sys.executable, "-c", CHILD, str(out[threads])], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    return out


def test_ergodic_csv_is_byte_identical(runs):
    one, two = ((runs[t] / "ergodic.csv").read_bytes() for t in ("1", "2"))
    assert b"\r\n64," in one
    assert one == two


def test_fine_scale_solve_is_bit_identical(runs):
    one, two = (np.load(runs[t] / "eps.npz") for t in ("1", "2"))
    assert (one["p"] != 0).any(), "the solve must reach plastic flow"
    for key in ("u", "sigma", "p", "residual_norms"):
        assert one[key].tobytes() == two[key].tobytes(), key
