import os
import subprocess
import sys
import zipfile
from pathlib import Path

import lipext

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in lipext.__all__ if not hasattr(lipext, name)]
    assert missing == []


def test_public_names_are_the_documented_surface():
    assert sorted(lipext.__all__) == sorted("""
        ATOM_NAMES BASE_METRICS LINEAR_BASIS SQRT_BASIS CompositionMetric
        ConstantsReport CvReport Dataset ExtensionModel FitError IndexedSample
        PhiCombination PsoConfig SwarmResult coherence_constant constants_report
        cross_validate error_bound fit_extension fit_for_extend identity_phi
        index_bound katetov_shift linear_fit minimize_kq
        minmax_scale objective_kq optimal_alpha phi_eval predict pso_minimize
        rank rmse split
    """.split())


def test_importing_the_cli_leaves_openssl_hashing_out():
    # ``_hashlib`` costs about 3.5 MiB of RSS; only the commands that hash a
    # dataset or draw from ``numpy.random`` import it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, lipext.cli\nprint('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def test_table1_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "table1_demo.py"), "--repeats", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("ranking of unindexed rows:") == 2
    assert "Montreal" in done.stdout and "Toronto" in done.stdout


def test_bundled_data_reads_from_zipped_package(tmp_path):
    archive = tmp_path / "lipext.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in sorted((ROOT / "src" / "lipext").rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                zf.write(f, f.relative_to(ROOT / "src"))
    code = (
        "import lipext, sys\n"
        "from lipext.dataio import read_dataset, table1_path\n"
        "assert lipext.__file__.startswith(sys.argv[1]), lipext.__file__\n"
        "print(read_dataset(table1_path()).n_rows)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(archive))
    done = subprocess.run(
        [sys.executable, "-c", code, str(archive)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "6\n"
