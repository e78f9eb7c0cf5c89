"""Output ledger: the bytes a small fixed CLI pipeline writes.

The pipeline is criterion 8's config (120 train / 30 test samples, 2
epochs, batch 4, lr 0.02, seed 7): ``gen-data``, ``train``, ``eval`` for
every guidance mode x readout variant, then ``visualize --sample 3`` once
per guidance mode. The sha256 of every file it writes, except the
``manifest_*.cfg`` files (they hold the temporary ``out_dir``), must equal
the committed ``tests/output_ledger.json``. The dataset's PPMs share one
digest, taken over (name, bytes) in sorted order.

Float results may round differently under another numpy, BLAS build or
SIMD level, so the ledger records the environment it was written on. On
any other environment the test skips and names the fields that differ.

A change that means to alter outputs rewrites the ledger with::

    PYTHONPATH=src python tests/test_output_ledger.py --write

and says which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from camloc.cli import main
from camloc.fusion import VARIANTS
from camloc.model import GUIDANCE_MODES

LEDGER = Path(__file__).with_name("output_ledger.json")

CONFIG = (
    "[dataset]\ntrain_samples = 120\ntest_samples = 30\nseed = 7\n\n"
    "[train]\nepochs = 2\nbatch_size = 4\nlearning_rate = 0.02\nseed = 7\n"
)
VISUALIZE_FILES = ("cam_a.pgm", "ccam.pgm", "cam_b.pgm", "fused.pgm", "overlay.ppm")


def environment() -> dict:
    """The numpy, BLAS and SIMD build that float results depend on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "simd_baseline": list(simd["baseline"]),
        "simd_found": list(simd["found"]),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(out: Path) -> dict:
    """Run the pipeline in ``out``; {file: sha256} of what it wrote."""
    config = out / "ledger.cfg"
    out.mkdir(parents=True, exist_ok=True)
    config.write_text(CONFIG)

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--config", str(config), "--out", str(out)])
        assert code == 0, f"{' '.join(argv)} exited {code}: {err.getvalue()}"

    cli("gen-data")
    cli("train")
    for mode in GUIDANCE_MODES:
        for variant in VARIANTS:
            cli("eval", "--cam-mode", mode, "--strategy", variant)

    digests = {}
    for mode in GUIDANCE_MODES:
        cli("visualize", "--cam-mode", mode, "--sample", "3")
        for name in VISUALIZE_FILES:
            digests[f"visualize_{mode}/{name}"] = sha256(out / name)
            (out / name).unlink()

    ppms = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.is_dir() or path == config or path.name.startswith("manifest_"):
            continue
        if path.suffix == ".ppm":
            data = path.read_bytes()
            ppms.update(f"{name}\0{len(data)}\0".encode())
            ppms.update(data)
        else:
            digests[name] = sha256(path)
    digests["dataset/*.ppm"] = ppms.hexdigest()
    return dict(sorted(digests.items()))


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    here = environment()
    differ = {key: (ledger["environment"].get(key), value) for key, value in here.items()
              if ledger["environment"].get(key) != value}
    if differ:
        pytest.skip(
            "the output ledger was written on another environment; "
            + "; ".join(f"{key}: ledger {old!r}, here {new!r}" for key, (old, new) in differ.items())
        )
    digests = run_pipeline(tmp_path / "run")
    changed = sorted(name for name in ledger["files"].keys() | digests.keys()
                     if ledger["files"].get(name) != digests.get(name))
    assert not changed, f"outputs differ from {LEDGER.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_ledger.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        files = run_pipeline(Path(scratch) / "run")
    LEDGER.write_text(json.dumps({"environment": environment(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {LEDGER}")
