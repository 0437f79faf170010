"""Byte-level golden outputs of the CLI and a per-row reference of ``sweep``.

The sha256 values pin the exact artifacts, so any change to the order or
precision of the forward model's arithmetic shows up here.  They were
captured with numpy 2.4.6 on an x86-64 CPU with AVX-512.  They hold for
that SIMD class of host, not for one BLAS: numpy picks its ``exp``,
``log`` and ``arccos`` loops per CPU, and with its AVX-512 loops switched
off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL"``) those functions
move by up to 1 ulp on a few percent of inputs and every hash here fails,
while forcing other OpenBLAS kernels (``OPENBLAS_CORETYPE``) changes none.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from spectratact import NoiseModel, SensorConfig, sweep
from spectratact.cli import main
from spectratact.contact import bending_gain, coupled_fraction, strained_dye
from spectratact.sensor import RELATIVE_INTENSITY_FLOOR
from spectratact.spectral import attenuate, integrate_channels
from spectratact.twin import TwinAssembly, encoder_sensor_config

POSITIONS = "0:85:18"
# zero, the contact threshold, the steep region, and past saturation
FORCES = "0,0.1,0.35,1,2.5,6,10,15"
NOISE_ARGS = {
    "snr_db": ["--snr-db", "30", "--seed", "7"],
    "absolute_sigma": ["--noise-sigma", "0.5", "--seed", "7"],
    "noise_free": [],
}
CONFIGS = {"default": SensorConfig.default, "encoder": encoder_sensor_config}

GOLDEN = {
    "default/snr_db/sweep.csv":
        "d7feaa31262e1b3bfaee14748c6dfe46c891009be3579c1ace4db8f35871c5bc",
    "default/absolute_sigma/sweep.csv":
        "e013583e81798bdec7bd4c0a10d89afb8f0a64622f0f5778e47f228886b71270",
    "default/noise_free/sweep.csv":
        "5d10fcc34ed8faa99a7ef6788ebe200b8c10fbd6bc4be26a02def82c6f875d1e",
    "encoder/snr_db/sweep.csv":
        "36b67d8e418babf03b6d182ea7a2d46f67d28a6885e546a66671e10b88d268da",
    "encoder/absolute_sigma/sweep.csv":
        "dbbbdc50cd6f7a818b1b6fa381c317cfa850c6bbb958e2243c8692948521744a",
    "encoder/noise_free/sweep.csv":
        "dffa9b15624c97afd8ccdd5384fb866929490393cca7cd39ab1bafe3b42258a5",
    "calibration.json":
        "9593c2dd52ad3a64c7278c403be236de847126efb5471e085a46c22bbe85f2d9",
    "decoded.csv":
        "9d0b595e0ed1ae5d393a477d7c1769028b0e149d5dcc169ea17845edf9bac4f3",
    "reconstructed.csv":
        "0d9f8e01fe81ab7d545e9ccaec09f28b27034fd4b34abe2ee2d2251d134a72b5",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    assert main(list(argv)) == 0


def build_artifacts(root):
    """Run the CLI chain under ``root``; map each golden name to its file."""
    out = {}
    for name, make in CONFIGS.items():
        config_path = root / f"{name}.json"
        config_path.write_text(json.dumps(make().to_dict()))
        for mode, noise_args in NOISE_ARGS.items():
            run_dir = root / name / mode
            run("simulate", "--config", str(config_path), "--out", str(run_dir),
                "--positions", POSITIONS, "--forces", FORCES, *noise_args)
            out[f"{name}/{mode}/sweep.csv"] = run_dir / "sweep.csv"
    config = str(root / "default.json")
    run("simulate", "--config", config, "--out", str(root / "cal"),
        "--positions", "0:85:12", "--forces", "0.1:10:11", "--snr-db", "40", "--seed", "5")
    run("calibrate", "--config", config, "--out", str(root / "calib"),
        "--samples", str(root / "cal" / "sweep.csv"))
    out["calibration.json"] = root / "calib" / "calibration.json"
    run("decode", "--out", str(root / "dec"),
        "--calibration", str(out["calibration.json"]),
        "--readings", str(out["default/snr_db/sweep.csv"]))
    out["decoded.csv"] = root / "dec" / "decoded.csv"
    twin_path = root / "twin.json"
    twin_path.write_text(json.dumps(TwinAssembly().to_dict()))
    run("track", "--config", str(twin_path), "--out", str(root / "track"),
        "--generate", "circle:40:40:125:50", "--angle-sigma-deg", "0.05", "--seed", "3")
    out["reconstructed.csv"] = root / "track" / "reconstructed.csv"
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return build_artifacts(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes(artifacts, name):
    assert sha256(artifacts[name]) == GOLDEN[name]


def reference_sweep(config, positions, forces, noise, seed):
    """Row-at-a-time forward model from the public spectral operations."""
    stimuli = [(float(p), float(f)) for p in positions for f in forces]
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(len(stimuli))]
    dye = strained_dye(config.dye, config.perturbation.strain)
    full_scale = float(integrate_channels(config.source, config.bank).sum())
    rows = []
    for (position, force), rng in zip(stimuli, rngs):
        fraction = coupled_fraction(config.coupling, force)
        clear = math.exp(-config.clear_loss_per_mm * position)
        filtered = attenuate(config.source, dye, position)
        values = (fraction * clear * integrate_channels(filtered, config.bank)
                  * bending_gain(config.perturbation))
        if noise is not None:
            sigma = noise.sigma_vector(values)
            values = np.maximum(values + rng.standard_normal(len(values)) * sigma, 0.0)
        rows.append(np.where(values < RELATIVE_INTENSITY_FLOOR * full_scale, 0.0, values))
    return np.array(rows)


@pytest.mark.parametrize("make", list(CONFIGS.values()), ids=list(CONFIGS))
@pytest.mark.parametrize("noise", [
    NoiseModel("snr_db", 25.0),
    NoiseModel("absolute_sigma", 0.5),
    None,
], ids=["snr_db", "absolute_sigma", "noise_free"])
def test_sweep_matches_row_reference(make, noise):
    config = make()
    positions = np.linspace(0.0, config.length_mm, 41)
    forces = [0.0, 0.1, 0.2, 1.0, 4.0, 20.0]
    rows = sweep(config, positions, forces, noise, seed=11)
    got = np.array([r.reading.values for r in rows])
    assert np.array_equal(got, reference_sweep(config, positions, forces, noise, 11))
