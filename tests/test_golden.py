"""Byte-level golden outputs of the CLI and the workspace maps, and a per-row
reference of ``sweep``.

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
from spectratact.contact import coupled_fraction, strained_dye
from spectratact.fivebar import FiveBarConfig, GridSpec, deviation_map, workspace_mask
from spectratact.sensor import RELATIVE_INTENSITY_FLOOR
from spectratact.spectral import attenuate, integrate_channels
from spectratact.twin import (TwinAssembly, encoder_sensor_config, generate_path,
                              snr_db_for_angle_sigma, track)

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
    "wide_seed/reconstructed.csv":
        "824e92a376fe876cf7a974201920db7ff00fc12b5e55f5bbc453648bc63763b5",
    "design.csv":
        "bc91a47903ca3332aa793a4fb61169d840595d766b0f4f20816809cca3a2eeb3",
}
# seeds of more than one 32-bit word: three for the noisy track, two for the map
WIDE_TRACK_SEED = 2**70 + 11
WIDE_MAP_SEED = 2**40 + 3

# a small grid over the map benchmark's box: about a third of it is
# unreachable or on the lower assembly branch, and it reaches the fold
MAP_GRID = GridSpec(-60.0, 140.0, 1.0, 200.0, 24, 24)
# the benchmark's full 80x80 box, many cells to a Monte Carlo chunk and a
# partial last one; and a coarse grid whose trial count exceeds a chunk
MAP_BOX = GridSpec(-60.0, 140.0, 1.0, 200.0, 80, 80)
MAP_COARSE = GridSpec(-60.0, 140.0, 1.0, 200.0, 6, 6)
MAPS = {
    "deviation_map/jacobian": lambda: deviation_map(FiveBarConfig(), 0.1, MAP_GRID, seed=8),
    "deviation_map/monte_carlo": lambda: deviation_map(FiveBarConfig(), 0.1, MAP_GRID, seed=8,
                                                       method="monte_carlo"),
    "deviation_map/monte_carlo/wide_seed": lambda: deviation_map(
        FiveBarConfig(), 0.1, MAP_GRID, seed=WIDE_MAP_SEED, method="monte_carlo"),
    "deviation_map/monte_carlo/80x80": lambda: deviation_map(
        FiveBarConfig(), 0.1, MAP_BOX, seed=8, method="monte_carlo"),
    "deviation_map/monte_carlo/10000_trials": lambda: deviation_map(
        FiveBarConfig(), 0.1, MAP_COARSE, seed=8, method="monte_carlo", n_trials=10000),
    "workspace_mask": lambda: workspace_mask(FiveBarConfig(), MAP_GRID),
}
MAP_GOLDEN = {
    "deviation_map/jacobian":
        "550ffeb4205cf67575e3cc40e1566effe43fe0ca4796a89db1d632abae215f2f",
    "deviation_map/monte_carlo":
        "81e13665843ccdb48f1d3b4a9769176de497901a407421a277de53c853121c47",
    "deviation_map/monte_carlo/wide_seed":
        "bad65d94a08f4e9ddffda922096ae78dca8c21163f872ba9114bf5530df634e6",
    "deviation_map/monte_carlo/80x80":
        "532297bb70107fac90de285b23d8c8b045dce18560d319789594b3c674dca261",
    "deviation_map/monte_carlo/10000_trials":
        "9fb5ca63d7f3729d0a91f2c697959f13cc72cd43bc7501c66eb1784efe74121e",
    "workspace_mask":
        "31f57deb0d28058806f29fd20ebaed45717bdb19dd8c2505077e2c53eec759d8",
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
    run("track", "--config", str(twin_path), "--out", str(root / "wide_seed"),
        "--generate", "circle:40:40:125:50", "--angle-sigma-deg", "0.05",
        "--seed", str(WIDE_TRACK_SEED))
    out["wide_seed/reconstructed.csv"] = root / "wide_seed" / "reconstructed.csv"
    run("sweep-design", "--config", config, "--out", str(root / "design"),
        "--lengths", "30,40,50", "--concentrations", "0.25,0.5,1")
    out["design.csv"] = root / "design" / "design.csv"
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return build_artifacts(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes(artifacts, name):
    assert sha256(artifacts[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MAP_GOLDEN))
def test_map_bytes(name):
    assert hashlib.sha256(MAPS[name]().tobytes()).hexdigest() == MAP_GOLDEN[name]


STREAM_GOLDEN = "cadeada037674357552e29e2966053ec81253be4be9b50ad098333a0b1bbe5f9"


def test_one_sample_stream_bytes():
    """The benchmark's real-time stream: one-sample ``track`` calls along a circle at the
    SNR for 0.05 degrees, call i seeded ``3 + i``; pins each pose and RMS."""
    assembly = TwinAssembly()
    snr = snr_db_for_angle_sigma(assembly.calibrations[0], assembly.encoders[0], 0.05)
    noise = NoiseModel("snr_db", snr)
    digest = hashlib.sha256()
    for i, sample in enumerate(generate_path("circle", (40.0, 125.0), 40.0, 100,
                                             config=assembly.fivebar)):
        reconstructed, report = track(assembly, [sample], noise, seed=3 + i)
        pose = reconstructed[0].pose
        digest.update(np.array([pose.x_mm, pose.y_mm, report.rms_error_mm]).tobytes())
    assert digest.hexdigest() == STREAM_GOLDEN


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
        values = fraction * clear * integrate_channels(filtered, config.bank)
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
    _, _, got = sweep(config, positions, forces, noise, seed=11)
    assert np.array_equal(got, reference_sweep(config, positions, forces, noise, 11))
