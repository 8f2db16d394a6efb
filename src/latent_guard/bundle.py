"""Experiment bundles: a directory holding everything one training run produced.

Layout:

    <bundle>/
        manifest.json      config, seeds, format versions, train summary,
                           sha256 digest of every other file, timestamp
        checkpoint.lgar    best-epoch autoencoder parameters
        latent_stats.lgar  Gaussian fit of the encoded training inliers
        calibration.json   hybrid mixing weights
        train_log.jsonl    one epoch per line
        eval_<MODE>.json   written by evaluate runs
        scores_<MODE>.csv  per-sample features behind each evaluation

Only the manifest carries a timestamp; every other file is a deterministic
function of (config, seed, data), so re-running a configuration reproduces
identical digests.  Bundles are created atomically (temp dir + rename); eval
files and the manifest are then replaced whole (temp file + rename), and the
loaders check a file's digest before parsing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from latent_guard.autoencoder import Autoencoder
from latent_guard.latent_stats import GaussianStats
from latent_guard.novelty import NoveltyCalibration

MANIFEST_VERSION = 1

CHECKPOINT_FILE = "checkpoint.lgar"
STATS_FILE = "latent_stats.lgar"
CALIBRATION_FILE = "calibration.json"
TRAIN_LOG_FILE = "train_log.jsonl"
MANIFEST_FILE = "manifest.json"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _replace_file(path: Path, data: bytes) -> None:
    """Writes a temp file beside ``path`` and renames it over ``path``, so
    readers see the old content or the new, never a torn mix."""
    tmp = path.with_name(f".tmp-{path.name}-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ExperimentBundle:
    """Handle over a bundle directory; see the module docstring."""

    def __init__(self, path):
        self.path = Path(path)

    # -- creation -----------------------------------------------------------

    @classmethod
    def create(cls, path, model: Autoencoder, stats: GaussianStats,
               calibration: NoveltyCalibration, record, config) -> "ExperimentBundle":
        """Atomically writes a new bundle; ``path`` must not exist yet."""
        path = Path(path)
        if path.exists():
            raise FileExistsError(f"bundle path already exists: {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".tmp-{path.name}-", dir=path.parent))
        try:
            model.save(tmp / CHECKPOINT_FILE)
            stats.save(tmp / STATS_FILE)
            (tmp / CALIBRATION_FILE).write_text(calibration.to_json() + "\n")
            (tmp / TRAIN_LOG_FILE).write_text(record.to_jsonl())
            manifest = {
                "kind": "latent-guard-bundle",
                "format_version": MANIFEST_VERSION,
                "config": asdict(config),
                "train": {
                    "best_epoch": record.best_epoch,
                    "stop_reason": record.stop_reason,
                    "epochs_run": len(record.epochs),
                    "best_val_loss": record.best_val_loss,
                },
                "files": {
                    name: _sha256(tmp / name)
                    for name in (CHECKPOINT_FILE, STATS_FILE, CALIBRATION_FILE, TRAIN_LOG_FILE)
                },
                "created_at": datetime.now(timezone.utc).isoformat(),
            }
            (tmp / MANIFEST_FILE).write_text(_manifest_text(manifest))
            os.replace(tmp, path)
        except BaseException:
            for p in tmp.glob("*"):
                p.unlink()
            tmp.rmdir()
            raise
        return cls(path)

    # -- reading --------------------------------------------------------------

    def manifest(self) -> dict:
        return json.loads((self.path / MANIFEST_FILE).read_text())

    def config(self) -> dict:
        return self.manifest()["config"]

    def _verified(self, name: str, manifest=None) -> Path:
        """Path of ``name`` once its content matches the manifest digest."""
        digest = (manifest or self.manifest())["files"].get(name)
        if digest is None:
            raise ValueError(f"{name} has no digest in the bundle manifest")
        actual = _sha256(self.path / name)
        if actual != digest:
            raise ValueError(
                f"digest mismatch for {name}: manifest {digest[:12]}..., "
                f"file {actual[:12]}..."
            )
        return self.path / name

    def load_model(self) -> Autoencoder:
        return Autoencoder.load(self._verified(CHECKPOINT_FILE))

    def load_stats(self) -> GaussianStats:
        return GaussianStats.load(self._verified(STATS_FILE))

    def load_calibration(self) -> NoveltyCalibration:
        cal_path = self.path / CALIBRATION_FILE
        if not cal_path.exists():
            raise FileNotFoundError(f"bundle has no calibration: {cal_path}")
        return NoveltyCalibration.from_json(self._verified(CALIBRATION_FILE).read_text())

    def verify(self) -> None:
        """Checks every manifest digest against the file contents."""
        manifest = self.manifest()
        for name in manifest["files"]:
            self._verified(name, manifest)

    # -- evaluation artifacts ---------------------------------------------------

    def eval_report_path(self, mode: str) -> Path:
        return self.path / f"eval_{mode}.json"

    def scores_csv_path(self, mode: str) -> Path:
        return self.path / f"scores_{mode}.csv"

    def record_file(self, files: dict) -> None:
        """Writes ``{name: bytes}`` into the bundle and records their digests,
        replacing each file and then the manifest whole."""
        manifest = self.manifest()
        for name, data in files.items():
            _replace_file(self.path / name, data)
            manifest["files"][name] = hashlib.sha256(data).hexdigest()
        _replace_file(self.path / MANIFEST_FILE, _manifest_text(manifest).encode())
