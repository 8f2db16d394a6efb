"""Prints SHA-256 digests of the outputs a performance change must keep.

    python tools/same_bytes.py <checkout>

Imports ``latent_guard`` from ``<checkout>/src`` and prints one
``<sha256>  <name>`` line per output, on small synthetic MNIST-shaped data:

- the checkpoint and the training log of ``trainer.train`` on float64 and
  on uint8 images, at (k, batch size) = (4, 128), (784, 200) and (16, 37);
- ``encode``, ``reconstruct`` and ``novelty.features`` of each of those
  models on the test images;
- CLI ``train`` and then ``eval`` in RE, LD and H at k=4 and k=784 on
  synthetic IDX files: every bundle file but ``manifest.json``, whose
  ``created_at`` is a timestamp;
- CLI ``sweep`` over the same two k: the CSV of a fresh ``--jobs 1`` run,
  of the same grid under ``--resume`` and of ``--jobs 2`` into fresh
  bundles, and every file but ``manifest.json`` of both runs' bundles.

Run it on two checkouts and diff the outputs: a change that keeps every
byte prints the same lines.  It writes only under a temporary directory,
which it removes, and exits 1 if the CLI reports an error or a sweep
cell fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

TRAIN_CELLS = ((4, 128), (784, 200), (16, 37))
CLI_BOTTLENECKS = (4, 784)
# 3000 training rows, 300 per class; 833 test rows are 13 chunks of 64
# and a one-row tail
N_TRAIN, N_TEST, VAL_SIZE = 3000, 833, 400
SEED = 3


def digits(rng, n):
    """(uint8 images [n, 28, 28], labels [n]): a fixed blob pattern per
    class, shifted and noised per image, with blank margins."""
    labels = np.arange(n) % 10
    yy, xx = np.mgrid[:28, :28]
    templates = []
    for c in range(10):
        cy, cx = 9 + (c % 3) * 5, 9 + (c // 3) * 3
        templates.append(np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (8.0 + c)))
    images = np.empty((n, 28, 28))
    for i, c in enumerate(labels):
        images[i] = np.roll(templates[c], rng.integers(-2, 3, 2), axis=(0, 1))
    images += rng.uniform(0.0, 0.3, images.shape)
    images[:, :3] = 0.0
    return np.clip(np.rint(images * 255), 0, 255).astype(np.uint8), labels


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    import latent_guard
    from latent_guard import cli, novelty, trainer
    from latent_guard.data import ImageDataset, write_idx_images, write_idx_labels
    from latent_guard.latent_stats import fit_gaussian

    if Path(latent_guard.__file__).resolve().parent != src / "latent_guard":
        print(f"latent_guard imported from {latent_guard.__file__}, not {src}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(0)
    train_u8, train_labels = digits(rng, N_TRAIN)
    test_u8, test_labels = digits(rng, N_TEST)
    test = test_u8[:, None]

    for k, batch in TRAIN_CELLS:
        config = trainer.TrainConfig(inlier_class=0, bottleneck_size=k, seed=SEED, max_epochs=3,
                                     patience=1, batch_size=batch, val_size=VAL_SIZE)
        for kind, images in (("float64", train_u8[:, None] / 255.0), ("uint8", train_u8[:, None])):
            name = f"train k={k} batch={batch} {kind}"
            model, record = trainer.train(config, ImageDataset(images, train_labels))
            print(f"{digest(model.to_bytes())}  {name} checkpoint")
            log = record.to_jsonl() + f"{record.best_epoch} {record.stop_reason}\n"
            print(f"{digest(log)}  {name} train_log")
        print(f"{digest(model.encode(test))}  k={k} batch={batch} encode")
        print(f"{digest(model.reconstruct(test))}  k={k} batch={batch} reconstruct")
        stats = fit_gaussian(model.encode(train_u8[:, None][train_labels == 0]))
        re, ld = novelty.features(model, stats, test)
        print(f"{digest(re)}  k={k} batch={batch} features RE")
        print(f"{digest(ld)}  k={k} batch={batch} features LD")

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "mnist"
        data.mkdir()
        for split, (images, labels) in (("train", (train_u8, train_labels)),
                                        ("t10k", (test_u8, test_labels))):
            write_idx_images(data / f"{split}-images-idx3-ubyte", images)
            write_idx_labels(data / f"{split}-labels-idx1-ubyte", labels)

        def run_cli(args) -> bool:
            # the CLI's own report lines go to stderr, so stdout holds only digests
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(args)
            if code != 0:
                print(f"cli {args[0]} exited {code}", file=sys.stderr)
            return code == 0

        def print_bundle(bundle, label):
            for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
                if path.name != "manifest.json":
                    print(f"{digest(path.read_bytes())}  {label} {path.relative_to(bundle)}")

        recipe = ["--class", "0", "--data-dir", str(data), "--max-epochs", "2",
                  "--patience", "1", "--val-size", str(VAL_SIZE)]
        for k in CLI_BOTTLENECKS:
            bundle = Path(tmp) / f"bundle_k{k}"
            runs = [["train", *recipe, "--seed", str(SEED), "--bottleneck", str(k),
                     "--out", str(bundle)]]
            runs += [["eval", "--bundle", str(bundle), "--data-dir", str(data), "--mode", mode]
                     for mode in novelty.MODES]
            if not all(run_cli(args) for args in runs):
                return 1
            print_bundle(bundle, f"cli k={k}")

        grid = ["sweep", *recipe, "--seeds", str(SEED),
                "--bottlenecks", ",".join(map(str, CLI_BOTTLENECKS))]
        for run, bundles, extra in (("jobs1", "sweep_jobs1", ["--jobs", "1"]),
                                    ("resume", "sweep_jobs1", ["--jobs", "1", "--resume"]),
                                    ("jobs2", "sweep_jobs2", ["--jobs", "2"])):
            out_csv = Path(tmp) / f"sweep_{run}.csv"
            if not run_cli([*grid, "--bundles-dir", str(Path(tmp) / bundles),
                            "--out-csv", str(out_csv), *extra]):
                return 1
            if b"nan" in out_csv.read_bytes():  # a failed cell, which sweep exits 0 on
                print(f"cli sweep {run} failed a cell", file=sys.stderr)
                return 1
            print(f"{digest(out_csv.read_bytes())}  cli sweep {run} csv")
        for bundles in ("sweep_jobs1", "sweep_jobs2"):
            for cell in sorted((Path(tmp) / bundles).iterdir()):
                print_bundle(cell, f"cli {bundles} {cell.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
