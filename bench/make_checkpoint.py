#!/usr/bin/env python3
"""Regenerate the trained codec checkpoint the benchmark loads.

Follows the acceptance recipe: ``make_codec_dataset(40, seed=0)`` (200
segments), ``CodecModel(seed=3)``, 15 epochs at 25 dB with the default
``TrainConfig`` (batch 32, shuffle seed 11, noise seed 99). Takes about
eight minutes on one core (BLAS is pinned to one thread). Run from the
repository root:

    python3 bench/make_checkpoint.py [--out bench/codec_checkpoint.semw]
"""
import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # the same threading as the benchmark
sys.path.insert(0, os.path.join(ROOT, "src"))

from semcom import codec, synthdata  # noqa: E402

CHECKPOINT = os.path.join(HERE, "codec_checkpoint.semw")
TRAIN_SNR_DB = 25.0
MODEL_SEED = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=CHECKPOINT)
    args = parser.parse_args()
    segments, labels = synthdata.make_codec_dataset(40, seed=0)
    model = codec.CodecModel(seed=MODEL_SEED)
    t0 = time.perf_counter()
    history = codec.train(model, segments, labels, TRAIN_SNR_DB,
                          codec.TrainConfig(epochs=15, batch_size=32))
    for stats in history:
        print(f"epoch {stats.epoch}: loss {stats.loss:.4f} "
              f"accuracy {stats.accuracy:.3f}")
    codec.save_model(args.out, model)
    print(f"trained in {time.perf_counter() - t0:.0f} s; wrote {args.out}")


if __name__ == "__main__":
    main()
