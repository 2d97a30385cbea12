#!/usr/bin/env python3
"""Train the video codec end to end and sweep test SNR (Fig.-5-style).

Trains one codec per --snr-train value on the synthetic activity dataset,
then evaluates every model across the test-SNR grid, averaging over noise
seeds. Emits a CSV with one row per (snr_train, snr_test) pair.

Example:
    python scripts/train_and_eval_snr.py --snr-train 13 25 \
        --snr-test 7 13 19 25 --out snr_sweep.csv
"""
import argparse

import numpy as np

from semcom import codec, synthdata


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snr-train", type=float, nargs="+", default=[25.0])
    parser.add_argument("--snr-test", type=float, nargs="+",
                        default=[7.0, 13.0, 19.0, 25.0])
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--test-per-class", type=int, default=40)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--model-seed", type=int, default=7)
    parser.add_argument("--out", default="snr_sweep.csv")
    args = parser.parse_args()

    train_segments, train_labels = synthdata.make_codec_dataset(
        args.per_class, seed=0)
    test_segments, test_labels = synthdata.make_codec_dataset(
        args.test_per_class, seed=1)

    rows = []
    for snr_train in args.snr_train:
        model = codec.CodecModel(seed=args.model_seed)
        history = codec.train(model, train_segments, train_labels, snr_train)
        for stats in history:
            print(f"  {stats.summary()}")
        print(f"snr_train={snr_train}: trained {len(history)} epochs in "
              f"{sum(h.wall_s for h in history):.0f}s, final train accuracy "
              f"{history[-1].accuracy:.3f}")
        for snr_test in args.snr_test:
            accs = [codec.evaluate(model, test_segments, test_labels,
                                   snr_test, noise_seed=s)
                    for s in range(args.seeds)]
            rows.append((snr_train, snr_test, float(np.mean(accs)),
                         float(np.std(accs))))
            print(f"  snr_test={snr_test}: accuracy "
                  f"{rows[-1][2]:.3f} (+/- {rows[-1][3]:.3f})")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("snr_train_db,snr_test_db,accuracy_mean,accuracy_std\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{row[2]:.6f},{row[3]:.6f}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
