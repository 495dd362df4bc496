#!/usr/bin/env python3
"""Linear probe on frozen clip embeddings from a trained checkpoint.

Trains only a linear classifier (SGD momentum 0.9, cosine decay, 100 epochs,
batch 32 by default) on the model's pooled clip representations and reports
train accuracy on the group-activity labels.
"""

import argparse

from groundact import backbones as bb
from groundact import data as D
from groundact.cli import _USER_ERRORS, _at_least_one, _seed
from groundact.training import (extract_embeddings, linear_probe,
                                load_checkpoint)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--clips", type=_at_least_one, default=32)
    ap.add_argument("--epochs", type=_at_least_one, default=100)
    ap.add_argument("--seed", type=_seed, default=0)
    args = ap.parse_args()

    try:
        model, cfg, _, _ = load_checkpoint(args.checkpoint)
    except _USER_ERRORS as err:
        ap.exit(1, f"{ap.prog}: error: {err}\n")
    vocab = bb.load_vocab()
    corpus = D.generate_corpus(seed=args.seed, num_clips=args.clips,
                               num_actors=2, t_total=cfg.model.frames,
                               raster=(cfg.model.raster_h, cfg.model.raster_w))
    emb, labels = extract_embeddings(model, corpus, cfg, vocab)
    acc = linear_probe(emb, labels, num_classes=len(D.GROUPS),
                       epochs=args.epochs, seed=args.seed)
    print(f"probe train accuracy over {args.clips} clips: {acc:.3f}")


if __name__ == "__main__":
    main()
