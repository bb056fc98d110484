#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Generates a seeded five-author corpus, runs every feature family through
the delta pipeline with reliability selection, prints the per-family
summary (features kept, agglomerative coefficient, purity), and finishes
with the frequency-cutoff sweep for function words under both
dissimilarities.

Usage: python scripts/run_synthetic_demo.py [--seed N] [--separation S] [--out DIR]
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

from stylokit.cli import SWEEP_CUTOFFS
from stylokit.cluster import cut, ward_cluster
from stylokit.corpus import filter_corpus, load_manifest
from stylokit.evaluate import cluster_purity, eta_table, robustness_sweep
from stylokit.features import FeatureKind, FeatureSpec, load_word_list
from stylokit.metrics import compute_distance
from stylokit.pipeline import run_pipeline
from stylokit.synth import SynthConfig, generate_corpus

FAMILIES = {
    "lemmas": FeatureSpec(kind=FeatureKind.LEMMA),
    "rhyme lemmas": FeatureSpec(kind=FeatureKind.RHYME_LEMMA),
    "word forms": FeatureSpec(kind=FeatureKind.WORD_FORM),
    "affixes": FeatureSpec(kind=FeatureKind.AFFIX),
    "POS 3-grams": FeatureSpec(kind=FeatureKind.POS_NGRAM),
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--separation", type=float, default=1.5)
    parser.add_argument("--out", default=None, help="corpus directory (default: temp)")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="stylokit_demo_"))
    config = SynthConfig(seed=args.seed, n_authors=5, docs_per_author=6,
                         separation=args.separation)
    manifest = generate_corpus(config, out)
    corpus = filter_corpus(load_manifest(manifest), 5000, 3)
    truth = corpus.alleged_authors()
    print(f"corpus: {len(corpus)} plays by {len(set(truth.values()))} authors "
          f"(seed {args.seed}, separation {args.separation})")
    print(f"        written to {out}")

    fw_words = load_word_list(out / "function_words.txt")
    specs = dict(FAMILIES)
    specs["function words"] = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=fw_words
    )

    print("\nfamily           features  kept    AC  purity")
    results = {}
    for name, spec in specs.items():
        result = results[name] = run_pipeline(corpus, spec, "reliable", "delta", k=5)
        purity = cluster_purity(result.assignment, truth).purity
        print(
            f"{name:<16} {result.matrix.n_features:8d} {result.selected.n_features:5d}"
            f" {result.dendrogram.ac:5.3f} {purity:7.3f}"
        )
    fw_delta = results["function words"]

    print("\nmost cluster-correlated function words (delta pipeline):")
    names, values = eta_table(fw_delta.selected, fw_delta.assignment)
    for name, (eta2, p) in zip(names, values[:5].tolist()):
        print(f"  {name:<8} eta2={eta2:.3f}  p={p:.3g}")

    # Reliable selection does not depend on the measure: re-cluster the selected fw matrix.
    dist = compute_distance(fw_delta.selected, "minmax")
    dend = ward_cluster(dist)
    fw_minmax = replace(fw_delta, distance=dist, dendrogram=dend, assignment=cut(dend, fw_delta.k))
    for distance, reference in (("delta", fw_delta), ("minmax", fw_minmax)):
        rows = robustness_sweep(reference, truth, SWEEP_CUTOFFS)
        print(f"\nfunction-word sweep under {distance}:")
        print("  cutoff  features  P-A    P-R")
        for row in rows:
            pa = "-" if row.purity_authors is None else f"{row.purity_authors:.2f}"
            pr = "-" if row.purity_reference is None else f"{row.purity_reference:.2f}"
            print(f"  {row.cutoff:6.0%} {row.n_features:9d}  {pa:<6} {pr}")
        ref_purity = cluster_purity(reference.assignment, truth).purity
        print(f"      RS {reference.selected.n_features:9d}  {ref_purity:.2f}   -")


if __name__ == "__main__":
    main()
