"""One benchmark op in a fresh interpreter.

    python3 driver.py families --manifest M --fw-list F --min-tokens N --k K --out DIR
    python3 driver.py stress --matrix X.npy --groups G.npy --k K --out DIR
    python3 driver.py cli --out DIR -- <stylokit arguments>

``families`` and ``stress`` call the library directly; ``cli`` runs
``stylokit.cli.main`` in-process, which is how the traced run sees inside
a CLI command. With ``--trace FILE`` every call into stylokit's public
functions becomes a span, and the spans are written to FILE when the op
has finished.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FAMILIES = ("lemma", "rhyme", "form", "affix", "pos", "fw")


def families(args: argparse.Namespace) -> int:
    """load + filter once, the delta pipeline for all six families, eta on fw."""
    from stylokit.corpus import filter_corpus, load_manifest
    from stylokit.evaluate import cluster_purity, eta_table, write_eta_csv
    from stylokit.features import FeatureKind, FeatureSpec, load_word_list, write_matrix_csv
    from stylokit.metrics import write_distance_csv
    from stylokit.pipeline import RELIABLE, run_pipeline
    from stylokit.selection import write_selection_csv

    corpus = filter_corpus(load_manifest(args.manifest), args.min_tokens, 3)
    truth = corpus.alleged_authors()
    words = load_word_list(args.fw_list)
    summary = {}
    for family in FAMILIES:
        kind = FeatureKind(family)
        spec = FeatureSpec(kind=kind, function_words=words if family == "fw" else ())
        result = run_pipeline(corpus, spec, RELIABLE, "delta", args.k)
        out = args.out / family
        out.mkdir(parents=True)
        write_matrix_csv(result.matrix, out / "matrix.csv")
        write_selection_csv(result.selection_report, out / "selection.csv")
        write_distance_csv(result.distance, out / "distance.csv")
        summary[family] = {
            "n_features": result.selected.n_features,
            "purity": cluster_purity(result.assignment, truth).purity,
            "ac": result.dendrogram.ac,
        }
        if family == "fw":
            write_eta_csv(eta_table(result.selected, result.assignment), out / "eta.csv")
    (args.out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def stress(args: argparse.Namespace) -> int:
    """Selection, delta and min/max, Ward on each, cut at k and eta, on a given matrix."""
    import numpy as np

    from stylokit.cluster import cut, ward_cluster
    from stylokit.evaluate import cluster_purity, eta_table, write_eta_csv
    from stylokit.features import FeatureMatrix, Scale
    from stylokit.metrics import compute_distance
    from stylokit.pipeline import apply_selection

    values = np.load(args.matrix)
    groups = np.load(args.groups)
    doc_ids = tuple(f"d{i:04d}" for i in range(values.shape[0]))
    names = tuple(f"f{j:04d}" for j in range(values.shape[1]))
    matrix = FeatureMatrix(doc_ids, names, values, Scale.RELATIVE_FREQUENCY)
    truth = {doc: f"g{int(g):03d}" for doc, g in zip(doc_ids, groups)}

    selected, _ = apply_selection(matrix, ("top", 1.0), 1)
    summary = {"n_features": selected.n_features}
    for measure in ("delta", "minmax"):
        dist = compute_distance(selected, measure)
        dend = ward_cluster(dist, "ward2")
        assignment = cut(dend, args.k)
        labels = np.array([assignment[doc] for doc in doc_ids])
        np.save(args.out / f"{measure}_distance.npy", dist.values)
        np.save(args.out / f"{measure}_heights.npy", np.array([m.height for m in dend.merges]))
        np.save(args.out / f"{measure}_labels.npy", labels)
        summary[measure] = {"purity": cluster_purity(assignment, truth).purity, "ac": dend.ac}
        if measure == "delta":
            write_eta_csv(eta_table(selected, assignment), args.out / "eta.csv")
    (args.out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def cli(args: argparse.Namespace) -> int:
    from stylokit.cli import main

    return main(args.cli_args)


OPS = {"families": families, "stress": stress, "cli": cli}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--manifest")
    parser.add_argument("--fw-list")
    parser.add_argument("--min-tokens", type=int, default=0)
    parser.add_argument("--matrix")
    parser.add_argument("--groups")
    parser.add_argument("--k", type=int, default=0)
    parser.add_argument("--trace", type=Path, default=None, help="write spans to this file")
    parser.add_argument("--op-id", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = _parser().parse_args(argv[:split])
    args.cli_args = argv[split + 1 :]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace is None:
        return OPS[args.op](args)

    from tracer import Tracer

    tracer = Tracer(args.op_id)
    root = tracer.open("op")
    sid = tracer.open("cli.import")
    import stylokit.cli  # noqa: F401

    tracer.close(sid)
    tracer.install()
    try:
        status = OPS[args.op](args)
    finally:
        tracer.close(root)
    tracer.dump(args.trace, {"status": status, "op_name": args.op})
    return status


if __name__ == "__main__":
    sys.exit(main())
