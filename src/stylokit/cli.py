"""Command-line surface for the attribution pipeline.

Subcommands: extract, select, cluster, eta, sweep, synth. Every command
runs one flow in ``main``: make ``--out``, remove a ``run.json`` left by
an earlier run, run the command, and write the ``run.json``
reproducibility record last, so it exists only beside a completed run.
Commands are deterministic: identical inputs and flags give
byte-identical files. Exit codes: 0 success, 1 analysis error, 2
input/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cluster import to_dot, to_newick, write_text
from .corpus import filter_corpus, load_manifest, make_output_dir
from .errors import AnalysisError, CorpusFormatError
from .evaluate import (
    cluster_purity,
    eta_table,
    format_p_value,
    robustness_sweep,
    write_eta_csv,
    write_sweep_csv,
)
from .features import (FeatureKind, FeatureMatrix, FeatureSpec, build_matrix,
                       default_function_words, load_word_list, write_matrix_csv, write_table)
from .metrics import Measure, write_distance_csv
from .pipeline import RELIABLE, PipelineResult, analyse, shortest_document_length
from .render import dendrogram_svg, write_svg
from .selection import select_reliable, write_selection_csv
from .synth import SynthConfig, generate_corpus

SWEEP_CUTOFFS = (0.01, 0.10, 0.25, 0.50, 0.75, 1.00)

_FEATURE_FLAGS = {
    "lemma": FeatureKind.LEMMA,
    "rhyme": FeatureKind.RHYME_LEMMA,
    "form": FeatureKind.WORD_FORM,
    "affix": FeatureKind.AFFIX,
    "pos3": FeatureKind.POS_NGRAM,
    "fw": FeatureKind.FUNCTION_WORD,
}


def _fraction(text: str, scale: float, what: str) -> float:
    """A number in (0, scale], divided by scale; a usage error names the text."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} {text!r} is not a number") from None
    if not 0.0 < value <= scale:
        raise argparse.ArgumentTypeError(f"{what} {text!r} lies outside (0, {scale:g}]")
    return value / scale


def _at_least(kind: type, minimum: float):
    """An argparse type: text parsed by kind, at least minimum; a usage error names the text."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {kind.__name__}") from None
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"{text!r} must be at least {minimum:g}")
        return value

    return parse


def _parse_select(value: str) -> str | tuple[str, float]:
    if value == RELIABLE:
        return RELIABLE
    if value.startswith("top:"):
        return ("top", _fraction(value[4:], 100.0, "top:<pct> percentage"))
    raise argparse.ArgumentTypeError(
        f"selection must be 'reliable' or 'top:<pct>', got {value!r}"
    )


def _parse_cutoffs(value: str) -> tuple[float, ...]:
    cutoffs = tuple(_fraction(c.strip(), 1.0, "cutoff") for c in value.split(",") if c.strip())
    if not cutoffs:
        raise argparse.ArgumentTypeError(f"no cutoff in {value!r}")
    return cutoffs


def _build_parser() -> argparse.ArgumentParser:
    # The flag groups commands share, each an argparse parent parser.
    corpus, select, analysis = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    corpus.add_argument("--manifest", required=True, help="corpus manifest CSV")
    corpus.add_argument("--min-tokens", type=_at_least(int, 0), default=5000,
                        help="shortest play kept")
    corpus.add_argument("--min-plays", type=_at_least(int, 1), default=3,
                        help="fewest plays per author kept")
    corpus.add_argument("--features", choices=sorted(_FEATURE_FLAGS), default="fw")
    corpus.add_argument("--fw-list", default=None, help="function-word list file (one per line)")
    select.add_argument("--select", type=_parse_select, default=RELIABLE,
                        help="'reliable' or 'top:<pct>'")
    analysis.add_argument("--distance", choices=[m.value for m in Measure], default="delta")
    analysis.add_argument("--k", type=_at_least(int, 1), default=None,
                          help="number of clusters (default: number of authors)")
    groups = {"corpus": corpus, "select": select, "analysis": analysis}

    parser = argparse.ArgumentParser(prog="stylokit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stylokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, group_names) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=help_text,
                                        parents=[groups[g] for g in group_names])
        commands[name].add_argument("--out", default="out", help="output directory")
    commands["sweep"].add_argument(
        "--cutoffs", type=_parse_cutoffs, default=",".join(str(c) for c in SWEEP_CUTOFFS),
        help="comma-separated fractions in (0,1]",
    )
    synth = commands["synth"]
    synth.add_argument("--seed", type=_at_least(int, 0), required=True)
    synth.add_argument("--authors", type=_at_least(int, 2), default=5)
    synth.add_argument("--docs-per-author", type=_at_least(int, 2), default=6)
    synth.add_argument("--separation", type=_at_least(float, 0.0), default=1.0)
    return parser


def _output_dir(args: argparse.Namespace) -> Path:
    """--out, made if missing, less an earlier run.json: run.json marks a completed run."""
    out = make_output_dir(args.out)
    record = out / "run.json"
    try:
        record.unlink(missing_ok=True)
    except OSError as exc:
        if not record.is_dir():  # a directory is left for the command's last write to report
            raise CorpusFormatError(f"{record}: cannot remove: {exc.strerror or exc}") from None
    return out


def _write_run_record(args: argparse.Namespace, out_dir: Path) -> None:
    config = {key: value for key, value in vars(args).items() if key != "command"}
    record = {"command": args.command, "config": config, "tool": "stylokit", "version": __version__}
    write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", out_dir / "run.json")


def _feature_spec(args: argparse.Namespace) -> FeatureSpec:
    kind = _FEATURE_FLAGS[args.features]
    if kind is FeatureKind.FUNCTION_WORD:
        words = load_word_list(args.fw_list) if args.fw_list else default_function_words()
        return FeatureSpec(kind=kind, function_words=words)
    return FeatureSpec(kind=kind)


def _load_matrix(args: argparse.Namespace) -> tuple[dict[str, str], FeatureMatrix]:
    """Load and filter the corpus and build its matrix. Returns the alleged-author map and
    the matrix, sample sizes included: the corpus dies here, before any later stage."""
    corpus = filter_corpus(load_manifest(args.manifest), args.min_tokens, args.min_plays)
    return corpus.alleged_authors(), build_matrix(corpus, _feature_spec(args))


def _run(
    args: argparse.Namespace, select: str | tuple[str, float]
) -> tuple[dict[str, str], PipelineResult]:
    """The one pipeline path, analyse, on the matrix from _load_matrix, so the corpus is
    already freed when selection starts; k defaults to the number of authors, and more than
    the documents left after filtering is refused before any analysis runs."""
    truth, matrix = _load_matrix(args)
    k = args.k if args.k is not None else len(set(truth.values()))
    if k > matrix.n_docs:
        raise AnalysisError(f"--k {k} exceeds the {matrix.n_docs} documents left after filtering")
    return truth, analyse(matrix, select, args.distance, k)


def _cmd_extract(args: argparse.Namespace, out: Path) -> None:
    matrix = _load_matrix(args)[1]
    write_matrix_csv(matrix, out / "matrix.csv")
    print(f"{matrix.n_docs} docs, {matrix.n_features} features")


def _cmd_select(args: argparse.Namespace, out: Path) -> None:
    matrix = _load_matrix(args)[1]
    report = select_reliable(matrix, shortest_document_length(matrix))
    write_selection_csv(report, out / "selection.csv")
    print(f"{len(report.retained)} of {matrix.n_features} features retained")


def _write_assignment_csv(assignment: dict[str, int], truth: dict[str, str], path: Path) -> None:
    docs = sorted(assignment)
    clusters, authors = [str(assignment[doc]) for doc in docs], [truth.get(doc, "") for doc in docs]
    write_table(path, ("doc_id", "cluster", "author"), docs, tails=(clusters, authors))


def _cmd_cluster(args: argparse.Namespace, out: Path) -> None:
    truth, result = _run(args, args.select)
    purity = cluster_purity(result.assignment, truth).purity

    write_matrix_csv(result.matrix, out / "matrix.csv")
    if result.selection_report is not None:
        write_selection_csv(result.selection_report, out / "selection.csv")
    write_distance_csv(result.distance, out / "distance.csv")
    write_text(to_newick(result.dendrogram), out / "dendrogram.newick")
    write_text(to_dot(result.dendrogram), out / "dendrogram.dot")
    caption = (
        f"features: {result.selected.n_features}  "
        f"AC: {result.dendrogram.ac:.3f}  purity: {purity:.3f}"
    )
    write_svg(dendrogram_svg(result.dendrogram, truth=truth, caption=caption),
              out / "dendrogram.svg")
    _write_assignment_csv(result.assignment, truth, out / "assignment.csv")
    summary = {
        "n_features": result.selected.n_features,
        "ac": result.dendrogram.ac,
        "purity": purity,
    }
    write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", out / "summary.json")
    print(
        f"{result.matrix.n_docs} docs, {result.selected.n_features} features, "
        f"k={result.k}, AC={result.dendrogram.ac:.3f}, purity={purity:.3f}"
    )


def _cmd_eta(args: argparse.Namespace, out: Path) -> None:
    _, result = _run(args, args.select)
    names, values = eta_table(result.selected, result.assignment)
    write_eta_csv((names, values), out / "eta.csv")
    for name, (eta2, p) in zip(names, values[:10].tolist()):
        print(f"{name}\t{eta2:.3f}\t{format_p_value(p)}")


def _cmd_sweep(args: argparse.Namespace, out: Path) -> None:
    truth, reference = _run(args, RELIABLE)
    reference_purity = cluster_purity(reference.assignment, truth).purity
    rows = robustness_sweep(reference, truth, args.cutoffs)
    write_sweep_csv(rows, out / "sweep.csv", reference.selected.n_features, reference_purity)
    for row in rows:
        pa = "-" if row.purity_authors is None else f"{row.purity_authors:.3f}"
        note = "insufficient features" if row.purity_authors is None else ""
        print(f"{row.cutoff:g}\t{row.n_features}\t{pa}\t{note}")
    print(f"RS\t{reference.selected.n_features}\t{reference_purity:.3f}")


def _cmd_synth(args: argparse.Namespace, out: Path) -> None:
    config = SynthConfig(
        seed=args.seed,
        n_authors=args.authors,
        docs_per_author=args.docs_per_author,
        separation=args.separation,
    )
    print(f"wrote {generate_corpus(config, out)}")


# Each command: the function that runs it, its help text and the flag groups it takes.
_COMMANDS = {
    "extract": (_cmd_extract, "write the feature matrix CSV", ["corpus"]),
    "select": (_cmd_select, "write per-feature reliability diagnostics", ["corpus"]),
    "cluster": (_cmd_cluster, "full pipeline: dendrogram, assignment, summary",
                ["corpus", "select", "analysis"]),
    "eta": (_cmd_eta, "rank features by correlation with the clusters",
            ["corpus", "select", "analysis"]),
    "sweep": (_cmd_sweep, "frequency-cutoff robustness table", ["corpus", "analysis"]),
    "synth": (_cmd_synth, "generate a seeded synthetic corpus", []),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command][0]
    try:
        out = _output_dir(args)
        command(args, out)
        _write_run_record(args, out)
    except (CorpusFormatError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CorpusFormatError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
