"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: recursion and explicit sums
instead of incremental updates, numeric quadrature instead of special
functions. Keep it that way.
"""

from __future__ import annotations

import csv
import io
import math
import unicodedata
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from stylokit.cluster import _newick_label
from stylokit.corpus import Corpus, Document, normalize_token
from stylokit.errors import AnalysisError, CorpusFormatError


def naive_ward(values: np.ndarray, ids: tuple[str, ...]):
    """Recompute-from-scratch Ward merging on a dissimilarity matrix.

    Clusters are nested tuples; every inter-cluster value is derived
    recursively from the leaf-level matrix at each step. Returns a list
    of (sorted leaf-index tuple, height) per merge.
    """
    n = len(ids)
    base = values * values / 2.0

    def leaves(tree):
        return (tree,) if isinstance(tree, int) else leaves(tree[0]) + leaves(tree[1])

    cache: dict = {}

    def w(a, b):
        key = (a, b)
        if key in cache:
            return cache[key]
        if isinstance(a, int) and isinstance(b, int):
            val = base[a, b]
        elif not isinstance(b, int):
            left, right = b
            ni, nj, nk = len(leaves(left)), len(leaves(right)), len(leaves(a))
            val = ((ni + nk) * w(a, left) + (nj + nk) * w(a, right) - nk * w(left, right)) / (
                ni + nj + nk
            )
        else:
            val = w(b, a)
        cache[key] = val
        cache[(b, a)] = val
        return val

    active: list = list(range(n))
    merges = []
    for _ in range(n - 1):
        cache.clear()
        best = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = active[i], active[j]
                firsts = sorted((min(ids[x] for x in leaves(a)), min(ids[x] for x in leaves(b))))
                key = (w(a, b), *firsts)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (value, *_), a, b = best
        height = math.sqrt(max(value, 0.0))
        merges.append((tuple(sorted(leaves(a) + leaves(b))), height))
        active = [x for x in active if x not in (a, b)] + [(a, b)]
    return merges


def ess_ward(points: np.ndarray, ids: tuple[str, ...]):
    """Ward by explicit within-cluster variance minimization on points."""

    def ess(member_rows: np.ndarray) -> float:
        centroid = member_rows.mean(axis=0)
        return float(((member_rows - centroid) ** 2).sum())

    n = len(ids)
    clusters = [[i] for i in range(n)]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                cost = ess(points[a + b]) - ess(points[a]) - ess(points[b])
                firsts = sorted((min(ids[x] for x in a), min(ids[x] for x in b)))
                key = (cost, *firsts)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (cost, *_), i, j = best
        merged = sorted(clusters[i] + clusters[j])
        merges.append((tuple(merged), math.sqrt(max(cost, 0.0))))
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)] + [merged]
    return merges


def f_density(x: float, df1: int, df2: int) -> float:
    if x <= 0.0:
        return 0.0
    ln = (
        (df1 / 2.0) * math.log(df1 / df2)
        + (df1 / 2.0 - 1.0) * math.log(x)
        - ((df1 + df2) / 2.0) * math.log1p(df1 * x / df2)
        + math.lgamma((df1 + df2) / 2.0)
        - math.lgamma(df1 / 2.0)
        - math.lgamma(df2 / 2.0)
    )
    return math.exp(ln)


def f_tail_quadrature(f_stat: float, df1: int, df2: int) -> float:
    """Upper tail of the F distribution by numeric integration of the density."""
    if f_stat <= 0.0:
        return 1.0
    tail, _ = quad(
        f_density, f_stat, np.inf, args=(df1, df2), limit=400, epsabs=1e-12, epsrel=1e-12
    )
    return tail


def anova_by_sums(values, labels) -> tuple[float, float]:
    """Brute-force eta^2 and quadrature p-value via explicit accumulation."""
    groups: dict = {}
    for v, lab in zip(values, labels):
        groups.setdefault(lab, []).append(float(v))
    n = len(values)
    k = len(groups)
    grand = sum(float(v) for v in values) / n
    ss_total = sum((float(v) - grand) ** 2 for v in values)
    ss_between = 0.0
    ss_within = 0.0
    for member_values in groups.values():
        mean = sum(member_values) / len(member_values)
        ss_between += len(member_values) * (mean - grand) ** 2
        ss_within += sum((v - mean) ** 2 for v in member_values)
    if ss_total == 0.0:
        return 0.0, 1.0
    eta2 = ss_between / ss_total
    if ss_within == 0.0:
        return eta2, 0.0
    f_stat = (ss_between / (k - 1)) / (ss_within / (n - k))
    return eta2, f_tail_quadrature(f_stat, k - 1, n - k)


def eta_per_feature(values, labels) -> tuple[float, float]:
    """eta^2 and the ANOVA F statistic of one feature, summed group by group over its column.

    The per-feature numpy loop the vectorized table replaced, with the same
    arithmetic in the same order, so the two must agree exactly. F is
    infinite when every group is internally constant.
    """
    y = np.asarray(values, dtype=float)
    labs = np.asarray(labels)
    groups = [y[labs == g] for g in np.unique(labs)]
    k, n = len(groups), y.size
    grand = y.mean()
    ss_total = float(((y - grand) ** 2).sum())
    ss_between = float(sum(g.size * (g.mean() - grand) ** 2 for g in groups))
    ss_within = float(sum(((g - g.mean()) ** 2).sum() for g in groups))
    if ss_within == 0.0:
        return ss_between / ss_total, math.inf
    return ss_between / ss_total, (ss_between / (k - 1)) / (ss_within / (n - k))


def delta_by_hand(rows: list[list[float]]) -> list[list[float]]:
    """Spreadsheet-style delta: explicit z-scores, norms and L1 sums."""
    n = len(rows)
    p = len(rows[0])
    means = [sum(rows[i][j] for i in range(n)) / n for j in range(p)]
    sds = [
        math.sqrt(sum((rows[i][j] - means[j]) ** 2 for i in range(n)) / (n - 1))
        for j in range(p)
    ]
    z = [[(rows[i][j] - means[j]) / sds[j] for j in range(p)] for i in range(n)]
    norms = [math.sqrt(sum(v * v for v in z[i])) for i in range(n)]
    u = [[z[i][j] / norms[i] for j in range(p)] for i in range(n)]
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(abs(u[i][kk] - u[j][kk]) for kk in range(p))
    return out


def leaf_members(dend, node: int) -> tuple[int, ...]:
    """Leaf indices under a dendrogram node, in increasing order, by recursion."""
    if node < dend.n_leaves:
        return (node,)
    merge = dend.merges[node - dend.n_leaves]
    return tuple(sorted(leaf_members(dend, merge.left) + leaf_members(dend, merge.right)))


def naive_to_newick(dend) -> str:
    """Newick string by recursion from the top merge, one call per tree level."""
    n = dend.n_leaves

    def height_of(node: int) -> float:
        return 0.0 if node < n else dend.merges[node - n].height

    def render(node: int, parent_height: float) -> str:
        branch = format(parent_height - height_of(node), ".12g")
        if node < n:
            return f"{_newick_label(dend.leaves[node])}:{branch}"
        merge = dend.merges[node - n]
        inner = f"({render(merge.left, merge.height)},{render(merge.right, merge.height)})"
        return f"{inner}:{branch}"

    merge = dend.merges[-1]
    return f"({render(merge.left, merge.height)},{render(merge.right, merge.height)});\n"


def naive_leaf_order(dend) -> list[int]:
    """Leaves depth-first, left child before right, by recursion from the top merge."""

    def walk(node: int) -> list[int]:
        if node < dend.n_leaves:
            return [node]
        merge = dend.merges[node - dend.n_leaves]
        return walk(merge.left) + walk(merge.right)

    return walk(dend.n_leaves + len(dend.merges) - 1)


def naive_family_counts(verses, kind: str, function_words=()) -> tuple[dict[str, int], int]:
    """One document's counts for a feature family, token by token, and its denominator.

    ``verses`` is a list of verses of (form, lemma, pos) triples. Proper
    names (POS prefix NOMpro) count only in POS 3-grams, each named by its
    three tags joined with ``.``, with ``\\`` and ``.`` in a tag escaped by
    a ``\\``. The denominator is the family's own event total, except for
    function words, which are divided by the number of non-proper tokens.
    """
    tokens = [tok for verse in verses for tok in verse]
    lexical = [(form, lemma) for form, lemma, pos in tokens if not pos.startswith("NOMpro")]
    counts: dict[str, int] = {}

    def add(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    if kind == "lemma":
        for _, lemma in lexical:
            add(lemma)
    elif kind == "rhyme":
        for verse in verses:
            _, lemma, pos = verse[-1]
            if not pos.startswith("NOMpro"):
                add(lemma)
    elif kind == "form":
        for form, _ in lexical:
            add(form)
    elif kind == "fw":
        for form, _ in lexical:
            if form in function_words:
                add(form)
    elif kind == "affix":
        for form, _ in lexical:
            if len(form) >= 4:
                add("^" + form[:3])
                add(form[-3:] + "$")
            add("_" + form[:2])
            add(form[-2:] + "_")
    elif kind == "pos":
        tags = [pos for _, _, pos in tokens]
        for i in range(len(tags) - 2):
            add(".".join(tag.replace("\\", "\\\\").replace(".", "\\.") for tag in tags[i : i + 3]))
    else:
        raise ValueError(kind)
    denominator = len(lexical) if kind == "fw" else sum(counts.values())
    return counts, denominator


def naive_family_matrix(docs, kind: str, function_words=()) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted feature names and per-document relative frequencies, by plain division."""
    per_doc = [naive_family_counts(verses, kind, function_words) for verses in docs]
    names = sorted({name for counts, _ in per_doc for name in counts})
    rows = [
        [counts.get(name, 0) / denominator if denominator else 0.0 for name in names]
        for counts, denominator in per_doc
    ]
    return tuple(names), np.array(rows, dtype=float).reshape(len(docs), len(names))


# The apostrophe is the one punctuation mark kept; its typographic variant is read as it.
_KEPT_PUNCT = {"'"}
_APOSTROPHE_VARIANTS = {"’": "'"}


def naive_normalize_form(text: str) -> str:
    """normalize_form as a per-character loop over the lowercased text."""
    out = []
    for ch in text.lower():
        ch = _APOSTROPHE_VARIANTS.get(ch, ch)
        if unicodedata.category(ch).startswith("P") and ch not in _KEPT_PUNCT:
            continue
        out.append(ch)
    return "".join(out)


def naive_filter_corpus(corpus: Corpus, min_tokens: int, min_plays_per_author: int) -> Corpus:
    """filter_corpus with the plays-per-author rule repeated until no document goes."""
    docs = [d for d in corpus.documents if d.token_count >= min_tokens]
    while True:
        counts: dict[str, int] = {}
        for d in docs:
            counts[d.alleged_author] = counts.get(d.alleged_author, 0) + 1
        kept = [d for d in docs if counts[d.alleged_author] >= min_plays_per_author]
        if len(kept) == len(docs):
            break
        docs = kept
    if not docs:
        raise AnalysisError("no documents survive filtering")
    return replace(corpus, documents=tuple(docs))


def naive_parse_corpus(sources):
    """parse_corpus as a per-line loop: look up each raw line, normalize it on first sight.

    Returns the Corpus, or raises CorpusFormatError with the same message.
    """
    skipped, verse_break = -1, -2
    line_ids: dict = {}
    vocabulary: dict = {}
    documents = []
    for doc_id, author, lines, *label in sources:
        where = label[0] if label else doc_id
        ids: list[int] = []
        ends: list[int] = []
        for lineno, raw in enumerate(lines, start=1):
            if raw not in line_ids:
                line = raw.rstrip("\r\n")
                if line.startswith("#"):
                    line_ids[raw] = skipped
                elif not line.strip():
                    line_ids[raw] = verse_break
                else:
                    fields = line.split("\t")
                    if len(fields) != 3:
                        raise CorpusFormatError(
                            f"{where}: line {lineno}: expected FORM<TAB>LEMMA<TAB>POS, "
                            f"got {len(fields)} field(s)"
                        )
                    token = normalize_token(*fields)
                    line_ids[raw] = (
                        skipped if token is None else vocabulary.setdefault(token, len(vocabulary))
                    )
            tid = line_ids[raw]
            if tid >= 0:
                ids.append(tid)
            elif tid == verse_break and len(ids) > (ends[-1] if ends else 0):
                ends.append(len(ids))
        if not ids:
            raise CorpusFormatError(f"{where}: empty document")
        if len(ids) > (ends[-1] if ends else 0):
            ends.append(len(ids))
        documents.append(
            Document(doc_id, author, np.array(ids, np.int32), np.array(ends, np.int32))
        )
    documents.sort(key=lambda doc: doc.id)
    return Corpus(documents=tuple(documents), types=tuple(vocabulary))


def naive_write_rows(path, header, rows) -> None:
    """The header and each row through csv.writer, then a \\n line end.

    The writer ends each row with \\r\\n, which is cut off: with \\r\\n as its line
    terminator, every supported CPython quotes a field holding \\r or \\n.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in (header, *rows):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")


def naive_write_float_rows(path, header, doc_ids, values) -> None:
    """A doc id and a row of floats per line, each cell through format() and csv.writer."""
    rows = ([doc, *(format(float(v), ".12g") for v in row)] for doc, row in zip(doc_ids, values))
    naive_write_rows(path, header, rows)


def naive_write_eta_csv(table, path) -> None:
    """eta.csv cell by cell through format() and csv.writer; a p below 1e-300 is written as 0."""
    names, values = table
    rows = (
        [name, format(eta2, ".12g"), format(0.0 if p < 1e-300 else p, ".12g")]
        for name, (eta2, p) in zip(names, values.tolist())
    )
    naive_write_rows(path, ["feature", "eta_squared", "p_value"], rows)


def naive_write_selection_csv(report, path) -> None:
    """selection.csv one feature at a time, each cell through format() and csv.writer."""
    rows = []
    for j, name in enumerate(report.feature_names):
        p_bar, sigma, required_n = (format(float(v), ".12g") for v in report.per_feature[j])
        retained = str(j in report.retained.tolist()).lower()
        degenerate = str(bool(report.degenerate[j])).lower()
        rows.append([name, p_bar, sigma, required_n, retained, degenerate])
    header = ["feature", "p_bar", "sigma", "required_n", "retained", "degenerate"]
    naive_write_rows(path, header, rows)


def naive_write_table(path, header, heads, floats, tails) -> None:
    """Any table row by row through csv.writer: a head, its floats through format(), its tails."""
    rows = []
    for i, head in enumerate(heads):
        row = [] if floats is None else [format(float(v), ".12g") for v in floats[i]]
        rows.append([head, *row, *(tail[i] for tail in tails)])
    naive_write_rows(path, header, rows)


def whole_pairwise(values: np.ndarray, row_fn) -> np.ndarray:
    """metrics._pairwise with no blocks: each row against all later rows in one call."""
    n = values.shape[0]
    out = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        out[i, i + 1:] = out[i + 1:, i] = row_fn(values[i], values[i + 1:])
    return out


def whole_by_feature(matrix):
    """FeatureMatrix.by_feature with no blocks: the whole transpose, C-contiguous."""
    yield np.ascontiguousarray(matrix.values.T)
