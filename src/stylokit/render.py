"""Self-contained SVG dendrogram rendering (no external tooling)."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .cluster import Dendrogram, leaf_order, write_text

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
    "#aec7e8", "#98df8a",
)

ROW_HEIGHT = 18
LABEL_ZONE = 170
PLOT_WIDTH = 560
MARGIN = 14
CAPTION_HEIGHT = 26


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib and http into every command.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def dendrogram_svg(
    dend: Dendrogram,
    truth: Mapping[str, str] | None = None,
    caption: str = "",
) -> str:
    """Horizontal dendrogram; leaf labels colored by truth label when given.

    Leaf labels and the caption are XML-escaped, so any doc id gives a well-formed file.
    """
    n = dend.n_leaves
    order = leaf_order(dend)
    row_of = {leaf: i for i, leaf in enumerate(order)}

    max_height = dend.merges[-1].height or 1.0
    width = LABEL_ZONE + PLOT_WIDTH + 2 * MARGIN
    height = CAPTION_HEIGHT + n * ROW_HEIGHT + 2 * MARGIN

    def x_of(h: float) -> float:
        return MARGIN + LABEL_ZONE + (h / max_height) * PLOT_WIDTH

    def y_of_leaf(leaf: int) -> float:
        return CAPTION_HEIGHT + MARGIN + (row_of[leaf] + 0.5) * ROW_HEIGHT

    colors: dict[str, str] = {}
    if truth:
        for i, label in enumerate(sorted(set(truth.values()))):
            colors[label] = PALETTE[i % len(PALETTE)]

    # Position of every node: leaves sit at height 0, merges at their height.
    pos: dict[int, tuple[float, float]] = {}
    for leaf in range(n):
        pos[leaf] = (x_of(0.0), y_of_leaf(leaf))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if caption:
        lines.append(
            f'<text x="{MARGIN}" y="{CAPTION_HEIGHT - 8}" font-family="monospace" '
            f'font-size="12">{_escape(caption)}</text>'
        )
    for leaf in range(n):
        doc = dend.leaves[leaf]
        color = colors.get(truth.get(doc, ""), "#000000") if truth else "#000000"
        _, y = pos[leaf]
        lines.append(
            f'<text x="{MARGIN + LABEL_ZONE - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{_escape(doc)}</text>'
        )

    path_bits = []
    for t, merge in enumerate(dend.merges):
        xl, yl = pos[merge.left]
        xr, yr = pos[merge.right]
        xm = x_of(merge.height)
        path_bits.append(
            f"M {_fmt(xl)} {_fmt(yl)} H {_fmt(xm)} V {_fmt(yr)} H {_fmt(xr)}"
        )
        pos[n + t] = (xm, (yl + yr) / 2.0)
    lines.append(
        f'<path d="{" ".join(path_bits)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(content: str, path: str | Path) -> None:
    write_text(content, path)
