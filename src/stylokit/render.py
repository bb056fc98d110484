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


def dendrogram_svg(dend: Dendrogram, truth: Mapping[str, str], caption: str) -> str:
    """Horizontal dendrogram under a caption line, leaf labels colored by truth label.

    Leaf labels and the caption are XML-escaped, so any doc id gives a well-formed file.
    """
    n = dend.n_leaves
    max_height = dend.merges[-1].height or 1.0
    width = LABEL_ZONE + PLOT_WIDTH + 2 * MARGIN
    height = CAPTION_HEIGHT + n * ROW_HEIGHT + 2 * MARGIN

    def x_of(h: float) -> float:
        return MARGIN + LABEL_ZONE + (h / max_height) * PLOT_WIDTH

    labels = sorted(set(truth.values()))
    colors = {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(labels)}

    # (x, y) of node i: leaf i at height 0 in its leaf_order row, merge t at n + t.
    pos = [(x_of(0.0), 0.0)] * n
    for row, leaf in enumerate(leaf_order(dend)):
        pos[leaf] = (x_of(0.0), CAPTION_HEIGHT + MARGIN + (row + 0.5) * ROW_HEIGHT)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN}" y="{CAPTION_HEIGHT - 8}" font-family="monospace" '
        f'font-size="12">{_escape(caption)}</text>',
    ]
    for doc, (_, y) in zip(dend.leaves, pos):
        color = colors.get(truth.get(doc, ""), "#000000")
        lines.append(
            f'<text x="{MARGIN + LABEL_ZONE - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{_escape(doc)}</text>'
        )

    path_bits = []
    for merge in dend.merges:
        xl, yl = pos[merge.left]
        xr, yr = pos[merge.right]
        xm = x_of(merge.height)
        path_bits.append(
            f"M {_fmt(xl)} {_fmt(yl)} H {_fmt(xm)} V {_fmt(yr)} H {_fmt(xr)}"
        )
        pos.append((xm, (yl + yr) / 2.0))
    lines.append(
        f'<path d="{" ".join(path_bits)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(content: str, path: str | Path) -> None:
    write_text(content, path)
