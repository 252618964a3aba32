"""SVG rendering of book embeddings.

The spine runs bottom to top with the source at the bottom; left-page
arcs bulge left, right-page arcs bulge right, and every dive through the
spine gets a tick.  Output is deterministic: coordinates are fixed
functions of the embedding and printed with two decimals; vertex names
are escaped as XML text, and characters XML 1.0 forbids become U+FFFD.
"""

from __future__ import annotations

import re

import numpy as np

from .book import BookEmbedding
from .graph import OuterplanarStDigraph

_STEP = 48.0
_MARGIN = 42.0
_PAGE_COLOR = ("#b2182b", "#2166ac")   # right page, left page
# characters XML 1.0 cannot carry even escaped (C0 controls but tab, LF,
# CR; lone surrogates; U+FFFE, U+FFFF); re compiles it on first use
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _xml_text(name) -> str:
    """The name as XML character data: what ``html.escape(quote=False)``
    gives, without importing ``html`` and its entity table, with each
    character XML forbids replaced by U+FFFD."""
    return re.sub(_NOT_XML, "\ufffd", str(name)).replace("&", "&amp;") \
        .replace("<", "&lt;").replace(">", "&gt;")


def _bulge(span: float) -> float:
    return 12.0 + 15.0 * span


@np.errstate(over="ignore", invalid="ignore")   # silent, as Python floats
def render_svg(g: OuterplanarStDigraph, be: BookEmbedding) -> str:
    n, left = len(be.spine), be.left
    span = be.end - be.start
    # the widest arc on each side, at least 1; a nan span never wins
    reach = [float(np.fmax.reduce(span[side], initial=1.0))
             for side in (left, ~left)]
    x = _MARGIN + _bulge(reach[0])
    width = x + _bulge(reach[1]) + _MARGIN + 46.0
    height = 2 * _MARGIN + (n - 1) * _STEP + 18.0

    def y(c: float) -> float:
        return height - _MARGIN - c * _STEP

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<text x="{_MARGIN:.2f}" y="16" font-size="12" '
        f'font-family="sans-serif" fill="#333">'
        f'{be.spine_crossing_count} spine crossing'
        f'{"" if be.spine_crossing_count == 1 else "s"}</text>',
        f'<line x1="{x:.2f}" y1="{y(0):.2f}" x2="{x:.2f}" '
        f'y2="{y(n - 1):.2f}" stroke="#bbb" stroke-width="1"/>',
    ]
    for i, edge in enumerate(g.has_edges(be.spine[:-1], be.spine[1:])):
        if not edge:
            out.append(
                f'<line x1="{x:.2f}" y1="{y(i):.2f}" x2="{x:.2f}" '
                f'y2="{y(i + 1):.2f}" stroke="#777" stroke-width="1.6" '
                f'stroke-dasharray="5 4"/>')
    # each drawing's arcs, then a tick at each of its dives
    lo, hi = y(be.start), y(be.end)
    arcs = [f'<path d="M {x:.2f} {a:.2f} A {r:.2f} {h:.2f} 0 0 {k} '
            f'{x:.2f} {b:.2f}" fill="none" stroke="{_PAGE_COLOR[k]}" '
            f'stroke-width="1.4"/>'
            for a, b, r, h, k in zip(lo.tolist(), hi.tolist(),
                                     _bulge(span).tolist(),
                                     (span * _STEP / 2.0).tolist(),
                                     left.view(np.int8).tolist())]
    d = np.arange(len(be.tail)).repeat(np.diff(be.seg))   # per segment
    dive = d == np.append(d[1:], -1)    # the next segment is d's too
    arcs += [f'<line x1="{x - 4:.2f}" y1="{c:.2f}" x2="{x + 4:.2f}" '
             f'y2="{c:.2f}" stroke="#444" stroke-width="1"/>'
             for c in hi[dive].tolist()]
    out += map(arcs.__getitem__, np.concatenate((d, d[dive])).argsort(
        kind="stable").tolist())
    for i, v in enumerate(be.spine):
        out.append(f'<circle cx="{x:.2f}" cy="{y(i):.2f}" r="3.4" '
                   f'fill="#111"/>')
        out.append(f'<text x="{x + 9:.2f}" y="{y(i) + 4:.2f}" '
                   f'font-size="12" font-family="sans-serif" '
                   f'fill="#111">{_xml_text(g.name(v))}</text>')
    out.append("</svg>")
    return "\n".join(out)
