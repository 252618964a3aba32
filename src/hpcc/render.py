"""SVG rendering of book embeddings.

The spine runs bottom to top with the source at the bottom; left-page
arcs bulge left, right-page arcs bulge right, and every dive through the
spine gets a tick.  Output is deterministic: coordinates are fixed
functions of the embedding and printed with two decimals; vertex names
are escaped as XML text, and characters XML 1.0 forbids become U+FFFD.
"""

from __future__ import annotations

import re

from .book import BookEmbedding, LEFT_PAGE
from .graph import OuterplanarStDigraph

_STEP = 48.0
_MARGIN = 42.0
_PAGE_COLOR = {True: "#2166ac", False: "#b2182b"}
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


def render_svg(g: OuterplanarStDigraph, be: BookEmbedding) -> str:
    n = len(be.spine)
    reach = {True: 1.0, False: 1.0}
    for d in be.drawings:
        for s in d.segments:
            left = s.page == LEFT_PAGE
            reach[left] = max(reach[left], s.end - s.start)
    x = _MARGIN + _bulge(reach[True])
    width = x + _bulge(reach[False]) + _MARGIN + 46.0
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
    for d in be.drawings:
        for s in d.segments:
            left = s.page == LEFT_PAGE
            ry = (s.end - s.start) * _STEP / 2.0
            path = (f'M {x:.2f} {y(s.start):.2f} '
                    f'A {_bulge(s.end - s.start):.2f} {ry:.2f} 0 0 '
                    f'{1 if left else 0} {x:.2f} {y(s.end):.2f}')
            out.append(f'<path d="{path}" fill="none" '
                       f'stroke="{_PAGE_COLOR[left]}" stroke-width="1.4"/>')
        for s in d.segments[:-1]:
            out.append(
                f'<line x1="{x - 4:.2f}" y1="{y(s.end):.2f}" '
                f'x2="{x + 4:.2f}" y2="{y(s.end):.2f}" '
                f'stroke="#444" stroke-width="1"/>')
    for i, v in enumerate(be.spine):
        out.append(f'<circle cx="{x:.2f}" cy="{y(i):.2f}" r="3.4" '
                   f'fill="#111"/>')
        out.append(f'<text x="{x + 9:.2f}" y="{y(i) + 4:.2f}" '
                   f'font-size="12" font-family="sans-serif" '
                   f'fill="#111">{_xml_text(g.name(v))}</text>')
    out.append("</svg>")
    return "\n".join(out)
