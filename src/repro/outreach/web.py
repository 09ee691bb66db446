"""Static HTML export of an outreach dataset.

The browser-based tools of Table 1 (iSpy, the CMS JavaScript
histogrammers) need nothing but a web browser on the student's machine.
This module produces that artifact from a Level-2 dataset: one
standalone HTML page — no JavaScript, no external assets — with the
dataset summary, an inline-SVG histogram, and inline-SVG event displays.
Email the file to a classroom and the exercise runs anywhere.
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.core.canonical import write_atomic
from repro.detector.geometry import DetectorGeometry
from repro.errors import OutreachError
from repro.outreach.display import EventDisplayRecord
from repro.outreach.format import Level2Event
from repro.outreach.portal import OutreachPortal
from repro.outreach.svg import render_event_svg
from repro.stats.histogram import Histogram1D

_PAGE_STYLE = """
body { font-family: sans-serif; background: #fafafa; color: #222;
       max-width: 960px; margin: 2em auto; }
h1, h2 { color: #16425b; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #bbb; padding: 4px 10px;
         font-size: 0.9em; }
.display { display: inline-block; margin: 0.5em; }
.caption { font-size: 0.85em; color: #555; }
"""


def histogram_svg(histogram: Histogram1D, width: int = 560,
                  height: int = 240, colour: str = "#2e86ab") -> str:
    """Render a histogram as an inline SVG bar chart."""
    values = histogram.values()
    peak = float(values.max()) if histogram.nbins else 0.0
    if peak <= 0.0:
        raise OutreachError(
            f"histogram {histogram.name!r} is empty; nothing to draw"
        )
    margin = 30
    plot_width = width - 2 * margin
    plot_height = height - 2 * margin
    bar_width = plot_width / histogram.nbins
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white" '
        f'stroke="#ccc"/>',
    ]
    for index, value in enumerate(values):
        bar_height = plot_height * float(value) / peak
        x = margin + index * bar_width
        y = margin + plot_height - bar_height
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" '
            f'width="{max(1.0, bar_width - 1):.1f}" '
            f'height="{bar_height:.1f}" fill="{colour}"/>'
        )
    axis_y = margin + plot_height
    parts.append(
        f'<line x1="{margin}" y1="{axis_y}" x2="{margin + plot_width}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    parts.append(
        f'<text x="{margin}" y="{height - 6}" font-size="11" '
        f'fill="#333">{html.escape(f"{histogram.low:g}")}</text>'
    )
    parts.append(
        f'<text x="{margin + plot_width - 30}" y="{height - 6}" '
        f'font-size="11" fill="#333">'
        f'{html.escape(f"{histogram.high:g}")}</text>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 8}" font-size="12" '
        f'fill="#333">{html.escape(histogram.label or histogram.name)}'
        f"</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def export_portal_html(
    events: list[Level2Event],
    geometry: DetectorGeometry,
    dataset_name: str = "outreach-sample",
    histogram_variable: str = "dimuon_mass",
    histogram_range: tuple[int, float, float] = (30, 60.0, 120.0),
    n_displays: int = 3,
) -> str:
    """Build the standalone HTML page; returns it as a string."""
    if not events:
        raise OutreachError("cannot export an empty dataset")
    portal = OutreachPortal(events, dataset_name)
    summary = portal.summary()
    nbins, low, high = histogram_range
    histogram = portal.histogram(histogram_variable, nbins, low, high)
    histogram.label = histogram_variable

    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(dataset_name)}</title>",
        f"<style>{_PAGE_STYLE}</style></head><body>",
        f"<h1>{html.escape(dataset_name)}</h1>",
        "<p class='caption'>Standalone outreach export — "
        "no software needed beyond this page.</p>",
        "<h2>Dataset summary</h2>",
        "<table>",
    ]
    for key in ("n_events", "n_with_leptons", "n_with_jets"):
        parts.append(f"<tr><th>{html.escape(key)}</th>"
                     f"<td>{summary[key]}</td></tr>")
    parts.append("</table>")

    parts.append(f"<h2>{html.escape(histogram_variable)}</h2>")
    if histogram.integral() > 0:
        parts.append(histogram_svg(histogram))
        parts.append(
            f"<p class='caption'>{int(histogram.integral())} entries "
            f"between {low:g} and {high:g}.</p>"
        )
    else:
        parts.append("<p class='caption'>no entries in range</p>")

    parts.append("<h2>Event displays</h2>")
    shown = 0
    for index, event in enumerate(events):
        if shown >= n_displays:
            break
        if not event.particles:
            continue
        record = EventDisplayRecord.build(geometry, event)
        parts.append("<div class='display'>")
        parts.append(render_event_svg(record.to_dict(), size=300))
        parts.append(
            f"<div class='caption'>event {event.event_number}: "
            f"{len(event.particles)} particles, "
            f"MET {event.met:.1f} GeV</div></div>"
        )
        shown += 1
    if shown == 0:
        parts.append("<p class='caption'>no displayable events</p>")

    parts.append("<h2>First events</h2><table>")
    parts.append("<tr><th>event</th><th>type</th><th>E [GeV]</th>"
                 "<th>pt [GeV]</th><th>eta</th><th>phi</th>"
                 "<th>charge</th></tr>")
    for event in events[:10]:
        for particle in event.particles:
            parts.append(
                f"<tr><td>{event.event_number}</td>"
                f"<td>{html.escape(particle.particle_type)}</td>"
                f"<td>{particle.energy:.1f}</td>"
                f"<td>{particle.pt:.1f}</td>"
                f"<td>{particle.eta:.2f}</td>"
                f"<td>{particle.phi:.2f}</td>"
                f"<td>{particle.charge:+d}</td></tr>"
            )
    parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_portal_html(path: str | Path, events: list[Level2Event],
                      geometry: DetectorGeometry, **options) -> Path:
    """Write the export to a file; returns the path."""
    page = export_portal_html(events, geometry, **options)
    write_atomic(path, page.encode("utf-8"), "portal page")
    return Path(path)
