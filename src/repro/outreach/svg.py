"""An SVG event display: the graphical client for display records.

Renders the transverse (r-phi) view of an :class:`EventDisplayRecord` —
detector shells from the geometry export, curved tracks from the helix
polylines, calorimeter towers as radial bars, and the MET arrow — as a
standalone SVG document. Pure string assembly, no graphics libraries:
the display "runs on essentially any platform", which is the portability
property the workshop kept returning to.
"""

from __future__ import annotations

import math

from repro.errors import OutreachError

_KIND_COLOURS = {
    "ecal": "#2e8b57",
    "hcal": "#b8860b",
    "muon": "#8b0000",
    "tracker": "#4682b4",
}
_TRACK_COLOURS = {1: "#c0392b", -1: "#2980b9", 0: "#7f8c8d"}


def _scale(value_mm: float, max_radius_mm: float, half_size: float) -> float:
    return value_mm / max_radius_mm * half_size


def render_event_svg(display_record: dict, size: int = 600) -> str:
    """Render a display record (``EventDisplayRecord.to_dict()``) to SVG.

    Returns the SVG document as a string. Raises
    :class:`OutreachError` for records that are not display records.
    """
    if display_record.get("format") != "repro-event-display":
        raise OutreachError(
            f"not an event-display record: "
            f"format={display_record.get('format')!r}"
        )
    geometry = display_record["geometry"]
    payload = display_record["payload"]
    half = size / 2.0
    max_radius = max(
        (sub["outer_radius_mm"] for sub in geometry["subdetectors"]),
        default=1000.0,
    ) * 1.05

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#101418"/>',
        f'<g transform="translate({half},{half})">',
    ]

    # Detector shells, outermost first so inner systems draw on top.
    shells = sorted(geometry["subdetectors"],
                    key=lambda sub: sub["outer_radius_mm"],
                    reverse=True)
    for sub in shells:
        colour = _KIND_COLOURS.get(sub["kind"], "#555555")
        outer = _scale(sub["outer_radius_mm"], max_radius, half)
        inner = _scale(sub["inner_radius_mm"], max_radius, half)
        parts.append(
            f'<circle r="{outer:.1f}" fill="none" stroke="{colour}" '
            f'stroke-opacity="0.55" stroke-width="1.2"/>'
        )
        parts.append(
            f'<circle r="{inner:.1f}" fill="none" stroke="{colour}" '
            f'stroke-opacity="0.3" stroke-width="0.8"/>'
        )

    # Calorimeter towers: radial bars at the tower's phi, length by
    # energy (log-compressed so soft activity stays visible).
    towers = payload.get("towers", [])
    peak = max((tower["energy"] for tower in towers), default=0.0)
    scale = math.log1p(max(peak, 0.0)) or 1.0
    calo_inner = _scale(
        min((sub["inner_radius_mm"]
             for sub in geometry["subdetectors"]
             if sub["kind"] in ("ecal", "hcal")), default=1200.0),
        max_radius, half,
    )
    for tower in towers:
        fraction = math.log1p(max(tower["energy"], 0.0)) / scale
        length = 0.25 * half * fraction
        colour = _KIND_COLOURS.get(tower["kind"], "#aaaaaa")
        x0 = calo_inner * math.cos(tower["phi"])
        y0 = -calo_inner * math.sin(tower["phi"])
        x1 = (calo_inner + length) * math.cos(tower["phi"])
        y1 = -(calo_inner + length) * math.sin(tower["phi"])
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" '
            f'y2="{y1:.1f}" stroke="{colour}" stroke-width="4" '
            f'stroke-opacity="0.85"/>'
        )

    # Tracks: the helix polylines from the payload.
    for track in payload.get("tracks", []):
        colour = _TRACK_COLOURS.get(int(track.get("charge", 0)),
                                    "#7f8c8d")
        points = " ".join(
            f"{_scale(x, max_radius, half):.1f},"
            f"{-_scale(y, max_radius, half):.1f}"
            for x, y in track.get("points", [])
        )
        if points:
            parts.append(
                f'<polyline points="0,0 {points}" fill="none" '
                f'stroke="{colour}" stroke-width="1.6"/>'
            )

    # The MET arrow.
    met = payload.get("met", {})
    met_value = float(met.get("value", 0.0))
    if met_value > 1.0:
        met_phi = float(met.get("phi", 0.0))
        length = 0.5 * half * min(1.0, met_value / 100.0)
        x1 = length * math.cos(met_phi)
        y1 = -length * math.sin(met_phi)
        parts.append(
            f'<line x1="0" y1="0" x2="{x1:.1f}" y2="{y1:.1f}" '
            f'stroke="#f1c40f" stroke-width="2.5" '
            f'stroke-dasharray="6,4"/>'
        )

    run = display_record.get("run", "?")
    event = display_record.get("event", "?")
    parts.append(
        f'<text x="{-half + 10:.0f}" y="{-half + 20:.0f}" '
        f'fill="#dddddd" font-family="monospace" font-size="13">'
        f"run {run} event {event}   MET {met_value:.1f} GeV</text>"
    )
    parts.append("</g></svg>")
    return "\n".join(parts)
