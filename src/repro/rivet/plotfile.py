"""Plot-data files: the distributable comparison artifact.

Real RIVET ships ``.dat`` plot files that downstream tools render. This
module writes the analogue: a plain-text, self-describing file per
histogram carrying the MC prediction, the reference measurement, the
per-bin ratio, and the comparison verdict — everything a reader needs to
re-draw or re-check the comparison without the framework.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import write_atomic
from repro.errors import PersistenceError, RivetError
from repro.rivet.reference import ReferenceData
from repro.rivet.runner import AnalysisResult
from repro.stats.comparison import chi2_test, ratio_points


def format_plot_file(result: AnalysisResult, reference: ReferenceData,
                     key: str) -> str:
    """Render one histogram comparison as plot-file text."""
    if key not in result.histograms:
        raise RivetError(
            f"result for {result.analysis_name!r} has no histogram "
            f"{key!r}"
        )
    prediction = result.histogram(key)
    measurement = reference.histogram(key)
    comparison = chi2_test(measurement, prediction)
    ratios = {center: (ratio, error)
              for center, ratio, error in ratio_points(prediction,
                                                       measurement)}
    lines = [
        f"# BEGIN PLOT {result.analysis_name}/{key}",
        f"# source analysis: {result.analysis_name}",
        f"# reference: {reference.source or 'archived measurement'}",
        f"# generator: {result.generator_info.get('generator', '?')} "
        f"tune={result.generator_info.get('tune', '?')}",
        f"# events: {result.n_events}",
        f"# comparison: {comparison.summary()}",
        "# columns: bin_low bin_high mc mc_err data data_err "
        "ratio ratio_err",
    ]
    mc_values = prediction.values()
    mc_errors = prediction.errors()
    data_values = measurement.values()
    data_errors = measurement.errors()
    centers = prediction.bin_centers()
    edges = prediction.edges
    for index in range(prediction.nbins):
        ratio, ratio_error = ratios.get(float(centers[index]),
                                        (float("nan"), float("nan")))
        lines.append(
            f"{edges[index]:.6g} {edges[index + 1]:.6g} "
            f"{mc_values[index]:.6g} {mc_errors[index]:.6g} "
            f"{data_values[index]:.6g} {data_errors[index]:.6g} "
            f"{ratio:.6g} {ratio_error:.6g}"
        )
    lines.append("# END PLOT")
    return "\n".join(lines)


def write_plot_files(result: AnalysisResult, reference: ReferenceData,
                     directory: str | Path) -> list[Path]:
    """Write one plot file per shared histogram key; returns the paths."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(
            f"cannot create plot directory {directory}: {exc}"
        )
    written = []
    for key in reference.keys():
        if key not in result.histograms:
            continue
        path = directory / f"{result.analysis_name}_{key}.dat"
        write_atomic(path, (format_plot_file(result, reference, key)
                            + "\n").encode("utf-8"), "plot file")
        written.append(path)
    if not written:
        raise RivetError(
            f"no shared histogram keys between result "
            f"{result.analysis_name!r} and its reference"
        )
    return written
