"""ASCII rendering of the paper's figures.

The figure benchmarks print their series as tables; this module also
renders them the way the paper's plots read — one labelled bar row per
point — so a terminal diff against Figure 6 is possible without a
plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_series"]

_BAR = "#"


def render_series(
    labels: Sequence[str],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    width: int = 48,
) -> str:
    """Render several y-series over shared x-labels as bar groups.

    ``series`` maps a series name to one value per label.  All series
    share one scale (the global maximum), so relative heights are
    comparable across series — which is what the paper's comparison
    plots convey.
    """
    if not labels:
        raise ValueError("no data points")
    for name, values in series.items():
        if len(values) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(labels)} labels"
            )
    peak = max((max(values) for values in series.values()), default=0.0)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(str(label)) for label in labels)
    name_width = max(len(name) for name in series)

    lines = []
    if title:
        lines.append(title)
    for index, label in enumerate(labels):
        for name, values in series.items():
            value = values[index]
            bar = _BAR * max(1 if value > 0 else 0, round(value / peak * width))
            lines.append(
                f"{str(label):>{label_width}} {name:<{name_width}} "
                f"|{bar:<{width}}| {value:g}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
