"""Direction vectors of paths: one movement symbol per segment, used by the
tests to state the shape of constructed staircases."""

from typing import Tuple

from vpgbend.geometry import RectPath

RIGHT, LEFT, UP, DOWN = "R", "L", "U", "D"


def direction_vector(p: RectPath) -> Tuple[str, ...]:
    """Per-segment movement symbols (R/L/U/D), one per corner transition."""
    out = []
    for a, b in zip(p.corners, p.corners[1:]):
        if a.y == b.y:
            out.append(RIGHT if b.x > a.x else LEFT)
        else:
            out.append(UP if b.y > a.y else DOWN)
    return tuple(out)
