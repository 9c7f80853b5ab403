"""CSV and OFF-style serialization of walks, trajectories, bodies and reports.

Schemas (UTF-8, comma separated, one header line):
  walk        k,x1,...,xd                (prefix sums S_0..S_n)
  trajectory  t,x1,...,xd                (breakpoints and values; the kind
                                          travels in a leading '# kind =' line)
  samples     sample_id,value
  vertices    x1,...,xd
  report      name,estimate,stderr,reference,ks,pass,threshold

The OFF-like facet dump starts with the literal line 'OFF', then
'<vertices> <faces> 0', the vertex coordinate lines, and one face line per
facet ('<count> i j k ...', indices into the vertex list).  A planar body
(d = 2 or a flat hull) dumps its single polygon loop as one face.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConvexBody
from .trajectory import CONSTANT, LINEAR, Trajectory
from .walks import Walk


def _header(prefix: str, dim: int) -> str:
    return prefix + "," + ",".join(f"x{i + 1}" for i in range(dim))


def _floats(a) -> list:
    """Python floats (nested as the array), so repr(x) is repr(float(element))."""
    return np.asarray(a, dtype=float).tolist()


def walk_csv(walk: Walk) -> str:
    lines = [_header("k", walk.dim)]
    for k, row in enumerate(_floats(walk.sums)):
        lines.append(str(k) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    lines = [f"# kind = {traj.kind}", _header("t", traj.dim)]
    for t, row in zip(_floats(traj.times), _floats(traj.values)):
        lines.append(repr(t) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text: str, kind: str | None = None) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("# kind"):
        kind = lines[0].partition("=")[2].strip()
        lines = lines[1:]
    if kind not in (LINEAR, CONSTANT):
        raise ValueError("trajectory kind missing; pass kind= or a '# kind =' line")
    rows = [ln.split(",") for ln in lines[1:]]
    data = np.asarray([[float(x) for x in row] for row in rows])
    return Trajectory(kind, data[:, 0], data[:, 1:])


def samples_csv(values) -> str:
    lines = ["sample_id,value"]
    for i, v in enumerate(_floats(np.ravel(values))):
        lines.append(f"{i},{v!r}")
    return "\n".join(lines) + "\n"


def vertices_csv(body: ConvexBody) -> str:
    lines = [",".join(f"x{i + 1}" for i in range(body.dim))]
    for row in _floats(body.vertices):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def off_text(body: ConvexBody) -> str:
    verts = body.vertices
    faces: list[list[int]] = []
    if body.dim == 3 and body.faces is not None:
        index = {tuple(v): i for i, v in enumerate(map(tuple, verts))}
        for tri in body.faces:
            try:
                faces.append([index[tuple(p)] for p in tri])
            except KeyError:
                continue
    elif body.loop is not None and len(body.loop) >= 2:
        index = {tuple(v): i for i, v in enumerate(map(tuple, verts))}
        faces.append([index[tuple(p)] for p in body.loop])
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    for row in _floats(verts):
        lines.append(" ".join(map(repr, row)))
    for face in faces:
        lines.append(str(len(face)) + " " + " ".join(map(str, face)))
    return "\n".join(lines) + "\n"
