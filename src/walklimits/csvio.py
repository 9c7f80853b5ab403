"""CSV and OFF-style serialization of walks, trajectories, bodies and reports.

Schemas (UTF-8, comma separated, one header line):
  walk        k,x1,...,xd                (prefix sums S_0..S_n)
  trajectory  t,x1,...,xd                (breakpoints and values; the kind
                                          travels in a leading '# kind =' line)
  samples     sample_id,value
  vertices    x1,...,xd
  report      name,estimate,stderr,reference,ks,pass,threshold
              (declared, written and read by ``experiments.COLUMNS``)

The OFF-like facet dump starts with the literal line 'OFF', then
'<vertices> <faces> 0', the vertex coordinate lines, and one face line per
facet ('<count> i j k ...', indices into the vertex list).  A planar body
(d = 2 or a flat hull) dumps its single polygon loop as one face.

The O(n) writers (walk, trajectory, samples) also come as ``*_blocks``
generators that format a few thousand rows at a time, so a long walk can
be streamed to a file; ``*_csv`` joins the same blocks.
"""

from __future__ import annotations

from itertools import starmap

import numpy as np

from .geometry import ConvexBody
from .trajectory import CONSTANT, LINEAR, Trajectory
from .walks import Walk


def _header(prefix: str, dim: int) -> str:
    return prefix + "," + ",".join(f"x{i + 1}" for i in range(dim))


def _floats(a) -> list:
    """Python floats (nested as the array), so repr(x) is repr(float(element))."""
    return np.asarray(a, dtype=float).tolist()


# Rows formatted per block by the O(n) writers: a block's Python floats and
# text are all that is held, however long the walk.
_BLOCK_ROWS = 4096


def _blocks(head: str, values, index=None):
    """head, then 'key,x1,...,xd' lines in blocks of _BLOCK_ROWS rows.

    The key is the row number, or the matching ``index`` float.  Every cell
    is a Python float, which str.format with an empty spec writes as its repr.
    """
    yield head
    values = np.asarray(values, dtype=float)
    width = values.shape[1]
    line = ",".join(["{}"] * (width + 1)) + "\n"
    for lo in range(0, len(values), _BLOCK_ROWS):
        block = values[lo : lo + _BLOCK_ROWS]
        keys = (range(lo, lo + len(block)) if index is None
                else index[lo : lo + _BLOCK_ROWS].tolist())
        # one iterator repeated width times deals each row its width cells
        cells = iter(block.ravel().tolist())
        yield "".join(starmap(line.format, zip(keys, *[cells] * width)))


def walk_blocks(walk: Walk):
    return _blocks(_header("k", walk.dim) + "\n", walk.sums)


def walk_csv(walk: Walk) -> str:
    return "".join(walk_blocks(walk))


def trajectory_blocks(traj: Trajectory):
    return _blocks(f"# kind = {traj.kind}\n" + _header("t", traj.dim) + "\n",
                   traj.values, traj.times)


def trajectory_csv(traj: Trajectory) -> str:
    return "".join(trajectory_blocks(traj))


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


def samples_blocks(values):
    return _blocks("sample_id,value\n", np.reshape(np.asarray(values, dtype=float), (-1, 1)))


def samples_csv(values) -> str:
    return "".join(samples_blocks(values))


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
