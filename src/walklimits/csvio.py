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
face row of the body ('<count> i j k ...', its ``faces`` row of indices
into the vertex list, as the hull builder made it): the facet triangles of
a full d = 3 hull, one counter-clockwise loop for a polygon (d = 2, or a
flat polygon in d >= 3), no face otherwise.

The O(n) writers (walk, trajectory, samples) are ``*_blocks`` generators
that format a few thousand rows at a time, so a long walk is streamed to
its file; ``"".join`` of the blocks gives the whole text.
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


def trajectory_blocks(traj: Trajectory):
    return _blocks(f"# kind = {traj.kind}\n" + _header("t", traj.dim) + "\n",
                   traj.values, traj.times)


def read_trajectory(text: str) -> Trajectory:
    """The trajectory of ``trajectory_blocks`` text; ValueError unless it has
    the kind line, the header line and at least one row of finite cells."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    kind = lines[0].partition("=")[2].strip() if lines and lines[0].startswith("# kind") else None
    if kind not in (LINEAR, CONSTANT):
        raise ValueError(f"the first line must be '# kind = {LINEAR}' or '# kind = {CONSTANT}'")
    data = np.asarray([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    if not (data.ndim == 2 and data.shape[1] > 1 and np.isfinite(data).all()):
        raise ValueError("need at least one row of t,x1,... with every cell finite")
    header = _header("t", data.shape[1] - 1)
    if lines[1] != header:
        raise ValueError(f"the second line must be {header}")
    return Trajectory(kind, data[:, 0], data[:, 1:])


def samples_blocks(values):
    return _blocks("sample_id,value\n", np.reshape(np.asarray(values, dtype=float), (-1, 1)))


def vertices_csv(body: ConvexBody) -> str:
    lines = [",".join(f"x{i + 1}" for i in range(body.dim))]
    for row in _floats(body.vertices):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def off_text(body: ConvexBody) -> str:
    lines = ["OFF", f"{len(body.vertices)} {len(body.faces)} 0"]
    for row in _floats(body.vertices):
        lines.append(" ".join(map(repr, row)))
    for face in body.faces.tolist():
        lines.append(str(len(face)) + " " + " ".join(map(str, face)))
    return "\n".join(lines) + "\n"
