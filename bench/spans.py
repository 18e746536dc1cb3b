"""Span recorder for the benchmark's traced, in-process pass.

The spans sit only in the benchmark: :func:`instrumented` temporarily
replaces the public functions listed in :data:`TRACED`, in every q8sculpt
module that holds a reference to them, by wrappers that open a span around
the call.  Running ``q8sculpt.cli.main`` under it therefore records the
program's real call tree without any change to the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    invocation: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; one invocation id per command invocation.

    ``last_call`` maps each span name to the (positional arguments, result)
    of its latest call, for checks made after the call.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self.last_call: dict[str, tuple] = {}
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.invocation, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(args, result))
            self.last_call[name] = (args, result)
            return result

        return traced

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another, so their durations add.
        """
        covered = {s.id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        return {s.id: s.seconds - covered[s.id] for s in self.spans}

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _nbytes(args, result):
    return {"bytes": len(result)}


# (module, attribute, span name, counter).  A counter maps the call's
# positional arguments and result to numbers added to the span.
TRACED = [
    ("mesh_pipeline", "load_obj", "mesh_pipeline.load_obj", lambda a, r: {"bytes": len(a[0])}),
    ("mesh_pipeline", "scale_for_min_feature", "mesh_pipeline.scale_for_min_feature", None),
    ("mesh_pipeline", "generate_sculpture", "mesh_pipeline.generate_sculpture", None),
    ("mesh_pipeline", "transform_mesh", "mesh_pipeline.transform_mesh", None),
    ("mesh_pipeline", "unprojected_part_points", "mesh_pipeline.unprojected_part_points", None),
    ("mesh_pipeline", "merge_meshes", "mesh_pipeline.merge_meshes", None),
    ("mesh_pipeline", "write_obj", "mesh_pipeline.write_obj", _nbytes),
    (
        "mesh_pipeline",
        "write_stl",
        "mesh_pipeline.write_stl",
        lambda a, r: {"bytes": len(r), "triangles": a[0].n_triangles},
    ),
    ("mesh_pipeline", "feature_stats", "mesh_pipeline.feature_stats", None),
    (
        "mesh_pipeline",
        "orbit_cloud",
        "mesh_pipeline.orbit_cloud",
        lambda a, r: {"points_in": 8 * a[0].n_vertices, "points_kept": len(r)},
    ),
    ("mesh_pipeline", "face_contact_check", "mesh_pipeline.face_contact_check", None),
    ("projection", "radial_to_s3", "projection.radial_to_s3", None),
    ("projection", "stereo_project", "projection.stereo_project", None),
    ("hypercube", "hyperoctahedral_candidates", "hypercube.hyperoctahedral_candidates", None),
    ("symmetry", "seed_asymmetry_check", "symmetry.seed_asymmetry_check", None),
    ("symmetry", "min_pairwise_distance", "symmetry.min_pairwise_distance", None),
    ("symmetry", "surviving_candidates", "symmetry.surviving_candidates", None),
    ("symmetry", "classify_chirality", "symmetry.classify_chirality", None),
    (
        "symmetry",
        "symmetry_group",
        "symmetry.symmetry_group",
        lambda a, r: {"candidates_tested": r.candidates_tested, "survivors": len(r.symmetries)},
    ),
    ("symmetry", "PointCloud4.to_json", "symmetry.cloud_to_json", _nbytes),
    ("symmetry", "PointCloud4.from_json", "symmetry.cloud_from_json", lambda a, r: {"bytes": len(a[1])}),
]


@contextmanager
def instrumented(tracer: Tracer):
    """Route the calls listed in TRACED through ``tracer`` while active."""
    restore = []
    try:
        for module_name, attr, name, count in TRACED:
            module = importlib.import_module(f"q8sculpt.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = tracer.wrap(name, fn, count)
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                setattr(owner, method, new)
                restore.append((owner, method, raw))
                continue
            fn = getattr(module, attr)
            wrapped = tracer.wrap(name, fn, count)
            for holder in [m for key, m in sys.modules.items() if key.startswith("q8sculpt")]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
                        restore.append((holder, key, fn))
        yield
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)

