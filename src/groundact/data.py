"""Annotations, the native annotation file, and the deterministic synthetic
scene generator.

ACTIONS and GROUPS are the label world: their lengths size the decoder's
action and group heads.  Synthetic clips render each actor as a
distinct-intensity rectangle moving by a scripted rule, so the annotation
tubes are exact by construction.  The group activity is derived from the
actors' actions by majority vote (``metrics.group_activity_vote``), which
makes it exactly learnable.  Inference runs an array form of the same rule
over the whole batch (``training.evaluate``); a test pins the two together.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .backbones import DataError, VideoClip
from .metrics import group_activity_vote


class ParseError(ValueError):
    pass


# -- label world -------------------------------------------------------------

ACTIONS = ["stand", "walk", "run", "wave", "jump", "sit"]
GROUPS = ["standing", "walking", "running", "waving", "jumping", "sitting"]
ACTION_TO_GROUP = {i: i for i in range(len(ACTIONS))}

# fine -> merged classes: locomotion vs gesture vs static
MERGED_GROUPS = {"standing": "static", "sitting": "static",
                 "walking": "moving", "running": "moving",
                 "waving": "gesturing", "jumping": "gesturing"}

MOTION_KINDS = ("stationary", "linear", "oscillate")
ACTION_FOR_MOTION = {"stationary": ACTIONS.index("stand"),
                     "linear": ACTIONS.index("walk"),
                     "oscillate": ACTIONS.index("wave")}


@dataclass
class ActorAnnotation:
    track_id: int
    tube: np.ndarray                 # [T_total, 4] normalized cxcywh
    actions: List[int]               # indices into ACTIONS


@dataclass
class SceneAnnotation:
    clip_id: str
    keyframe: int
    actors: List[ActorAnnotation]
    group_activity: Optional[int]    # index into GROUPS
    weak: bool = False               # action labels stripped


def weak_supervision_view(ann: SceneAnnotation) -> SceneAnnotation:
    """Drop per-actor action labels, keep boxes and the group label."""
    actors = [ActorAnnotation(a.track_id, a.tube, []) for a in ann.actors]
    return replace(ann, actors=actors, weak=True)


# -- synthetic scenes --------------------------------------------------------

@dataclass
class ScenarioScript:
    seed: int
    num_actors: int
    motions: List[str]               # one of MOTION_KINDS per actor
    actions: List[int]               # one action per actor
    speeds: List[float] = field(default_factory=list)
    directions: List[Tuple[float, float]] = field(default_factory=list)
    starts: List[Tuple[float, float]] = field(default_factory=list)
    sizes: List[Tuple[float, float]] = field(default_factory=list)

    @classmethod
    def sample(cls, rng: np.random.Generator, num_actors: int,
               motion_pool: Sequence[str] = MOTION_KINDS):
        motions = [motion_pool[rng.integers(len(motion_pool))]
                   for _ in range(num_actors)]
        actions = [ACTION_FOR_MOTION[m] for m in motions]
        speeds = [0.04 + 0.04 * rng.random() for _ in range(num_actors)]
        return cls(int(rng.integers(1 << 31)), num_actors, motions, actions, speeds)


def _motion_center(kind: str, start: np.ndarray, speed: float, frame: int,
                   direction: np.ndarray) -> np.ndarray:
    if kind == "stationary":
        return start
    if kind == "linear":
        return start + direction * speed * frame
    if kind == "oscillate":
        return start + direction * 0.15 * np.sin(2 * np.pi * frame / 8.0)
    raise DataError(f"unknown motion kind {kind!r}")


def generate_scene(script: ScenarioScript, t_total: int,
                   raster: Tuple[int, int] = (32, 32)):
    """Render a clip and its exact annotation; deterministic given the script."""
    h, w = raster
    rng = np.random.default_rng(script.seed)
    n = script.num_actors
    if n < 1:
        raise DataError(f"a scene needs at least one actor, got {n}")

    # non-overlapping starting placements; re-seed draws on collision
    placements, sizes = [], []
    for i in range(n):
        for _ in range(20):
            c = rng.uniform(0.2, 0.8, size=2)
            size = rng.uniform(0.12, 0.22, size=2)
            if all(np.abs(c - p).max() > 0.18 for p in placements):
                break
        placements.append(c)
        sizes.append(size)

    dirs = [rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.4, 1.0, size=2)
            for _ in range(n)]
    # scripted overrides make individual trajectories exactly reproducible
    if script.starts:
        placements = [np.asarray(s, dtype=float) for s in script.starts]
    if script.sizes:
        sizes = [np.asarray(s, dtype=float) for s in script.sizes]
    if script.directions:
        dirs = [np.asarray(d, dtype=float) for d in script.directions]
    intensities = np.linspace(0.35, 1.0, n)

    frames = np.zeros((t_total, h, w, 1))
    tubes = np.zeros((n, t_total, 4))
    for f in range(t_total):
        for i in range(n):
            c = _motion_center(script.motions[i], placements[i],
                               script.speeds[i] if script.speeds else 0.05,
                               f, dirs[i])
            bw, bh = sizes[i]
            cx = float(np.clip(c[0], bw / 2, 1 - bw / 2))
            cy = float(np.clip(c[1], bh / 2, 1 - bh / 2))
            x1 = int(round((cx - bw / 2) * w))
            x2 = max(int(round((cx + bw / 2) * w)), x1 + 1)
            y1 = int(round((cy - bh / 2) * h))
            y2 = max(int(round((cy + bh / 2) * h)), y1 + 1)
            frames[f, y1:y2, x1:x2, 0] = intensities[i]
            # the annotation tube is the rendered rectangle, not the ideal one,
            # so a box fitted back to the pixels matches it exactly
            tubes[i, f] = ((x1 + x2) / (2 * w), (y1 + y2) / (2 * h),
                           (x2 - x1) / w, (y2 - y1) / h)

    actors = [ActorAnnotation(i, tubes[i], [script.actions[i]])
              for i in range(n)]
    group = group_activity_vote([a.actions for a in actors], ACTION_TO_GROUP)
    clip = VideoClip(frames=frames, clip_id=f"synthetic-{script.seed}")
    ann = SceneAnnotation(clip_id=clip.clip_id, keyframe=t_total // 2,
                          actors=actors, group_activity=group)
    return clip, ann


def generate_corpus(seed: int, num_clips: int, num_actors: int, t_total: int,
                    raster: Tuple[int, int] = (32, 32),
                    motion_pool: Sequence[str] = MOTION_KINDS):
    """A reproducible list of (clip, annotation) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(num_clips):
        script = ScenarioScript.sample(rng, num_actors, motion_pool)
        clip, ann = generate_scene(script, t_total, raster)
        clip.clip_id = f"clip-{seed}-{i:04d}"
        ann = replace(ann, clip_id=clip.clip_id)
        out.append((clip, ann))
    return out


def prompt_for(ann: SceneAnnotation) -> str:
    """Grounding prompt: the candidate action words present in the scene.

    The group-activity word is deliberately absent — the prompt describes
    what to ground, never the label the model is asked to predict.  With
    three or more actors the action *set* does not determine the majority,
    so group recognition still requires looking at the clip.
    """
    seen = sorted({a for actor in ann.actors for a in actor.actions})
    words = [ACTIONS[a] for a in seen]
    return " ".join(words) if words else "people"


# -- native annotation format ------------------------------------------------

_NATIVE_HEADER = "#groundact-annotations v1"


def save_annotations(path, annotations: Sequence[SceneAnnotation]):
    """Line-delimited JSON records under a versioned header."""
    with open(path, "w") as fh:
        fh.write(_NATIVE_HEADER + "\n")
        for ann in annotations:
            rec = {
                "clip_id": ann.clip_id,
                "keyframe": ann.keyframe,
                "group_activity": ann.group_activity,
                "weak": ann.weak,
                "actors": [{"track_id": a.track_id,
                            "tube": np.round(a.tube, 6).tolist(),
                            "actions": list(a.actions)} for a in ann.actors],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _field(rec: dict, key: str, kind, lineno: int, optional=False):
    """rec[key], which must be a ``kind`` (a JSON true or false is not an
    int), or None if ``optional`` and absent; a missing or mistyped field is
    a ParseError naming the line."""
    if key not in rec:
        if optional:
            return None
        raise ParseError(f"line {lineno}: missing field {key!r}")
    value = rec[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ParseError(f"line {lineno}: field {key!r} has type "
                         f"{type(value).__name__}")
    return value


def _tube(tube: list, lineno: int) -> np.ndarray:
    """A [T, 4] tube of boxes inside the unit square."""
    try:
        box = np.asarray(tube)
        ok = box.dtype.kind in "iuf" and box.ndim == 2 and box.shape[1] == 4
    except ValueError:                 # ragged nesting
        ok = False
    if not ok:
        raise ParseError(f"line {lineno}: tube is not a [T, 4] array of numbers")
    box = box.astype(np.float64)
    if (not np.isfinite(box).all() or box.min() < 0 or box.max() > 1
            or (box[:, 2:] <= 0).any()):
        raise DataError(f"line {lineno}: box outside [0,1] or of zero size: "
                        f"{box.tolist()}")
    return box


def _parse_record(line: str, lineno: int) -> SceneAnnotation:
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"line {lineno}: bad JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ParseError(f"line {lineno}: record is not a JSON object")
    actors = []
    for a in _field(rec, "actors", list, lineno):
        if not isinstance(a, dict):
            raise ParseError(f"line {lineno}: actor is not a JSON object")
        actions = _field(a, "actions", list, lineno)
        if not all(type(act) is int for act in actions):
            raise ParseError(f"line {lineno}: actions {actions} are not all "
                             f"integers")
        if not all(0 <= act < len(ACTIONS) for act in actions):
            raise DataError(f"line {lineno}: unknown action index in {actions}")
        actors.append(ActorAnnotation(_field(a, "track_id", int, lineno),
                                      _tube(_field(a, "tube", list, lineno),
                                            lineno),
                                      actions))
    if len({a.tube.shape[0] for a in actors}) > 1:
        raise DataError(f"line {lineno}: actor tubes differ in length")
    ga = _field(rec, "group_activity", (int, type(None)), lineno,
                optional=True)
    if ga is not None and not 0 <= ga < len(GROUPS):
        raise DataError(f"line {lineno}: unknown group index {ga}")
    clip_id = _field(rec, "clip_id", str, lineno)
    keyframe = _field(rec, "keyframe", int, lineno)
    if actors and keyframe != actors[0].tube.shape[0] // 2:
        frames = actors[0].tube.shape[0]
        raise DataError(f"line {lineno}: keyframe {keyframe} is not frame "
                        f"{frames // 2}, the middle of the {frames}-frame "
                        f"tubes")
    return SceneAnnotation(
        clip_id=clip_id, keyframe=keyframe, actors=actors, group_activity=ga,
        weak=bool(_field(rec, "weak", bool, lineno, optional=True)))


def load_annotations(path) -> List[SceneAnnotation]:
    """Read a file written by :func:`save_annotations`.  A malformed line is
    a ParseError (bad encoding, JSON, field or type) or a DataError (a label
    or box outside the label world or the unit square, or a keyframe other
    than the middle frame ``T // 2`` of the record's tubes) naming the line
    and the file; a file that cannot be read is a DataError naming it."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:             # missing, a directory, unreadable
        raise DataError(f"cannot read annotations: {exc.strerror or exc}, "
                        f"in {path}") from None
    out = []
    try:
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: not UTF-8: {exc}") from None
            if lineno == 1:
                if line.strip() != _NATIVE_HEADER:
                    raise ParseError(f"line 1: expected header "
                                     f"{_NATIVE_HEADER!r}")
            elif line.strip():
                out.append(_parse_record(line, lineno))
    except (ParseError, DataError) as exc:
        raise type(exc)(f"{exc}, in {path}") from None
    return out


# -- splits ------------------------------------------------------------------

def make_splits(corpus: Sequence, ratios: Tuple[float, float], seed: int):
    """Deterministic shuffled (train, test) split of (clip, annotation)
    pairs by clip id."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    items = list(corpus)
    order = sorted(range(len(items)), key=lambda i: items[i][1].clip_id)
    random.Random(seed).shuffle(order)
    cut = int(round(ratios[0] * len(items)))
    train = [items[i] for i in order[:cut]]
    test = [items[i] for i in order[cut:]]
    return train, test
