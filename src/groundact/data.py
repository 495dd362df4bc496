"""Annotations, dataset loaders, and the deterministic synthetic scene
generator.

Synthetic clips render each actor as a distinct-intensity rectangle moving by
a scripted rule, so the annotation tubes are exact by construction.  The
group activity is derived from the actors' actions by majority, mirroring
the vote used at inference time, which makes it exactly learnable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backbones import DataError, VideoClip


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
    social_groups: Optional[List[Tuple[List[int], int]]] = None
    weak: bool = False               # action labels stripped


def weak_supervision_view(ann: SceneAnnotation) -> SceneAnnotation:
    """Drop per-actor action labels, keep boxes and the group label."""
    actors = [ActorAnnotation(a.track_id, a.tube, []) for a in ann.actors]
    return replace(ann, actors=actors, weak=True)


def group_from_actions(action_lists: Sequence[Sequence[int]]) -> int:
    """Majority action mapped to its group label; ties break low."""
    counts: Dict[int, int] = {}
    for acts in action_lists:
        for a in acts:
            counts[a] = counts.get(a, 0) + 1
    if not counts:
        raise DataError("no actions to derive a group activity from")
    best = min(sorted(counts), key=lambda a: (-counts[a], a))
    return ACTION_TO_GROUP[best]


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
                   raster: Tuple[int, int] = (32, 32),
                   max_placement_tries: int = 20):
    """Render a clip and its exact annotation; deterministic given the script."""
    h, w = raster
    rng = np.random.default_rng(script.seed)
    n = script.num_actors

    # non-overlapping starting placements; re-seed draws on collision
    placements, sizes = [], []
    for i in range(n):
        for attempt in range(max_placement_tries):
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
    group = group_from_actions([a.actions for a in actors])
    clip = VideoClip(frames=frames, frame_rate=8.0,
                     clip_id=f"synthetic-{script.seed}")
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
            if ann.social_groups is not None:
                rec["social_groups"] = [[list(m), g] for m, g in ann.social_groups]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _check_box(box, lineno: int):
    box = np.asarray(box, dtype=np.float64)
    if box.shape[-1] != 4 or box.min() < 0 or box.max() > 1:
        raise DataError(f"line {lineno}: box outside [0,1]: {box.tolist()}")
    return box


def _load_native(path) -> List[SceneAnnotation]:
    out = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return []
    if lines[0].strip() != _NATIVE_HEADER:
        raise ParseError(f"line 1: expected header {_NATIVE_HEADER!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: bad JSON: {exc}")
        try:
            actors = [ActorAnnotation(a["track_id"],
                                      _check_box(a["tube"], lineno),
                                      [int(x) for x in a["actions"]])
                      for a in rec["actors"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"line {lineno}: missing field: {exc}")
        for a in actors:
            for act in a.actions:
                if not 0 <= act < len(ACTIONS):
                    raise DataError(f"line {lineno}: unknown action index {act}")
        ga = rec.get("group_activity")
        if ga is not None and not 0 <= ga < len(GROUPS):
            raise DataError(f"line {lineno}: unknown group index {ga}")
        sg = rec.get("social_groups")
        out.append(SceneAnnotation(
            clip_id=rec["clip_id"], keyframe=int(rec["keyframe"]),
            actors=actors, group_activity=ga,
            social_groups=[(list(m), int(g)) for m, g in sg] if sg else None,
            weak=bool(rec.get("weak", False))))
    return out


def _load_volleyball_style(path, frame_size: Tuple[int, int]) -> List[SceneAnnotation]:
    """One clip per line: ``<keyframe>.jpg <activity> (<x> <y> <w> <h> <action>)*``.

    Boxes are pixel top-left x/y plus width/height; normalized by frame_size
    (width, height).  Labels must name entries of GROUPS / ACTIONS.
    """
    fw, fh = frame_size
    out = []
    with open(path) as fh_:
        for lineno, line in enumerate(fh_, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2 or (len(parts) - 2) % 5:
                raise ParseError(f"line {lineno}: expected "
                                 f"'<frame>.jpg <activity> (x y w h action)*'")
            frame_id = parts[0].split(".")[0]
            if parts[1] not in GROUPS:
                raise DataError(f"line {lineno}: unknown activity {parts[1]!r}")
            actors = []
            for ai, off in enumerate(range(2, len(parts), 5)):
                try:
                    x, y, w, h = (float(v) for v in parts[off:off + 4])
                except ValueError:
                    raise ParseError(f"line {lineno}: non-numeric box")
                action = parts[off + 4]
                if action not in ACTIONS:
                    raise DataError(f"line {lineno}: unknown action {action!r}")
                box = np.array([(x + w / 2) / fw, (y + h / 2) / fh,
                                w / fw, h / fh])
                _check_box(box, lineno)
                actors.append(ActorAnnotation(ai, box[None, :],
                                              [ACTIONS.index(action)]))
            out.append(SceneAnnotation(
                clip_id=frame_id, keyframe=0, actors=actors,
                group_activity=GROUPS.index(parts[1])))
    return out


def _load_jrdbpar_style(path, frame_size: Tuple[int, int],
                        keyframe_stride: int = 15) -> List[SceneAnnotation]:
    """Per-keyframe records: ``<clip> <frame> <track> <x> <y> <w> <h> <actions,>``
    plus ``<clip> group <activity>`` lines; frames annotated every
    ``keyframe_stride`` frames.
    """
    fw, fh = frame_size
    per_clip: Dict[str, dict] = {}
    with open(path) as fh_:
        for lineno, line in enumerate(fh_, start=1):
            parts = line.split()
            if not parts:
                continue
            clip = parts[0]
            entry = per_clip.setdefault(clip, {"actors": {}, "group": None,
                                               "frame": 0})
            if len(parts) == 3 and parts[1] == "group":
                if parts[2] not in GROUPS:
                    raise DataError(f"line {lineno}: unknown activity {parts[2]!r}")
                entry["group"] = GROUPS.index(parts[2])
                continue
            if len(parts) != 8:
                raise ParseError(f"line {lineno}: expected 8 fields, got "
                                 f"{len(parts)}")
            frame, track = int(parts[1]), int(parts[2])
            if frame % keyframe_stride:
                raise DataError(f"line {lineno}: frame {frame} is not a "
                                f"keyframe (stride {keyframe_stride})")
            x, y, w, h = (float(v) for v in parts[3:7])
            box = np.array([(x + w / 2) / fw, (y + h / 2) / fh, w / fw, h / fh])
            _check_box(box, lineno)
            actions = []
            for name in parts[7].split(","):
                if name not in ACTIONS:
                    raise DataError(f"line {lineno}: unknown action {name!r}")
                actions.append(ACTIONS.index(name))
            entry["actors"][track] = ActorAnnotation(track, box[None, :], actions)
            entry["frame"] = frame
    out = []
    for clip, entry in per_clip.items():
        out.append(SceneAnnotation(
            clip_id=clip, keyframe=0,
            actors=[entry["actors"][t] for t in sorted(entry["actors"])],
            group_activity=entry["group"]))
    return out


def load_annotations(path, fmt: str = "native",
                     frame_size: Tuple[int, int] = (1280, 720)) -> List[SceneAnnotation]:
    if fmt == "native":
        return _load_native(path)
    if fmt == "volleyball-style":
        return _load_volleyball_style(path, frame_size)
    if fmt == "jrdbpar-style":
        return _load_jrdbpar_style(path, frame_size)
    raise DataError(f"unknown annotation format {fmt!r}")


# -- splits ------------------------------------------------------------------

def make_splits(annotations: Sequence, ratios: Tuple[float, float],
                seed: int):
    """Deterministic shuffled (train, test) split by clip id."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    items = list(annotations)
    order = sorted(range(len(items)), key=lambda i: _clip_id(items[i]))
    random.Random(seed).shuffle(order)
    cut = int(round(ratios[0] * len(items)))
    train = [items[i] for i in order[:cut]]
    test = [items[i] for i in order[cut:]]
    return train, test


def _clip_id(item):
    if isinstance(item, SceneAnnotation):
        return item.clip_id
    return item[1].clip_id if isinstance(item, tuple) else str(item)
