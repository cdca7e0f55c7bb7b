"""Seeded synthetic feeder tiled from the bundled IEEE 34-node feeder.

A substation bus feeds ``tiles`` copies of the IEEE-34 tree, each through
a closed switch (a zero-impedance line).  Every copy keeps the IEEE-34
line codes, lateral shapes, mixed phasing, both regulators, the
transformer, both capacitor banks and all 19 distributed loads, so the
per-node and per-distributed-load costs of every layer scale with the
node count.  The seed varies each copy:

- line lengths by +-10 %;
- every load's kW/kvar by +-20 %, its model (pq/z/i), and, where it has
  three phases, its connection (wye/delta);
- the copy's load scale, drawn without replacement from a fixed ladder.

One copy, at a seeded position, is the unjittered IEEE-34 at
ANCHOR_SCALE.  It is the most stressed copy, so it sets the sweep count
(16) and the minimum voltage (about 0.81 pu) at every seed: like
IEEE-34, not a lightly loaded three-sweep tree.  The same seed gives a
byte-identical file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IEEE34 = ROOT / "src" / "voss" / "data" / "ieee34.feeder"

LOAD_SCALE_LADDER = (0.3, 0.8)
ANCHOR_SCALE = 1.3
SWITCH_Z = [[[0.0, 0.0]] * 3] * 3


def _scales(tiles: int) -> list:
    lo, hi = LOAD_SCALE_LADDER
    n = tiles - 1
    return [lo + (hi - lo) * k / max(n - 1, 1) for k in range(n)] + [ANCHOR_SCALE]


def synthetic_feeder(n_nodes: int, seed: int) -> dict:
    """Feeder document with 1 + 34 * ((n_nodes - 1) // 34) nodes."""
    template = json.loads(IEEE34.read_text())
    tiles = max(1, (n_nodes - 1) // len(template["nodes"]))
    rng = random.Random(seed)
    scales = _scales(tiles)
    rng.shuffle(scales)

    sub = "sub"
    root = template["source"]["node"]
    doc = {
        "name": f"synthetic-{tiles * len(template['nodes']) + 1}-s{seed}",
        "base": template["base"],
        "source": dict(template["source"], node=sub),
        "load_scale": 1.0,
        "nodes": [{"id": sub, "phases": "ABC"}],
        "segments": [],
        "loads": [],
    }
    for t, scale in enumerate(scales):
        def rid(node_id: str) -> str:
            return f"t{t}.{node_id}"

        for node in template["nodes"]:
            doc["nodes"].append({"id": rid(node["id"]), "phases": node["phases"]})
        doc["segments"].append({
            "id": f"{sub}-{rid(root)}", "from": sub, "to": rid(root),
            "phases": "ABC", "kind": "line", "length": 0, "unit": "ft",
            "z_ohm_per_mile": SWITCH_Z,
        })
        anchor = scale == ANCHOR_SCALE
        for seg in template["segments"]:
            seg = dict(seg, id=rid(seg["id"]), **{
                "from": rid(seg["from"]), "to": rid(seg["to"])})
            if seg["kind"] == "line" and not anchor:
                seg["length"] = round(seg["length"] * rng.uniform(0.9, 1.1), 1)
            doc["segments"].append(seg)
        for load in template["loads"]:
            load = dict(load, id=rid(load["id"]))
            for key in ("node", "segment"):
                if key in load:
                    load[key] = rid(load[key])
            if anchor:
                jitter = [1.0] * len(load["kw"])
            else:
                jitter = [rng.uniform(0.8, 1.2) for _ in load["kw"]]
                load["model"] = rng.choice(("pq", "z", "i"))
                if len(load["phases"]) == 3:
                    load["conn"] = rng.choice(("wye", "delta"))
            load["kw"] = [round(scale * j * x, 3) for j, x in zip(jitter, load["kw"])]
            load["kvar"] = [round(scale * j * x, 3) for j, x in zip(jitter, load["kvar"])]
            doc["loads"].append(load)
    return doc


def write_feeder(path, n_nodes: int, seed: int) -> dict:
    doc = synthetic_feeder(n_nodes, seed)
    Path(path).write_text(json.dumps(doc) + "\n")
    return doc
