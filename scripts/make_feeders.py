"""Regenerate the bundled feeder files in src/voss/data/.

Data transcribed from the published IEEE 13-node and 34-node radial test
feeder sheets: phase impedance matrices in ohms per mile, line lengths in
feet, spot and distributed loads in kW/kvar, published fixed regulator
tap positions, and nameplate transformer data.  Run from the repo root:

    python scripts/make_feeders.py

The stressed 34-node variant is the same network with every load scaled
by STRESSED_LOAD_SCALE; see scripts/calibrate_load_scale.py for how the
value was chosen.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "voss" / "data"

STRESSED_LOAD_SCALE = 2.28

# ---------------------------------------------------------------- helpers


def zpair(z):
    return [z.real, z.imag]


def zmat(rows):
    return [[zpair(z) for z in row] for row in rows]


def sym3(d, ab, ac, bc):
    a, b, c = d
    return [[a, ab, ac], [ab, b, bc], [ac, bc, c]]


# ------------------------------------------------------- 13-node feeder

Z13 = {
    "601": sym3(
        (0.3465 + 1.0179j, 0.3375 + 1.0478j, 0.3414 + 1.0348j),
        0.1560 + 0.5017j, 0.1580 + 0.4236j, 0.1535 + 0.3849j,
    ),
    "602": sym3(
        (0.7526 + 1.1814j, 0.7475 + 1.1983j, 0.7436 + 1.2112j),
        0.1580 + 0.4236j, 0.1560 + 0.5017j, 0.1535 + 0.3849j,
    ),
    # phases B, C
    "603": [[1.3294 + 1.3471j, 0.2066 + 0.4591j],
            [0.2066 + 0.4591j, 1.3238 + 1.3569j]],
    # phases A, C
    "604": [[1.3238 + 1.3569j, 0.2066 + 0.4591j],
            [0.2066 + 0.4591j, 1.3294 + 1.3471j]],
    "605": [[1.3292 + 1.3475j]],
    "606": sym3(
        (0.7982 + 0.4463j, 0.7891 + 0.4041j, 0.7982 + 0.4463j),
        0.3192 + 0.0328j, 0.2849 - 0.0143j, 0.3192 + 0.0328j,
    ),
    "607": [[1.3425 + 0.5124j]],
}

ZERO3 = [[0j, 0j, 0j], [0j, 0j, 0j], [0j, 0j, 0j]]

# 500 kVA, 4.16/0.48 kV wye-wye; Z on the 0.48 kV side.
XFM13_ZBASE = 0.48 ** 2 / 0.5
XFM13_Z = 0.011 * XFM13_ZBASE + 1j * 0.02 * XFM13_ZBASE

IEEE13 = {
    "name": "ieee13",
    "base": {"power_kva": 5000.0, "voltage_kv_ll": 4.16},
    "source": {
        "node": "650",
        "nominal_kv_ll": 4.16,
        "voltage_pu": [1.0, 1.0, 1.0],
        "angles_deg": [0.0, -120.0, 120.0],
    },
    "load_scale": 1.0,
    "nodes": [
        {"id": "650", "phases": "ABC"},
        {"id": "632", "phases": "ABC"},
        {"id": "633", "phases": "ABC"},
        {"id": "634", "phases": "ABC"},
        {"id": "645", "phases": "BC"},
        {"id": "646", "phases": "BC"},
        {"id": "671", "phases": "ABC"},
        {"id": "680", "phases": "ABC"},
        {"id": "684", "phases": "AC"},
        {"id": "611", "phases": "C"},
        {"id": "652", "phases": "A"},
        {"id": "692", "phases": "ABC"},
        {"id": "675", "phases": "ABC"},
    ],
    "segments": [
        # Published voltage-regulator bank sits at the head of the 650-632
        # line; modeled as one regulator segment (fixed published taps,
        # then the 2000 ft of config 601).
        {"id": "650-632", "from": "650", "to": "632", "phases": "ABC",
         "kind": "regulator", "taps": [1.0625, 1.05, 1.06875],
         "length": 2000, "unit": "ft", "z_ohm_per_mile": zmat(Z13["601"])},
        {"id": "632-633", "from": "632", "to": "633", "phases": "ABC",
         "kind": "line", "length": 500, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["602"])},
        {"id": "633-634", "from": "633", "to": "634", "phases": "ABC",
         "kind": "transformer", "ratio": 4.16 / 0.48,
         "series_z_ohm": zpair(XFM13_Z)},
        {"id": "632-645", "from": "632", "to": "645", "phases": "BC",
         "kind": "line", "length": 500, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["603"])},
        {"id": "645-646", "from": "645", "to": "646", "phases": "BC",
         "kind": "line", "length": 300, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["603"])},
        {"id": "632-671", "from": "632", "to": "671", "phases": "ABC",
         "kind": "line", "length": 2000, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["601"])},
        {"id": "671-680", "from": "671", "to": "680", "phases": "ABC",
         "kind": "line", "length": 1000, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["601"])},
        {"id": "671-684", "from": "671", "to": "684", "phases": "AC",
         "kind": "line", "length": 300, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["604"])},
        {"id": "684-611", "from": "684", "to": "611", "phases": "C",
         "kind": "line", "length": 300, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["605"]), "shunt_kvar": [100.0]},
        {"id": "684-652", "from": "684", "to": "652", "phases": "A",
         "kind": "line", "length": 800, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["607"])},
        # normally-closed switch
        {"id": "671-692", "from": "671", "to": "692", "phases": "ABC",
         "kind": "line", "length": 0, "unit": "ft",
         "z_ohm_per_mile": zmat(ZERO3)},
        {"id": "692-675", "from": "692", "to": "675", "phases": "ABC",
         "kind": "line", "length": 500, "unit": "ft",
         "z_ohm_per_mile": zmat(Z13["606"]),
         "shunt_kvar": [200.0, 200.0, 200.0]},
    ],
    "loads": [
        {"id": "634", "node": "634", "conn": "wye", "model": "pq",
         "phases": "ABC", "kw": [160, 120, 120], "kvar": [110, 90, 90]},
        {"id": "645", "node": "645", "conn": "wye", "model": "pq",
         "phases": "B", "kw": [170], "kvar": [125]},
        {"id": "646", "node": "646", "conn": "delta", "model": "z",
         "phases": "BC", "kw": [230], "kvar": [132]},
        {"id": "652", "node": "652", "conn": "wye", "model": "z",
         "phases": "A", "kw": [128], "kvar": [86]},
        {"id": "671", "node": "671", "conn": "delta", "model": "pq",
         "phases": "ABC", "kw": [385, 385, 385], "kvar": [220, 220, 220]},
        {"id": "675", "node": "675", "conn": "wye", "model": "pq",
         "phases": "ABC", "kw": [485, 68, 290], "kvar": [190, 60, 212]},
        {"id": "692", "node": "692", "conn": "delta", "model": "i",
         "phases": "CA", "kw": [170], "kvar": [151]},
        {"id": "611", "node": "611", "conn": "wye", "model": "i",
         "phases": "C", "kw": [170], "kvar": [80]},
        {"id": "632-671", "segment": "632-671", "conn": "wye", "model": "pq",
         "phases": "ABC", "kw": [17, 66, 117], "kvar": [10, 38, 68]},
    ],
}

# ------------------------------------------------------- 34-node feeder

Z34 = {
    "300": sym3(
        (1.3368 + 1.3343j, 1.3238 + 1.3569j, 1.3294 + 1.3471j),
        0.2101 + 0.5779j, 0.2130 + 0.5015j, 0.2066 + 0.4591j,
    ),
    "301": sym3(
        (1.9300 + 1.4115j, 1.9157 + 1.4281j, 1.9219 + 1.4209j),
        0.2327 + 0.6442j, 0.2359 + 0.5691j, 0.2288 + 0.5238j,
    ),
    "302": [[2.7995 + 1.4855j]],  # phase A
    "303": [[2.7995 + 1.4855j]],  # phase B
    "304": [[1.9217 + 1.4212j]],  # phase B
}

CONFIG_PHASES_34 = {"300": "ABC", "301": "ABC", "302": "A", "303": "B", "304": "B"}

# (from, to, length ft, config)
LINES34 = [
    ("800", "802", 2580, "300"),
    ("802", "806", 1730, "300"),
    ("806", "808", 32230, "300"),
    ("808", "810", 5804, "303"),
    ("808", "812", 37500, "300"),
    ("812", "814", 29730, "300"),
    ("850", "816", 310, "301"),
    ("816", "818", 1710, "302"),
    ("816", "824", 10210, "301"),
    ("818", "820", 48150, "302"),
    ("820", "822", 13740, "302"),
    ("824", "826", 3030, "303"),
    ("824", "828", 840, "301"),
    ("828", "830", 20440, "301"),
    ("830", "854", 520, "301"),
    ("832", "858", 4900, "301"),
    ("834", "860", 2020, "301"),
    ("834", "842", 280, "301"),
    ("836", "840", 860, "301"),
    ("836", "862", 280, "301"),
    ("842", "844", 1350, "301"),
    ("844", "846", 3640, "301"),
    ("846", "848", 530, "301"),
    ("854", "856", 23330, "303"),
    ("854", "852", 36830, "301"),
    ("858", "864", 1620, "302"),
    ("858", "834", 5830, "301"),
    ("860", "836", 2680, "301"),
    ("862", "838", 4860, "304"),
    ("888", "890", 10560, "300"),
]

CAPS34 = {"842-844": [100.0, 100.0, 100.0], "846-848": [150.0, 150.0, 150.0]}

# 500 kVA, 24.9/4.16 kV wye-wye; Z on the 4.16 kV side.
XFM34_ZBASE = 4.16 ** 2 / 0.5
XFM34_Z = 0.019 * XFM34_ZBASE + 1j * 0.0408 * XFM34_ZBASE

SPOT34 = [
    ("860", "wye", "pq", "ABC", [20, 20, 20], [16, 16, 16]),
    ("840", "wye", "i", "ABC", [9, 9, 9], [7, 7, 7]),
    ("844", "wye", "z", "ABC", [135, 135, 135], [105, 105, 105]),
    ("848", "delta", "pq", "ABC", [20, 20, 20], [16, 16, 16]),
    ("890", "delta", "i", "ABC", [150, 150, 150], [75, 75, 75]),
    ("830", "delta", "z", "ABC", [10, 10, 25], [5, 5, 10]),
]

DIST34 = [
    ("802-806", "wye", "pq", "BC", [30, 25], [15, 14]),
    ("808-810", "wye", "i", "B", [16], [8]),
    ("818-820", "wye", "z", "A", [34], [17]),
    ("820-822", "wye", "pq", "A", [135], [70]),
    ("816-824", "delta", "i", "BC", [5], [2]),
    ("824-826", "wye", "i", "B", [40], [20]),
    ("824-828", "wye", "pq", "C", [4], [2]),
    ("828-830", "wye", "pq", "A", [7], [3]),
    ("854-856", "wye", "pq", "B", [4], [2]),
    ("832-858", "delta", "z", "ABC", [7, 2, 6], [3, 1, 3]),
    ("858-864", "wye", "pq", "A", [2], [1]),
    ("858-834", "delta", "pq", "ABC", [4, 15, 13], [2, 8, 7]),
    ("834-860", "delta", "z", "ABC", [16, 20, 110], [8, 10, 55]),
    ("860-836", "delta", "pq", "ABC", [30, 10, 42], [15, 6, 22]),
    ("836-840", "delta", "i", "ABC", [18, 22, 0], [9, 11, 0]),
    ("862-838", "wye", "pq", "B", [28], [14]),
    ("842-844", "wye", "pq", "A", [9], [5]),
    ("844-846", "wye", "pq", "BC", [25, 20], [12, 11]),
    ("846-848", "wye", "pq", "B", [23], [11]),
]

NODES34 = {
    "810": "B", "818": "A", "820": "A", "822": "A", "826": "B",
    "856": "B", "864": "A", "838": "B",
}


def build_ieee34(name, load_scale):
    node_order = [
        "800", "802", "806", "808", "810", "812", "814", "850", "816",
        "818", "820", "822", "824", "826", "828", "830", "854", "856",
        "852", "832", "888", "890", "858", "864", "834", "842", "844",
        "846", "848", "860", "836", "840", "862", "838",
    ]
    nodes = [{"id": n, "phases": NODES34.get(n, "ABC")} for n in node_order]

    segments = []
    for frm, to, ft, cfg in LINES34:
        seg_id = f"{frm}-{to}"
        seg = {
            "id": seg_id, "from": frm, "to": to,
            "phases": CONFIG_PHASES_34[cfg], "kind": "line",
            "length": ft, "unit": "ft",
            "z_ohm_per_mile": zmat(Z34[cfg]),
        }
        if seg_id in CAPS34:
            seg["shunt_kvar"] = CAPS34[seg_id]
        segments.append(seg)
    # Published fixed tap positions for the two regulator banks, applied
    # ahead of the short connecting span.
    segments.append({
        "id": "814-850", "from": "814", "to": "850", "phases": "ABC",
        "kind": "regulator", "taps": [1.075, 1.03125, 1.03125],
        "length": 10, "unit": "ft", "z_ohm_per_mile": zmat(Z34["301"]),
    })
    segments.append({
        "id": "852-832", "from": "852", "to": "832", "phases": "ABC",
        "kind": "regulator", "taps": [1.08125, 1.06875, 1.075],
        "length": 10, "unit": "ft", "z_ohm_per_mile": zmat(Z34["301"]),
    })
    segments.append({
        "id": "832-888", "from": "832", "to": "888", "phases": "ABC",
        "kind": "transformer", "ratio": 24.9 / 4.16,
        "series_z_ohm": zpair(XFM34_Z),
    })

    loads = []
    for node, conn, model, phases, kw, kvar in SPOT34:
        loads.append({"id": node, "node": node, "conn": conn, "model": model,
                      "phases": phases, "kw": kw, "kvar": kvar})
    for seg, conn, model, phases, kw, kvar in DIST34:
        loads.append({"id": seg, "segment": seg, "conn": conn, "model": model,
                      "phases": phases, "kw": kw, "kvar": kvar})

    return {
        "name": name,
        "base": {"power_kva": 2500.0, "voltage_kv_ll": 24.9},
        "source": {
            "node": "800",
            "nominal_kv_ll": 24.9,
            "voltage_pu": [1.05, 1.05, 1.05],
            "angles_deg": [0.0, -120.0, 120.0],
        },
        "load_scale": load_scale,
        "nodes": nodes,
        "segments": segments,
        "loads": loads,
    }


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    files = {
        "ieee13.feeder": IEEE13,
        "ieee34.feeder": build_ieee34("ieee34", 1.0),
        "ieee34-stressed.feeder": build_ieee34(
            "ieee34-stressed", STRESSED_LOAD_SCALE
        ),
    }
    for fname, doc in files.items():
        path = DATA / fname
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")

    sys.path.insert(0, str(ROOT / "src"))
    from voss.feeder import parse_feeder

    for fname in files:
        model = parse_feeder(DATA / fname)
        n_dist = sum(1 for ld in model.loads if ld.segment is not None)
        print(
            f"  {model.name}: {len(model.nodes)} nodes, "
            f"{len(model.segments)} segments, {len(model.loads)} loads "
            f"({n_dist} distributed)"
        )


if __name__ == "__main__":
    main()
