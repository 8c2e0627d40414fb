"""The 98-task StackOverflow-style benchmark suite (Table 1 of the paper).

The paper evaluates Mitra on 98 tree-to-table transformation tasks collected
from StackOverflow (51 XML, 47 JSON), bucketed by the number of columns of the
target table, and reports that 92 of them are solvable (94%), the remaining 6
being inexpressible in the DSL or prohibitively large.

The original benchmark archive is no longer reachable offline, so this module
regenerates a suite with the same composition (see DESIGN.md, "Substitutions"):

* the same per-bucket task counts as Table 1
  (XML: 17 / 12 / 12 / 10, JSON: 11 / 11 / 11 / 14 for ≤2 / 3 / 4 / ≥5 columns),
* each task is a realistic micro-scenario (orders, sensor logs, playlists,
  library catalogues, ...) with an input document of a few dozen elements and
  an output table of a handful of rows, like the examples found in the posts,
* 6 tasks are intentionally *not* expressible in the DSL (they require union
  columns, string concatenation or aggregation), mirroring the paper's
  failure analysis.

Tasks are generated deterministically; :func:`load_suite` returns the full
list and :func:`suite_summary` the per-bucket composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hdt.node import Scalar
from ..hdt.tree import HDT, build_tree
from ..hdt.json_plugin import json_to_hdt
from ..datasets.base import rng

Row = Tuple[Scalar, ...]


@dataclass
class BenchmarkTask:
    """One tree-to-table transformation task."""

    name: str
    format: str                       # "xml" or "json"
    tree: HDT
    rows: List[Row]
    expressible: bool = True
    description: str = ""

    @property
    def num_columns(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def num_elements(self) -> int:
        return self.tree.element_count()

    @property
    def bucket(self) -> str:
        cols = self.num_columns
        if cols <= 2:
            return "<=2"
        if cols >= 5:
            return ">=5"
        return str(cols)


# --------------------------------------------------------------------------- #
# Scenario templates.  Each template builds one task given a variant index;
# varying the index changes names/values/sizes so tasks are distinct.
# --------------------------------------------------------------------------- #

_CITIES = ["austin", "boston", "chicago", "denver", "eugene", "fresno"]
_PRODUCTS = ["lamp", "desk", "chair", "mug", "notebook", "monitor", "cable"]
_SENSORS = ["temp", "humidity", "pressure", "lux"]
_GENRES = ["jazz", "folk", "ambient", "electro"]


def _contacts(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Flat contact list -> one row per contact with the first ``columns`` fields."""
    generator = rng(1000 + variant)
    people = [
        {
            "name": f"person{variant}_{i}",
            "email": f"p{variant}_{i}@example.org",
            "age": 20 + generator.randrange(45),
            "city": _CITIES[(variant + i) % len(_CITIES)],
            "phone": f"555-01{variant % 10}{i}",
        }
        for i in range(3 + variant % 3)
    ]
    fields = ["name", "email", "age", "city", "phone"][:columns]
    rows = [tuple(p[f] for f in fields) for p in people]
    doc = {"contact": people} if fmt == "xml" else {"contacts": people}
    tree = build_tree(doc, tag="addressbook") if fmt == "xml" else json_to_hdt(doc)
    return BenchmarkTask(
        name=f"{fmt}_contacts_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="flatten a contact list into one row per person",
    )


def _orders(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Orders with nested line items -> one row per item, joined to its order."""
    generator = rng(2000 + variant)
    orders = []
    for o in range(2 + variant % 2):
        items = [
            {
                "sku": f"sku{variant}{o}{i}",
                "qty": 1 + generator.randrange(5),
                "price": round(3.5 + generator.random() * 90, 2),
            }
            for i in range(1 + (o + variant) % 3)
        ]
        orders.append(
            {
                "order_id": f"o{variant}-{o}",
                "customer": f"customer{variant}_{o}",
                "date": f"2023-0{1 + o}-1{variant % 9}",
                "item": items,
            }
        )
    rows = []
    for order in orders:
        for item in order["item"]:
            full = (order["order_id"], item["sku"], item["qty"], order["customer"], item["price"])
            rows.append(full[:columns])
    doc = {"order": orders}
    tree = build_tree(doc, tag="orders") if fmt == "xml" else json_to_hdt({"orders": orders})
    return BenchmarkTask(
        name=f"{fmt}_orders_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="shred nested order line items into a relational table",
    )


def _sensors(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Device/sensor readings -> one row per reading with device metadata."""
    generator = rng(3000 + variant)
    devices = []
    for d in range(2 + variant % 2):
        readings = [
            {
                "kind": _SENSORS[(d + r + variant) % len(_SENSORS)],
                "value": round(generator.random() * 100, 1),
                "ts": f"12:{10 + r}:0{d}",
            }
            for r in range(2 + (variant + d) % 2)
        ]
        devices.append(
            {
                "device_id": f"dev{variant}-{d}",
                "location": _CITIES[(variant + d) % len(_CITIES)],
                "reading": readings,
            }
        )
    rows = []
    for device in devices:
        for reading in device["reading"]:
            full = (device["device_id"], reading["kind"], reading["value"], device["location"], reading["ts"])
            rows.append(full[:columns])
    tree = build_tree({"device": devices}, tag="telemetry") if fmt == "xml" else json_to_hdt({"devices": devices})
    return BenchmarkTask(
        name=f"{fmt}_sensors_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="flatten per-device sensor readings",
    )


def _playlist(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Playlists with tracks -> one row per track."""
    generator = rng(4000 + variant)
    playlists = []
    for p in range(2):
        tracks = [
            {
                "title": f"track{variant}_{p}_{t}",
                "artist": f"artist{variant}_{(p + t) % 4}",
                "seconds": 120 + generator.randrange(300),
                "genre": _GENRES[(p + t + variant) % len(_GENRES)],
            }
            for t in range(2 + (variant + p) % 2)
        ]
        playlists.append({"playlist_name": f"mix{variant}-{p}", "owner": f"dj{variant}_{p}", "track": tracks})
    rows = []
    for playlist in playlists:
        for track in playlist["track"]:
            full = (
                playlist["playlist_name"],
                track["title"],
                track["artist"],
                track["seconds"],
                track["genre"],
            )
            rows.append(full[:columns])
    tree = (
        build_tree({"playlist": playlists}, tag="library")
        if fmt == "xml"
        else json_to_hdt({"playlists": playlists})
    )
    return BenchmarkTask(
        name=f"{fmt}_playlist_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="convert playlists with nested tracks to rows",
    )


def _filtered_products(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Product catalogue -> rows for products below a price threshold (needs a constant predicate)."""
    generator = rng(5000 + variant)
    threshold = 50
    products = [
        {
            "name": _PRODUCTS[(variant + i) % len(_PRODUCTS)] + f"_{variant}_{i}",
            "price": 10 + 15 * i + variant % 7,
            "stock": generator.randrange(200),
            "category": "home" if i % 2 == 0 else "office",
        }
        for i in range(5)
    ]
    rows = [
        (p["name"], p["price"], p["stock"], p["category"])[:columns]
        for p in products
        if p["price"] < threshold
    ]
    tree = (
        build_tree({"product": products}, tag="catalog")
        if fmt == "xml"
        else json_to_hdt({"products": products})
    )
    return BenchmarkTask(
        name=f"{fmt}_cheap_products_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="select products under a price threshold",
    )


def _course_enrollment(variant: int, columns: int, fmt: str) -> BenchmarkTask:
    """Students with course references -> (student, course, grade, ...) join rows."""
    generator = rng(6000 + variant)
    courses = [
        {"code": f"cs{100 + 10 * c + variant % 5}", "title": f"course{variant}_{c}", "credits": 2 + c % 3}
        for c in range(3)
    ]
    students = []
    for s in range(3):
        enrollments = [
            {"course": courses[(s + e) % len(courses)]["code"], "grade": round(2.0 + generator.random() * 2, 1)}
            for e in range(1 + (s + variant) % 2)
        ]
        students.append({"student_id": f"s{variant}-{s}", "student_name": f"student{variant}_{s}", "enrollment": enrollments})
    rows = []
    course_by_code = {c["code"]: c for c in courses}
    for student in students:
        for enrollment in student["enrollment"]:
            course = course_by_code[enrollment["course"]]
            full = (
                student["student_id"],
                enrollment["course"],
                enrollment["grade"],
                student["student_name"],
                course["credits"],
            )
            rows.append(full[:columns])
    doc = {"course": courses, "student": students}
    tree = build_tree(doc, tag="university") if fmt == "xml" else json_to_hdt({"courses": courses, "students": students})
    return BenchmarkTask(
        name=f"{fmt}_enrollment_{columns}c_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        description="join students to the courses they are enrolled in",
    )


def _inexpressible_union(variant: int, fmt: str) -> BenchmarkTask:
    """Requires a single column drawing from two different tags — not in the DSL."""
    doc = {
        "book": [{"title": f"book{variant}_{i}", "isbn": f"97{variant}{i}"} for i in range(2)],
        "magazine": [{"name": f"mag{variant}_{i}", "issue": i + 1} for i in range(2)],
    }
    rows: List[Row] = [(f"book{variant}_0",), (f"book{variant}_1",), (f"mag{variant}_0",), (f"mag{variant}_1",)]
    tree = build_tree(doc, tag="shelf") if fmt == "xml" else json_to_hdt(doc)
    return BenchmarkTask(
        name=f"{fmt}_union_titles_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        expressible=False,
        description="one column mixing book titles and magazine names (needs a union column extractor)",
    )


def _inexpressible_concat(variant: int, fmt: str) -> BenchmarkTask:
    """Requires string concatenation of two leaves — not in the DSL."""
    people = [{"first": f"fn{variant}{i}", "last": f"ln{variant}{i}"} for i in range(3)]
    rows = [(f"fn{variant}{i} ln{variant}{i}",) for i in range(3)]
    tree = build_tree({"person": people}, tag="people") if fmt == "xml" else json_to_hdt({"people": people})
    return BenchmarkTask(
        name=f"{fmt}_fullname_concat_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        expressible=False,
        description="full name column requires concatenating first and last name",
    )


def _inexpressible_aggregate(variant: int, fmt: str) -> BenchmarkTask:
    """Requires aggregation (count of children) — not in the DSL."""
    teams = [
        {"team": f"team{variant}_{t}", "member": [f"m{variant}{t}{m}" for m in range(t + 1)]}
        for t in range(3)
    ]
    rows = [(f"team{variant}_{t}", t + 1) for t in range(3)]
    tree = build_tree({"entry": teams}, tag="teams") if fmt == "xml" else json_to_hdt({"entries": teams})
    return BenchmarkTask(
        name=f"{fmt}_team_sizes_v{variant}",
        format=fmt,
        tree=tree,
        rows=rows,
        expressible=False,
        description="second column is the number of members (needs aggregation)",
    )


# --------------------------------------------------------------------------- #
# Suite assembly
# --------------------------------------------------------------------------- #

_EXPRESSIBLE_TEMPLATES = [_contacts, _orders, _sensors, _playlist, _filtered_products, _course_enrollment]

# Per-bucket task counts from Table 1 of the paper.
_XML_BUCKETS = {2: 17, 3: 12, 4: 12, 5: 10}
_JSON_BUCKETS = {2: 11, 3: 11, 4: 11, 5: 14}


def _bucket_tasks(fmt: str, buckets: Dict[int, int], inexpressible: List[BenchmarkTask]) -> List[BenchmarkTask]:
    tasks: List[BenchmarkTask] = []
    pending_inexpressible = list(inexpressible)
    for columns, count in buckets.items():
        produced = 0
        variant = 0
        while produced < count:
            # Reserve slots for the inexpressible tasks in the bucket matching
            # their own column count.
            slot_filled = False
            for task in list(pending_inexpressible):
                bucket = 2 if task.num_columns <= 2 else (5 if task.num_columns >= 5 else task.num_columns)
                if bucket == columns and produced < count:
                    tasks.append(task)
                    pending_inexpressible.remove(task)
                    produced += 1
                    slot_filled = True
            if produced >= count:
                break
            # Pick a template that can actually produce the requested width
            # (some scenarios max out at 4 columns); try successive templates
            # until the produced task lands in the intended bucket.
            for attempt in range(len(_EXPRESSIBLE_TEMPLATES)):
                template = _EXPRESSIBLE_TEMPLATES[
                    (variant + columns + attempt) % len(_EXPRESSIBLE_TEMPLATES)
                ]
                candidate = template(variant, columns, fmt)
                target_bucket = "<=2" if columns <= 2 else (">=5" if columns >= 5 else str(columns))
                if candidate.bucket == target_bucket:
                    tasks.append(candidate)
                    produced += 1
                    break
            else:  # pragma: no cover - every width ≤5 has a capable template
                raise RuntimeError(f"no template can produce a {columns}-column task")
            variant += 1
            if slot_filled:
                continue
    return tasks


def load_suite() -> List[BenchmarkTask]:
    """Build the full 98-task suite (51 XML + 47 JSON)."""
    xml_inexpressible = [
        _inexpressible_union(0, "xml"),
        _inexpressible_concat(0, "xml"),
        _inexpressible_aggregate(0, "xml"),
    ]
    json_inexpressible = [
        _inexpressible_union(1, "json"),
        _inexpressible_concat(1, "json"),
        _inexpressible_aggregate(1, "json"),
    ]
    tasks = _bucket_tasks("xml", _XML_BUCKETS, xml_inexpressible)
    tasks += _bucket_tasks("json", _JSON_BUCKETS, json_inexpressible)
    return tasks


def suite_summary(tasks: Optional[Sequence[BenchmarkTask]] = None) -> Dict[str, Dict[str, int]]:
    """Per-format, per-bucket composition of the suite."""
    tasks = list(tasks) if tasks is not None else load_suite()
    summary: Dict[str, Dict[str, int]] = {}
    for task in tasks:
        fmt = summary.setdefault(task.format, {})
        fmt[task.bucket] = fmt.get(task.bucket, 0) + 1
        fmt["total"] = fmt.get("total", 0) + 1
    return summary
