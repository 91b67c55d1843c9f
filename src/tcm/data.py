"""Study-area dataset container: scenes, footprints, optional truth labels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import formats
from .errors import DuplicateFootprintId, DuplicateSceneYear, MalformedLabels
from .geometry import Polygon, Scene


@dataclass
class FootprintDataset:
    """Co-registered scene time series plus the footprints to analyze.

    labels maps footprint id -> (first_index 1-based, first_year) and is only
    present for evaluation runs.
    """

    scenes: list[Scene]
    polygons: list[Polygon]
    labels: Optional[dict[str, tuple[int, int]]] = None

    def __post_init__(self):
        self.polygons = sorted(self.polygons, key=lambda p: p.id)
        dupes = sorted({a.id for a, b in zip(self.polygons, self.polygons[1:]) if a.id == b.id})
        if dupes:
            raise DuplicateFootprintId(f"footprint ids occur more than once: {dupes[:5]}")
        self.scenes = sorted(self.scenes, key=lambda s: s.year)
        years = [s.year for s in self.scenes]
        dupes = sorted({a for a, b in zip(years, years[1:]) if a == b})
        if dupes:
            raise DuplicateSceneYear(f"scene years occur more than once: {dupes}")
        unknown = sorted(set(self.labels or ()) - {p.id for p in self.polygons})
        if unknown:
            raise MalformedLabels(f"{len(unknown)} labelled footprint ids name no footprint: "
                                  f"{unknown[:5]}")
        for fid, (index, year) in sorted((self.labels or {}).items()):
            if year not in years or index != years.index(year) + 1:
                raise MalformedLabels(f"label of {fid!r}: first_year {year} at first_index "
                                      f"{index} is not a scene year at its 1-based position "
                                      f"on {years}")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(s.year for s in self.scenes)

    @property
    def n_layers(self) -> int:
        return len(self.scenes)

    def labeled_ids(self) -> list[str]:
        return sorted(self.labels or {})

    def year_of_index(self, index: int) -> int:
        return self.scenes[index - 1].year

    @classmethod
    def load(cls, scenes_dir, polygons_path, labels_path=None) -> "FootprintDataset":
        scenes = formats.read_scenes_dir(scenes_dir)
        polygons = formats.read_polygons_geojson(polygons_path)
        labels: Optional[dict[str, tuple[int, int]]] = None
        if labels_path is not None:
            labels = formats.read_labels_csv(labels_path)
        else:
            # Fall back to label_year properties carried by the GeoJSON, each at
            # its 1-based position among the scene years; the constructor
            # refuses a label_year that is not a scene year.
            years = [s.year for s in scenes]
            from_geo = {
                p.id: (sum(y < p.label_year for y in years) + 1, p.label_year)
                for p in polygons
                if p.label_year is not None
            }
            labels = from_geo or None
        return cls(scenes=scenes, polygons=polygons, labels=labels)

    def save(self, out_dir) -> dict[str, Path]:
        """Write scenes, footprints, and labels (if any) under out_dir."""
        out = Path(out_dir)
        scenes_dir = out / "scenes"
        scenes_dir.mkdir(parents=True, exist_ok=True)
        for scene in self.scenes:
            formats.write_scene(scenes_dir / f"scene_{scene.year}.tcs", scene)
        paths = {"scenes": scenes_dir}
        poly_path = out / "polygons.geojson"
        formats.write_polygons_geojson(poly_path, self.polygons)
        paths["polygons"] = poly_path
        if self.labels is not None:
            labels_path = out / "labels.csv"
            formats.write_labels_csv(labels_path, self.labels)
            paths["labels"] = labels_path
        return paths
