"""SVG heatmap emission: determinism, color ranking, glyph placement."""

import re
import xml.etree.ElementTree as ET

import pytest

from fishgrad import report as rep
from fishgrad import search as sr

from support import grid_from_matrix


def cells_group(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    for g in root.iter(f"{ns}g"):
        if g.get("class") == "cells":
            return g
    raise AssertionError("no cells group")


def cell_elements(svg: str):
    ns = "{http://www.w3.org/2000/svg}"
    g = cells_group(svg)
    rects = list(g.iter(f"{ns}rect"))
    texts = list(g.iter(f"{ns}text"))
    polys = list(g.iter(f"{ns}polygon"))
    return rects, texts, polys


class TestRenderHeatmap:
    def test_single_cell_grid_one_rect_one_label(self):
        grid = grid_from_matrix((0.5,), (8,), [[0.9132]])
        rects, texts, polys = cell_elements(rep.render_heatmap(grid))
        assert len(rects) == 1
        assert len(texts) == 1
        assert texts[0].text == "0.9132"
        assert polys == []

    def test_identical_input_byte_identical_output(self):
        grid = grid_from_matrix((0.5, 0.1), (8, 2),
                                [[0.91, 0.85], [None, 0.8]])
        assert rep.render_heatmap(grid) == rep.render_heatmap(grid)

    def test_grey_blocks_for_unexplored_cells(self):
        grid = grid_from_matrix((0.5, 0.1), (8, 2),
                                [[0.91, 0.85], [None, 0.8]])
        rects, _, _ = cell_elements(rep.render_heatmap(grid))
        greys = [r for r in rects if r.get("fill") == "rgb(217,217,217)"]
        assert len(greys) == 1

    def test_fill_darkness_follows_score_rank(self):
        """Parse fills: higher scores are darker (smaller red channel)."""
        matrix = [[0.93, 0.89, None], [None, 0.91, 0.84], [None, None, 0.86]]
        grid = grid_from_matrix((0.5, 0.1, 0.05), (8, 4, 2), matrix)
        rects, texts, _ = cell_elements(rep.render_heatmap(grid))
        explored = [(float(t.text), r) for t, r in
                    zip(texts, [r for r in rects if r.get("fill") != "rgb(217,217,217)"])]
        reds = {score: int(re.match(r"rgb\((\d+),", r.get("fill")).group(1))
                for score, r in explored}
        ordered = sorted(reds)  # ascending score
        assert all(reds[a] > reds[b] for a, b in zip(ordered, ordered[1:]))

    def test_red_border_marks_maximum(self):
        grid = grid_from_matrix((0.5, 0.1), (8, 2),
                                [[0.91, 0.85], [None, 0.95]])
        rects, texts, _ = cell_elements(rep.render_heatmap(grid))
        bordered = [r for r in rects if r.get("stroke") == "rgb(192,0,0)"]
        assert len(bordered) == 1
        svg = rep.render_heatmap(grid)
        assert svg.index('stroke="rgb(192,0,0)"') < svg.index(">0.9500<")

    def test_comparison_glyphs_rendered(self):
        a = grid_from_matrix((0.5, 0.1), (8, 2), [[0.9, 0.8], [None, 0.7]])
        b = grid_from_matrix((0.5, 0.1), (8, 2), [[0.92, 0.8], [None, 0.65]])
        comparison = sr.compare_grids(a, b)
        svg = rep.render_heatmap(b, comparison)
        _, _, polys = cell_elements(svg)
        classes = sorted(p.get("class") for p in polys)
        assert classes == ["glyph-down", "glyph-up"]

    def test_annotation_embedded_as_comment(self):
        grid = grid_from_matrix((0.5,), (8,), [[0.9]])
        svg = rep.render_heatmap(grid, annotation="manifest-sha256: abc123")
        assert "<!-- manifest-sha256: abc123 -->" in svg

    def test_empty_grid_rejected(self):
        spec = sr.GridSpec((0.5,), (8,), "fish_random", (0,))
        with pytest.raises(ValueError, match="empty"):
            rep.render_heatmap(sr.GridResult(spec, []))

    def test_scores_rounded_to_four_decimals(self):
        grid = grid_from_matrix((0.5,), (8,), [[0.912345678]])
        _, texts, _ = cell_elements(rep.render_heatmap(grid))
        assert texts[0].text == "0.9123"


class TestComparisonCsv:
    def test_rows_and_totals(self):
        a = grid_from_matrix((0.5, 0.1), (8, 2), [[0.9, 0.8], [None, 0.7]])
        b = grid_from_matrix((0.5, 0.1), (8, 2), [[0.92, 0.8], [None, 0.65]])
        comparison = sr.compare_grids(a, b)
        text = rep.comparison_csv(a, b, comparison)
        lines = text.strip().splitlines()
        assert lines[0] == "sparsity,n_samples,baseline,candidate,direction"
        assert "0.5,8,0.9000,0.9200,up" in lines
        assert lines[-1] == "# ups=1 downs=1 ties=1"
