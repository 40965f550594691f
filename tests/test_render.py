"""SVG rendering: well-formedness and overlay structure."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from kinclust import GeneratorConfig, TrajectorySet, compute_holes, generate_instance, render_svg

# sha256 of render_svg's bytes for each overlay; the clustering overlay
# shades the clusters listed per instance.
GOLDEN_CLUSTERS = {
    "three_lines": [[0, 1, 2]],
    "quartet": [[0, 2], [1, 3]],
    "seed-4": [[0, 3, 5], [1, 2], [4, 6, 7]],
}
GOLDEN_SVG = {
    ("three_lines", "none"): "721fbc31253ecfe11ca69aa4f1852064ca777863327be60463cc0b52d4db1e7d",
    ("three_lines", "clustering"): "6be86d7fa891064174a4f7617a52f86cdb962a0e472f5886501f9fbed6b8aaa2",
    ("three_lines", "holes"): "bb87bb812486b63d65efca0e57a447bf13f75ed4b69df6a29850e524a8213e96",
    ("quartet", "none"): "3f790e7406805c425e719529cec4d1981ea0786ae260bbde476c20ceb39aad70",
    ("quartet", "clustering"): "c9f1dda5887d5a56984d2084fe4437447a7cc6d594d39c3847127267f50e81df",
    ("quartet", "holes"): "9ae2005ed41757e1c31344456f31b55e5674ee579c40a022c68985d704a0a674",
    ("seed-4", "none"): "e7f266bdc28130974f39530f1b38c49dad786924da4b3a1296265cb802c69c23",
    ("seed-4", "clustering"): "624c9abd67fd7b897ef1d0f1a18786949db951c8d841fe1b26cbd370c0cb4285",
    ("seed-4", "holes"): "89707b3015c166a676407dbd98403dc2620eea0afd75c2ba1bd33c81f98b159c",
}


def parse_svg(data: bytes) -> ET.Element:
    return ET.fromstring(data.decode("utf-8"))


def elements_with_class(root: ET.Element, name: str) -> list:
    return [el for el in root.iter() if el.get("class") == name]


class TestRenderSvg:
    def test_valid_xml_for_fuzzed_instances(self):
        for seed in range(25):
            S = generate_instance(GeneratorConfig(seed=seed, n=2 + seed % 6))
            root = parse_svg(render_svg(S))
            assert root.tag.endswith("svg")
            assert len(elements_with_class(root, "trajectory")) == len(S)

    def test_span_overlay_shades_multimember_clusters(self):
        # Four segments in the style of the strip pictures: the full-set
        # span produces one shaded polygon.
        S = TrajectorySet.from_pairs(
            [("0", "6.15385"), ("2.46154", "2.46154"), ("4.92308", "1.23077"), ("8", "4.30769")]
        )
        svg = render_svg(S, overlay="clustering", clustering=[{0, 1, 2, 3}])
        root = parse_svg(svg)
        assert len(elements_with_class(root, "span")) == 1

    def test_singleton_overlay_has_no_area(self, three_lines):
        svg = render_svg(
            three_lines, overlay="clustering", clustering=[{0}, {1}, {2}]
        )
        assert elements_with_class(parse_svg(svg), "span") == []

    def test_holes_overlay_outlines_bounded_faces(self, three_lines):
        svg = render_svg(three_lines, overlay="holes")
        root = parse_svg(svg)
        assert len(elements_with_class(root, "hole")) == 5

    def test_invalid_overlay_rejected(self, three_lines):
        with pytest.raises(ValueError):
            render_svg(three_lines, overlay="everything")
        with pytest.raises(ValueError):
            render_svg(three_lines, overlay="clustering")  # missing clustering
        with pytest.raises(ValueError):
            render_svg(three_lines, overlay="holes", clustering=[{0, 1, 2}])

    @pytest.mark.parametrize("name, overlay", list(GOLDEN_SVG), ids="_".join)
    def test_bytes_are_golden(self, name, overlay, three_lines, quartet):
        S = {
            "three_lines": three_lines,
            "quartet": quartet,
            "seed-4": generate_instance(GeneratorConfig(seed=4, n=8)),
        }[name]
        kw = {"clustering": GOLDEN_CLUSTERS[name]} if overlay == "clustering" else {}
        svg = render_svg(S, overlay=overlay, **kw)
        assert hashlib.sha256(svg).hexdigest() == GOLDEN_SVG[name, overlay]

    def test_holes_overlay_decodes_no_left_set(self, decoded):
        S = generate_instance(GeneratorConfig(seed=7, n=10))
        render_svg(S, overlay="holes")
        holes = compute_holes(S)
        assert sum(h.kind == "bounded" for h in holes) > 0
        assert decoded == []

    @pytest.mark.parametrize(
        "pairs",
        [
            [("1e4299", "0"), ("1/3", "2"), ("1e-4299", "1/7")],  # range past the floats
            [("0", "1e-4000"), ("1e-4000", "0")],  # range below them
        ],
    )
    def test_coordinates_past_floats_rejected(self, pairs):
        S = TrajectorySet.from_pairs(pairs)
        for overlay in ("none", "holes"):
            with pytest.raises(ValueError, match="does not fit in floats"):
                render_svg(S, overlay=overlay)

    def test_bad_clustering_rejected(self, three_lines):
        with pytest.raises(ValueError):
            render_svg(three_lines, overlay="clustering", clustering=[{0}, {1}])
