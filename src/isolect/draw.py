"""Scale-true SVG rendering of dendrograms.

The vertical axis is depth in swadesh units (present day at the bottom),
the horizontal axis carries chain widths at the same scale. Languages are
drawn as rhombi, isolects (chain endpoints) as points. The root link is
drawn in both limiting configurations: a maximal-width chain and a deepest
ancestor point, both dashed since the data cannot decide between them.
"""

import math

from .dendrogram import Dendrogram, Leaf, RootLink, attach_depth, endpoint_depths, root_geometry

__all__ = ["render_svg"]

_SCALE = 14.0  # pixels per swadesh unit, on both axes


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    return f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" {style}/>'


class _Canvas:
    def __init__(self):
        self.chains = []  # ((x1, d1), (x2, d2))
        self.edges = []  # ((x, d_top), (x, d_bottom))
        self.points = []  # (x, d)
        self.leaves = []  # (x, label)
        self.dashed = []  # ((x1, d1), (x2, d2))
        self.texts = []  # (x, d, text, anchor)


def _place(node, x_attach: float, canvas: _Canvas) -> None:
    stack = [(node, x_attach, None, None)]  # pre-order, left subtree first
    while stack:
        node, x, edge, d_end = stack.pop()
        if edge is not None:  # the divergence line down from the parent's endpoint
            top = attach_depth(node)
            canvas.edges.append(((x, d_end), (x, top)))
            if edge > 1e-9:
                canvas.texts.append((x + 0.4, (d_end + top) / 2.0, f"{edge:.3f}", "start"))
        if isinstance(node, Leaf):
            canvas.leaves.append((x, node.label))
            continue
        x_left = x if node.attach_side == "left" else x - node.width
        x_right = x_left + node.width
        d_left, d_right = endpoint_depths(node)
        canvas.chains.append(((x_left, d_left), (x_right, d_right)))
        canvas.points.append((x_left, d_left))
        canvas.points.append((x_right, d_right))
        if node.width > 1e-9:
            canvas.texts.append(((x_left + x_right) / 2.0, max(d_left, d_right) + 0.8,
                                 f"{node.width:.3f}", "middle"))
        stack.append((node.right, x_right, node.right_edge, d_right))
        stack.append((node.left, x_left, node.left_edge, d_left))


def _layout(d: Dendrogram):
    canvas = _Canvas()
    if isinstance(d.root, RootLink):
        h_l = attach_depth(d.root.left)
        h_r = attach_depth(d.root.right)
        gap = max(d.root.length - abs(h_l - h_r), 2.0)
        _place(d.root.left, 0.0, canvas)
        _place(d.root.right, gap, canvas)
        chain_geom = root_geometry(d, variant="max_chain")
        point_geom = root_geometry(d, variant="deep_point")
        # variant 1: widest possible chain at the deeper endpoint's level
        deep = chain_geom.depth
        canvas.dashed.append(((0.0, h_l), (0.0, deep)))
        canvas.dashed.append(((gap, h_r), (gap, deep)))
        canvas.dashed.append(((0.0, deep), (gap, deep)))
        canvas.texts.append((gap / 2.0, deep + 0.8,
                             f"chain variant, width {chain_geom.chain_width:.3f}", "middle"))
        # variant 2: single deepest ancestor point O
        x_o = gap / 2.0
        canvas.dashed.append(((x_o, point_geom.depth), (0.0, h_l)))
        canvas.dashed.append(((x_o, point_geom.depth), (gap, h_r)))
        canvas.points.append((x_o, point_geom.depth))
        canvas.texts.append((x_o + 0.4, point_geom.depth + 1.2,
                             f"O (depth {point_geom.depth:.3f})", "start"))
        canvas.texts.append((x_o, max(h_l, h_r) - 0.8,
                             f"link {d.root.length:.3f}", "middle"))
        top = point_geom.depth
    else:
        _place(d.root, 0.0, canvas)
        top = 0.0
        for (_, d1), (_, d2) in canvas.chains:
            top = max(top, d1, d2)
        for (_, d1), _ in canvas.edges:
            top = max(top, d1)
    return canvas, top


def render_svg(d: Dendrogram) -> str:
    """Render the dendrogram to an SVG string (depth to scale, no timestamps)."""
    canvas, top = _layout(d)
    top = max(top, 1.0)
    xs = [x for x, _ in canvas.points]
    xs += [x for x, _ in canvas.leaves]
    xs += [p[0] for seg in canvas.dashed for p in seg]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)

    margin = 60.0
    label_room = 110.0

    def px(x: float) -> float:
        return margin + (x - x_min) * _SCALE

    def py(depth: float) -> float:
        return margin + (top + 1.0 - depth) * _SCALE

    width = px(x_max) + margin + 40.0
    height = py(0.0) + label_room

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        '<g font-family="sans-serif" font-size="11" fill="black">',
    ]

    # depth ruler
    axis_x = margin / 2.0
    tick_step = 5 if top <= 60 else 10
    ruler = 'stroke="#888" stroke-width="1"'
    parts.append(_line(axis_x, py(0.0), axis_x, py(top + 1.0), ruler))
    for tick in range(0, int(math.ceil(top)) + 1, tick_step):
        y = py(float(tick))
        parts.append(_line(axis_x - 3, y, axis_x + 3, y, ruler))
        parts.append(
            f'<text x="{axis_x - 6:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'fill="#555">{tick}</text>'
        )
    parts.append(
        f'<text x="{axis_x:.1f}" y="{py(top + 1.0) - 8:.1f}" text-anchor="middle" '
        f'fill="#555">swadesh</text>'
    )

    for segments, style in (
        (canvas.dashed, 'stroke="#666" stroke-width="1.2" stroke-dasharray="5,4"'),
        (canvas.chains, 'stroke="black" stroke-width="2.6"'),
        (canvas.edges, 'stroke="black" stroke-width="1.3"'),
    ):
        for (x1, d1), (x2, d2) in segments:
            parts.append(_line(px(x1), py(d1), px(x2), py(d2), style))
    for x, depth in canvas.points:
        parts.append(
            f'<circle cx="{px(x):.1f}" cy="{py(depth):.1f}" r="2.4" fill="black"/>'
        )
    r = 5.0
    for x, label in canvas.leaves:
        cx, cy = px(x), py(0.0)
        # a label may hold characters that SVG text must escape
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<polygon points="{cx:.1f},{cy - r:.1f} {cx + r:.1f},{cy:.1f} '
            f'{cx:.1f},{cy + r:.1f} {cx - r:.1f},{cy:.1f}" fill="white" '
            f'stroke="black" stroke-width="1.3"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{cy + r + 4:.1f}" '
            f'transform="rotate(-55 {cx:.1f} {cy + r + 4:.1f})" '
            f'text-anchor="end">{label}</text>'
        )
    for x, depth, text, anchor in canvas.texts:
        parts.append(
            f'<text x="{px(x):.1f}" y="{py(depth):.1f}" text-anchor="{anchor}" '
            f'fill="#333" font-size="10">{text}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
