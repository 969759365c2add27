"""Bit-for-bit pins of the geometric kernels on a fixed seeded sample.

``separation``, ``sweep_first_contact`` (at ``tol`` 0 and ``TOUCH_TOL``)
and ``grasp_gap`` decide every generated scene and every policy step, so a
rewrite of them must return the same floats, not merely the same signs.
The sample covers every disc/rectangle order, every rim/axis order, and
pairs moved to within 1e-7 of touching, which the benchmark plans rarely
reach.  The digest was recorded before the kernels lost their raw-float
helper layers and must not be re-recorded for a change that claims to keep
outputs identical.
"""

import hashlib
import math

from declutter import grasp_gap
from declutter.geometry import TOUCH_TOL, rect, separation, sweep_first_contact
from declutter.rng import SplitMix64
from helpers import BOWL, CUP, SIM, UTENSIL, build_scene

PAIRS = 120  # per shape order and per kind of placement

GOLDEN_KERNEL_DIGEST = "738000038d06d690a26102fab2698fdca7bd15e1955d1606369ad2d5b354929f"


def _footprint(rng, shape):
    x, y = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    if shape == "disc":
        return x, y, rng.uniform(0.5, 9.0)
    width = rng.uniform(0.5, 4.0)
    return rect(x, y, width + rng.uniform(0.0, 18.0), width, rng.uniform(0.0, math.pi))


def _moved(fp, dx, dy):
    return (fp[0] + dx, fp[1] + dy) + fp[2:]


def _footprint_pairs(rng):
    """Random pairs, then pairs within 1e-7 of touching, in all four orders."""
    for shapes in (("disc", "disc"), ("disc", "rect"), ("rect", "disc"), ("rect", "rect")):
        for _ in range(PAIRS):
            yield _footprint(rng, shapes[0]), _footprint(rng, shapes[1])
        for _ in range(PAIRS):
            a, b = _footprint(rng, shapes[0]), _footprint(rng, shapes[1])
            phi = rng.uniform(0.0, 2.0 * math.pi)
            ux, uy = math.cos(phi), math.sin(phi)
            # Put b 40 cm out, then slide it back to first contact, give or take.
            b = _moved(b, a[0] - b[0] + 40.0 * ux, a[1] - b[1] + 40.0 * uy)
            t = sweep_first_contact(b, a, -ux, -uy, 40.0)
            step = t + rng.uniform(-1e-7, 1e-7)
            yield a, _moved(b, -step * ux, -step * uy)


def _kernel_lines():
    rng = SplitMix64(2024)
    for a, b in _footprint_pairs(rng):
        yield repr(separation(a, b))
        toward = math.atan2(b[1] - a[1], b[0] - a[0])
        for phi in (toward + rng.uniform(-0.6, 0.6), rng.uniform(0.0, 2.0 * math.pi)):
            ux, uy = math.cos(phi), math.sin(phi)
            t_max = rng.uniform(0.0, 30.0)
            for tol in (0.0, TOUCH_TOL):
                yield repr(sweep_first_contact(a, b, ux, uy, t_max, tol))
    kinds = (CUP, BOWL, UTENSIL)
    for ka in kinds:
        for kb in kinds:
            for near in (False, True):
                for _ in range(PAIRS):
                    ax, ay = rng.uniform(20.0, 40.0), rng.uniform(20.0, 40.0)
                    phi = rng.uniform(0.0, 2.0 * math.pi)
                    reach = rng.uniform(25.0, 40.0) if near else rng.uniform(0.0, 25.0)
                    bx, by = ax + reach * math.cos(phi), ay + reach * math.sin(phi)
                    ta, tb = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
                    scene = build_scene([([(ka, ta)], ax, ay), ([(kb, tb)], bx, by)])
                    gap, pa, pb = grasp_gap(scene, 0, 1, SIM)
                    if near:
                        # Slide b along the witness line to the touching
                        # distance, give or take 1e-7.
                        span = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
                        step = (gap + rng.uniform(-1e-7, 1e-7)) / span
                        bx -= step * (pb[0] - pa[0])
                        by -= step * (pb[1] - pa[1])
                        scene = build_scene([([(ka, ta)], ax, ay), ([(kb, tb)], bx, by)])
                        gap, pa, pb = grasp_gap(scene, 0, 1, SIM)
                    yield repr((gap, pa, pb))
                    yield repr(grasp_gap(scene, 1, 0, SIM))


def test_kernels_match_the_recorded_digest():
    text = "\n".join(_kernel_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_KERNEL_DIGEST
