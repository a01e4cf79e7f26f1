"""A registry of mutants of the library, and a runner that shows each one
killed by the tests named for it.

A mutant replaces one snippet of one file under src/hypiso, a snippet that
occurs exactly once there (tests/test_library_source.py checks this), and
names the tests that must fail on it.  pytest does not collect this file.
Run it from anywhere, with no arguments for every mutant or with names:

    python tests/mutants.py
    python tests/mutants.py floor-min-over-points nearest-keeps-its-first-point

For each mutant the runner copies the checkout (without .git and caches)
to a temporary directory, applies the mutant there, runs all its tests with
pytest and prints killed (every named test failed), not killed by the named
tests that passed, survived (every one passed) or error (pytest could not
run them); then the runner's wall time.  It exits 1 unless every mutant it
ran was killed by every test it names.  The checkout itself is never edited.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/hypiso
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


CAP = "tests/test_actions.py::test_bounded_cap_raises_where_every_product_is_sized"
ORACLE = "tests/test_combiner.py::test_certificate_check_matches_the_rendering_oracle"
LINES = "tests/test_classification_sweep.py::test_integer_witness_lines_match_the_fraction_derivation"
PARTITIONS = "tests/test_combiner.py::test_lazy_partitions_match_the_eager_reference"
LEVEL_ZERO = "tests/test_combiner.py::test_parabolic_words_level_zero_matches_the_walk"
CLASSES = "tests/test_classification_sweep.py::test_plane_classes_match_the_fraction_derivation"
SPELLING = "tests/test_quadratic.py::test_a_boundary_point_has_one_spelling"
SPELLINGS = "tests/test_config_cli.py::test_matrix_spellings_classify_as_they_read"
FLOOR = "tests/test_dynamics.py::test_ns_floor_matches_the_full_walk"
ZERO_SHIFT = "tests/test_dynamics.py::test_ns_floor_with_a_zero_float_shift"
RAY_LINES = "tests/test_trees.py::test_witness_lines_match_the_ray_reference"
PRODUCT = "tests/test_actions.py::test_product_matches_the_full_content_reference"
WORD_TREE = "tests/test_combiner.py::test_reduced_words_follow_the_word_tree"
ONE_GENERATOR = "tests/test_combiner.py::test_one_generator_checks_level_zero_only"
PRINTABLE = "tests/test_classification_sweep.py::test_check_printable_on_each_side_of_its_digit_bound"
BRUTE_FORCE = "tests/test_combiner.py::test_check_hypotheses_matches_brute_force"
GATED = "tests/test_combiner.py::test_the_sampler_matches_the_hypothesis_gated_reference"
EVERY_MODEL = "tests/test_combiner.py::test_tagged_words_match_the_walk_in_every_model"
WITNESS_CAP = "tests/test_config_cli.py::test_witness_search_over_cap_exit_1"

MUTANTS = (
    # the North-South check stops at the Busemann floor: the last step that
    # any point needs, and only when g's float shift tau is positive
    Mutant("floor-min-over-points", "dynamics.py",
           "bound = max((threshold", "bound = min((threshold", (FLOOR,)),
    Mutant("floor-divides-by-a-zero-shift", "dynamics.py",
           "if tau > 0 else math.nan", "if tau >= 0 else math.nan", (ZERO_SHIFT,)),
    # the check reads U-'s products for the points outside U-, walks every
    # step up to the floor, and N follows the last step that fails
    Mutant("ns-outside-reads-u-plus", "dynamics.py",
           "if not minus > threshold]", "if not plus > threshold]",
           ("tests/test_dynamics.py::test_ns_dynamics_matches_direct_iteration",)),
    Mutant("ns-walk-stops-one-step-short", "dynamics.py",
           "outside, n_max) + 1):", "outside, n_max)):", (ZERO_SHIFT, FLOOR)),
    Mutant("ns-n-from-the-first-failing-step", "dynamics.py",
           "            failing = n\n", "            failing = failing or n\n", (FLOOR,)),
    # a point's projection is the nearest orbit point of the least |n|
    Mutant("projection-ties-take-the-largest-exponent", "dynamics.py",
           "key=lambda n: (abs(n), -n)", "key=lambda n: (-abs(n), -n)",
           ("tests/test_dynamics.py::test_orbit_projection_takes_the_least_exponent_among_ties",)),
    # a plane point is its primitive integer triple, and a distance crosses
    # each point's denominator over to the other point's coordinates
    Mutant("plane-point-not-primitive", "geometry.py",
           "return self.point_xy(u * v + a * c * Y * Y, Y * D * m.s * m.s, v * v + c * c * Y * Y)",
           "return self.model.own((u * v + a * c * Y * Y, Y * D * m.s * m.s, v * v + c * c * Y * Y))",
           ("tests/test_classification_sweep.py::test_a_plane_point_has_one_spelling",)),
    Mutant("cosh-swaps-denominators", "geometry.py",
           "dx, r1, r2 = X1 * D2 - X2 * D1, Y1 * D2, Y2 * D1", "dx, r1, r2 = X1 * D2 - X2 * D1, Y1 * D1, Y2 * D2",
           ("tests/test_classification_sweep.py::test_plane_lab_matches_the_fraction_metric",)),
    # a plane triangle's internal points: each Gromov product reads the two
    # sides at its vertex, less the opposite side
    Mutant("internal-point-swaps-sides", "geometry.py",
           "gx = max(0.0, 0.5 * (dxy + dzx - dyz))", "gx = max(0.0, 0.5 * (dxy + dyz - dzx))",
           ("tests/test_geometry.py::test_plane_internal_points_match_the_reference_products",)),
    # past float range a plane product is read from the logs of exact rationals
    Mutant("exact-log-adds-the-denominator", "geometry.py",
           "math.log(q.numerator) - math.log(q.denominator)", "math.log(q.numerator) + math.log(q.denominator)",
           ("tests/test_dynamics.py::test_plane_products_past_float_range_match_the_floats",)),
    # require is the one check of a value's model id
    Mutant("require-checks-nothing", "models.py",
           "if x.model_id != self.model_id:", "if x.model_id is None:",
           ("tests/test_geometry.py::test_distance_checks_models",
            "tests/test_halfplane.py::test_mixed_models_rejected", ORACLE)),
    # the size cap: squares are sized once their bound passes it, and a
    # word's image keeps the running bound of the product so far
    Mutant("power-squares-never-sized", "models.py",
           "                bound = self._sized(self._size(base))", "                pass", (CAP,)),
    Mutant("image-bound-forgets-the-product", "actions.py",
           "            bound += power_bound + 1", "            bound = power_bound", (CAP,)),
    # a syllable g^-1 is the inverse of g's payload, read with no power ladder
    Mutant("image-reads-e-minus-1-as-the-generator", "actions.py",
           "(p if e == 1 else model._inv(p), size)", "(p, size)",
           ("tests/test_actions.py::test_unit_syllables_image_as_the_letter_product",
            "tests/test_actions.py::test_image_is_the_fold_of_the_public_compose")),
    # tau = 2 arccosh((a + d)/2s)
    Mutant("translation-length-drops-the-2", "halfplane.py",
           "2.0 * _acosh_ratio(self.a + self.d, 2 * self.s)", "_acosh_ratio(self.a + self.d, 2 * self.s)",
           ("tests/test_halfplane.py::test_classify_hyperbolic_trace_3",)),
    # the repelling point takes the minus sign of the square root
    Mutant("repelling-point-sign", "halfplane.py",
           "for e in (1, -1))", "for e in (1, 1))", (CLASSES,)),
    # a boundary point has one spelling: its form is primitive, and negating
    # a quadratic form to a positive leading coefficient flips the root sign,
    # as the map keeps the roots' order only when F(d, -c) has F's sign
    Mutant("form-not-primitive", "quadratic.py",
           "g = math.gcd(*form)", "g = 1", (SPELLING,)),
    # (conjugating every root alike, this mutant keeps one spelling: only
    # an outside oracle of the boundary action or the fixed points sees it)
    Mutant("apply-keeps-root-order", "quadratic.py",
           "g, root = -g, -root", "g = -g",
           ("tests/test_quadratic.py::test_boundary_apply_names_the_image_of_its_root",
            "tests/test_classification_sweep.py::test_boundary_apply_on_irrational_fixed_points_sympy", CLASSES)),
    # a product is divided by its content, which may be exactly 2
    Mutant("product-skips-content-2", "halfplane.py",
           "if g > 1:", "if g > 2:",
           ("tests/test_actions.py::test_image_is_the_fold_of_the_public_compose",
            "tests/test_classification_sweep.py::test_trichotomy_exhaustive_small_entries")),
    # the content of a product divides gcd(s1, s2)^2, which may be exactly
    # its value, and a right factor -I negates: no product takes more
    Mutant("content-bound-takes-h", "halfplane.py",
           "g = math.gcd(h * h, a, b, c, d)", "g = math.gcd(h, a, b, c, d)", (PRODUCT,)),
    Mutant("scalar-factor-ignores-minus-i", "halfplane.py",
           "return self if a2 == 1 else _new(Matrix2, (-a1, -b1, -c1, -d1, s1))", "return self",
           (PRODUCT, "tests/test_actions.py::test_image_with_identity_syllables_matches_the_capped_image")),
    # a rotation of order 2 or 3 powers modulo its order: M^2 = -I at trace 0
    Mutant("rotation-power-drops-the-sign", "halfplane.py",
           "if t >= 0 and q & 1:", "if t > 0 and q & 1:",
           ("tests/test_actions.py::test_rotation_powers_take_no_product",
            "tests/test_actions.py::test_image_with_identity_syllables_matches_the_capped_image")),
    # a hyperbolic class negates the whole matrix to a positive trace
    Mutant("plane-hyperbolic-flips-only-the-diagonal", "halfplane.py",
           "a, b, c, d = -a, -b, -c, -d", "a, d = -a, -d",
           ("tests/test_classification_sweep.py::test_trichotomy_exhaustive_small_entries",)),
    # |tr M| = 2 (scaled by s) is parabolic, not hyperbolic
    Mutant("plane-tag-takes-trace-2", "halfplane.py",
           "if t > two:", "if t >= two:",
           ("tests/test_halfplane.py::test_classify_parabolic",)),
    # +-identity, of trace +-2, is elliptic of order 1, and a rotation of
    # trace +-1 has order 3, its trace scaled by s too
    Mutant("plane-identity-parabolic", "halfplane.py",
           "        if b == c == 0 and a == d:  # +-identity, of order 1\n"
           "            return _new(IsometryClass, (ELLIPTIC, 1, None))\n", "",
           ("tests/test_halfplane.py::test_classify_parabolic",)),
    Mutant("plane-order-3-unscaled", "halfplane.py",
           "3 if t == s else None", "3 if t == 1 else None",
           ("tests/test_classification_sweep.py::test_trichotomy_exhaustive_small_entries",)),
    # the plane reads its config matrices: an entry's denominator first, and
    # a zero denominator refused
    Mutant("matrix-entry-takes-a-zero-denominator", "halfplane.py",
           '                if q == 0:\n                    raise ValueError("zero denominator")\n', "",
           (SPELLINGS, "tests/test_halfplane.py::test_parse_word_reads_rational_entries")),
    Mutant("matrix-entry-reads-the-numerator-first", "halfplane.py",
           "q = int(den) if slash else 1", "p, q = int(num), int(den) if slash else 1", (SPELLINGS,)),
    # the checker compares the repelling point too
    Mutant("witness-line-drops-minus", "records.py",
           '"{} plus={} minus={}".format(line', '"{} plus={}".format(line',
           ("tests/test_combiner.py::test_search_is_invariant_under_plane_conjugation",)),
    # a certificate's class is compared by value, fixed points or rays too
    Mutant("class-comparison-ignores-fixed-points", "records.py",
           "            if cls == want:",
           "            if cls.tag == want.tag and class_invariant(cls) == class_invariant(want):",
           (ORACLE,)),
    # a witness line prints each rational in lowest terms, its denominator
    # positive, and the repelling point with -s/2c
    Mutant("ratio-keeps-negative-denominator", "records.py",
           "    if d < 0:\n        g = -g\n", "", (LINES,)),
    Mutant("repelling-point-printed-with-plus-s", "records.py",
           "_ratio(-s, 2 * c)", "_ratio(s, 2 * c)", (LINES,)),
    # a certificate's plane class skips printing only while its integers
    # surely print under the digit limit
    Mutant("print-bound-past-the-limit", "records.py",
           "<= 3 * limit", "<= 4 * limit",
           ("tests/test_combiner.py::test_certificate_check_past_the_print_limit",)),
    # two rays part within their preperiods and the lcm of their periods
    Mutant("ray-pair-too-shallow", "geometry.py",
           "self._ray_vertex(r1, parted + len(w))", "self._ray_vertex(r1, len(w))",
           ("tests/test_trees.py::test_gromov_boundary_pair_against_deep_truncations",)),
    # _fold builds every ray, a boundary image too, and two rays are
    # compared as far as the longer preperiod and two common periods
    Mutant("tree-image-skips-the-fold", "trees.py",
           "self._fold(self.multiply(g, ray.prefix), ray.period)",
           "RayDescriptor(self.multiply(g, ray.prefix), ray.period)",
           ("tests/test_trees.py::test_cayley_fixed_rays_invariant",
            "tests/test_trees.py::test_tree_ray_images_follow_their_unit_streams")),
    Mutant("ray-equality-from-the-shorter-prefix", "trees.py",
           "max(len(r1.prefix), len(r2.prefix)) + 2", "min(len(r1.prefix), len(r2.prefix)) + 2",
           ("tests/test_trees.py::test_tree_rays_are_equal_exactly_when_their_streams_agree",)),
    # a tree class keeps its cyclic core u, v and folds its rays when read:
    # the repelling ray runs along v^-1; one model id and one core settle
    # equality and the hash unfolded, and the checker reads a tree class's
    # model id from its core; a Cayley word prints each run of one letter as
    # one power
    Mutant("fixed-minus-folds-v", "trees.py",
           "self.model._fold(self.u, self.model.invert_word(self.v))", "self.model._fold(self.u, self.v)",
           ("tests/test_trees.py::test_cayley_fixed_rays_invariant", "tests/test_cli_golden.py::test_cli_golden")),
    Mutant("check-printable-skips-the-tree-check", "records.py",
           "        model.require(h.core)\n", "        pass\n",
           ("tests/test_combiner.py::test_verify_folds_no_ray_and_refuses_another_tree_model", ORACLE)),
    Mutant("tree-core-ignores-the-model-id", "trees.py",
           "self.core == other.core", "self[1:3] == other[1:3]",
           ("tests/test_trees.py::test_tree_classes_are_equal_exactly_when_their_lengths_and_rays_are",)),
    Mutant("tree-hash-folds-the-rays", "trees.py",
           "hash(self.core)", "hash((self.length, *self.fixed_points))",
           ("tests/test_trees.py::test_tree_classes_are_equal_exactly_when_their_lengths_and_rays_are",)),
    Mutant("cayley-display-drops-the-run-length", "trees.py",
           "for n in [len(list(run))]", "for n in [1]",
           ("tests/test_trees.py::test_tree_word_text_round_trip", "tests/test_words.py::test_tree_parse_word_fuzz",
            "tests/test_seed_hashes.py::test_seed_hashes_are_pinned", RAY_LINES)),
    # a witness line prints each ray from its class's core, folded once: a
    # Bass-Serre minus ray's fold may absorb a period into u
    Mutant("ray-text-skips-the-fold", "trees.py",
           "ray = self._fold(p, period)", "ray = RayDescriptor(p, period)", (RAY_LINES,)),
    # _fold tests the junction's two units: a period folds into p while they
    # cancel (Cayley) or merge (Bass-Serre), not only while they cancel
    Mutant("fold-leaves-merges", "trees.py",
           "len(self.multiply(p[-1:], period[:1])) < 2", "len(self.multiply(p[-1:], period[:1])) < 1",
           ("tests/test_trees.py::test_tree_ray_images_follow_their_unit_streams", RAY_LINES)),
    # a Bass-Serre vertex is its root path: the root's edge (0, 0) to <t>
    # is a neighbour, a coset w<t> opens with (0, 0) by the parity of |w| and
    # t, and g.(w<t>) drops gw's last syllable when it lies in <t>
    Mutant("bs-root-edge-to-t-dropped", "geometry.py",
           "range(1 if v else 0, ", "range(1, ",
           ("tests/test_trees.py::test_bs_vertex_degrees",)),
    Mutant("bs-vertex-loses-the-parity", "geometry.py",
           "if (len(w) ^ t) & 1 else w", "if len(w) & 1 else w",
           ("tests/test_trees.py::test_gromov_boundary_pair_against_deep_truncations",)),
    Mutant("bs-act-keeps-a-syllable-of-the-vertex", "geometry.py",
           "w[:-1] if w and w[-1][0] == t else w, t)", "w, t)",
           ("tests/test_trees.py::test_bs_classify_sts_elliptic",)),
    # the lab's whole-sample passes: the four-point max-min in row blocks,
    # the last one partial; the plane's int64 ratios only while every
    # scaled coordinate is below 2^25; a tree's meets counted from each
    # level's prefix codes, a code the parent's and the unit; the tree's
    # internal points on the side the meets name; and the nearest orbit
    # points ranked by a running least of their exact cosh ratios
    Mutant("four-point-drops-the-partial-block", "geometry.py",
           "for i in range(0, n, step))", "for i in range(0, n - n % step, step))",
           ("tests/test_geometry.py::test_four_point_blocks_match_the_cubic_formula",)),
    Mutant("plane-guard-past-exact-floats", "geometry.py",
           "< 2**25:", "< 2**27:",
           ("tests/test_geometry.py::test_plane_distances_take_int64_arrays_only_below_2_to_25",)),
    Mutant("level-codes-forget-the-parent", "geometry.py",
           "codes.setdefault((c, v[level]), len(codes))", "codes.setdefault(v[level], len(codes))",
           ("tests/test_trees.py::test_pairwise_distances_match_the_pair_loop_and_bfs",)),
    Mutant("tree-internal-point-on-the-far-side", "geometry.py",
           "v[:dv] if kwu <= kuv else w[:dw]", "w[:dw] if kwu <= kuv else v[:dv]",
           ("tests/test_trees.py::test_internal_points_against_bfs",)),
    Mutant("nearest-keeps-its-first-point", "geometry.py",
           "                n0, d0 = n, d\n", "                pass\n",
           ("tests/test_geometry.py::test_plane_nearest_is_exact_past_float_ties",)),
    # a word's image is refused before a product whose lower bound on its
    # size passes the cap: an entry's term x y has bl(x) + bl(y) - 1 bits
    Mutant("least-size-drops-the-1", "halfplane.py",
           "x.bit_length() + y.bit_length() - 1)", "x.bit_length() + y.bit_length())",
           ("tests/test_actions.py::test_least_size_is_below_the_product_size",)),
    # the checker's words: a Cayley product cancels the whole shorter word,
    # a Bass-Serre conjugation merges exponents modulo their own factor's
    # order, and adjacent powers of one name merge, not only cancel
    Mutant("cayley-multiply-stops-one-short", "trees.py",
           "meet = min(n, len(v))", "meet = min(n, len(v)) - 1",
           ("tests/test_trees.py::test_cayley_junction_product_matches_letter_reduction",
            "tests/test_trees.py::test_cayley_group_laws")),
    Mutant("bs-cyclic-reduce-mod-the-other-order", "trees.py",
           "exp = (last[1] + w[i][1]) % self.orders[last[0]]", "exp = (last[1] + w[i][1]) % self.orders[1 - last[0]]",
           ("tests/test_trees.py::test_bs_cyclic_reduce_reconstruction",
            "tests/test_trees.py::test_bs_conjugation_preserves_class")),
    # each stage's candidate is f^pa g^qb in the letters f and g, imaged in
    # every action up to the stage's own
    Mutant("candidate-drops-q", "combiner.py",
           '("g", q * b)', '("g", b)',
           ("tests/test_acceptance.py::test_acceptance_worked_instance",)),
    Mutant("candidate-skips-the-stage-action", "combiner.py",
           "enumerate(stage_actions)", "enumerate(stage_actions[:-1])",
           ("tests/test_acceptance.py::test_acceptance_theorem_desk_scale",)),
    # the search refuses a candidate whose class is not hyperbolic, elliptic
    # too, and certifies with the classes of the one candidate it certifies
    Mutant("search-certifies-an-elliptic-candidate", "combiner.py",
           "            if cls.tag != HYPERBOLIC:", "            if cls.tag == HYPOTHESIS_VIOLATION:",
           ("tests/test_acceptance.py::test_acceptance_theorem_desk_scale", ORACLE)),
    Mutant("certificate-keeps-every-tested-class", "combiner.py",
           "        images, classes = [], []\n", "        images, classes = [], classes if index else []\n",
           ("tests/test_acceptance.py::test_acceptance_theorem_desk_scale", ORACLE)),
    # a stage's candidates count the certified one, and a record's witness
    # lines are the body lines that start with witness
    Mutant("tried-drops-the-winner", "combiner.py",
           "self.schedule_index + 1", "self.schedule_index",
           ("tests/test_combiner.py::test_search_stats_tally_the_stages",)),
    # a record opens with its header, whatever follows
    Mutant("parse-record-skips-the-header", "records.py",
           "if not lines or lines[0]", "if not lines and lines[0]",
           ("tests/test_config_cli.py::test_record_error_names_its_place",)),
    # check_printable prints a plane class whose 2L + 2 bits may pass 3 bits
    # per digit of the limit, and only then.  Equivalent: the index 0 it
    # passes to witness_line, whose line it drops
    Mutant("check-printable-bound-strict", "records.py",
           "+ 2 <= 3 * limit", "+ 2 < 3 * limit", (PRINTABLE,)),
    Mutant("check-printable-bound-plus-1", "records.py",
           "+ 2 <= 3 * limit", "+ 1 <= 3 * limit", (PRINTABLE,)),
    Mutant("check-printable-bound-minus-2", "records.py",
           "+ 2 <= 3 * limit", "- 2 <= 3 * limit", (PRINTABLE,)),
    Mutant("check-printable-4-bits-a-digit", "records.py",
           "+ 2 <= 3 * limit", "+ 2 <= 4 * limit", (PRINTABLE,)),
    Mutant("check-printable-drops-the-2", "records.py",
           "2 * max(map(abs, h[:5]))", "max(map(abs, h[:5]))", (PRINTABLE,)),
    Mutant("check-printable-always-prints", "records.py",
           "not limit or 2 *", "not limit and 2 *", (PRINTABLE,)),
    # the CLI runs under its own int-string limit, not the interpreter's
    Mutant("cli-leaves-the-print-limit-unpinned", "cli.py",
           "    sys.set_int_max_str_digits(MAX_PRINT_DIGITS)\n", "",
           ("tests/test_cli_golden.py::test_huge_records_do_not_read_the_interpreter_print_limit",)),
    Mutant("record-witnesses-read-stats", "records.py",
           'if line.startswith("witness ")', 'if not line.startswith("stage ")',
           ("tests/test_cli_golden.py::test_cli_golden",)),
    # the search checks a certified word's letter-by-letter image wherever
    # its a-priori bound passes the cap, not only past twice the cap
    Mutant("image-cap-check-past-twice-the-cap", "combiner.py",
           "- 1 > MAX_ISOMETRY_SIZE:", "- 1 > 2 * MAX_ISOMETRY_SIZE:",
           ("tests/test_config_cli.py::test_search_keeps_the_checker_cap_within_twice_the_cap",)),
    # a stage's partition, built when read: H' for disjoint fixed pairs,
    # and the E test asks whether g fixes f's repelling point
    Mutant("partition-swaps-h-and-h-prime", "combiner.py",
           '''"H'" if independent(model, cf, cg) else "H"''', '''"H" if independent(model, cf, cg) else "H'"''',
           (PARTITIONS,)),
    Mutant("e-test-reads-the-attracting-point", "combiner.py",
           "cf.hyperbolic.fixed_minus", "cf.hyperbolic.fixed_plus",
           ("tests/test_combiner.py::test_the_e_test_asks_about_the_repelling_point",)),
    # independence asks f's class first, and refuses it with its own text
    Mutant("independent-skips-the-f-check", "combiner.py",
           '    if not cf.is_hyperbolic:\n        raise NotHyperbolic(f"f is', '    if False:\n        raise NotHyperbolic(f"f is',
           ("tests/test_combiner.py::test_independent_examples",)),
    # the sampler gives up after 50 draws rather than return a system that fails the check
    Mutant("sampler-returns-its-last-draw", "sampling.py",
           'raise RuntimeError(f"could not build a hypothesis-clean system from seed {seed}")',
           'return ActionSystem(generators, [Action(f"a{i}-{model.kind}", model, images) for i, (model, images, _)'
           " in enumerate(drawn)], [GroupWord.generator(gen) for _, _, gen in drawn])",
           ("tests/test_combiner.py::test_the_sampler_refuses_a_seed_after_its_50_draws",)),
    # a draw is refused when any of its actions lists a parabolic word
    Mutant("sampler-tests-only-the-first-action", "sampling.py",
           "for model, images, _ in drawn)", "for model, images, _ in drawn[:1])", (GATED,)),
    Mutant("sampler-refuses-only-when-every-action-is-parabolic", "sampling.py",
           "if not any(next(model.tagged_words", "if not all(next(model.tagged_words", (GATED,)),
    # dir() lists every export, not only those cached in the package's globals
    Mutant("dir-lists-only-cached-exports", "__init__.py",
           "return sorted(set(globals()) | set(__all__))", "return sorted(globals())",
           ("tests/test_library_source.py::test_dir_lists_an_export_whose_cached_value_is_gone",)),
    # level 0 of the plane's tag walk, tagged from the steps' tuples, and a
    # hyperbolic hit past it: |a + d| > 2s, never = 2s
    Mutant("level-zero-trace-against-2", "halfplane.py",
           "hit(abs(m.a + m.d), 2 * m.s)", "hit(abs(m.a + m.d), 2)", (LEVEL_ZERO,)),
    Mutant("level-zero-keeps-identity", "halfplane.py",
           "and not m.is_proj_identity() for j in", "for j in", (LEVEL_ZERO,)),
    Mutant("plane-hyperbolic-hit-at-2s", "halfplane.py",
           "operator.gt if tag == HYPERBOLIC", "operator.ge if tag == HYPERBOLIC", (LEVEL_ZERO, EVERY_MODEL)),
    # the reduced-word tree: a word's children are every step but its
    # inverse, a word is spelled through its parents k // (r - 1), the
    # witness search builds no level past the one it reads nor one past the
    # word cap, and with one generator every power of a parabolic f is listed
    Mutant("word-tree-keeps-the-inverse-step", "combiner.py",
           "j != last ^ 1", "j != last", (WORD_TREE, BRUTE_FORCE)),
    Mutant("violation-rebuild-divides-by-r", "combiner.py",
           "j //= len(letters) - 1", "j //= len(letters)", (WORD_TREE, BRUTE_FORCE)),
    Mutant("witness-search-builds-every-level", "combiner.py", "word_tree(r, n + 1)[n]", "word_tree(r, depth)[n]",
           ("tests/test_combiner.py::test_witness_search_builds_only_the_levels_it_reads",)),
    Mutant("witness-cap-counts-a-level-short", "combiner.py",
           "for m in range(n + 1)) <= MAX_HYPOTHESIS_PAIRS", "for m in range(n)) <= MAX_HYPOTHESIS_PAIRS",
           (WITNESS_CAP,)),
    Mutant("witness-cap-refuses-the-cap-itself", "combiner.py",
           "for m in range(n + 1)) <= MAX_HYPOTHESIS_PAIRS", "for m in range(n + 1)) < MAX_HYPOTHESIS_PAIRS",
           (WITNESS_CAP,)),
    # SpaceModel's tag walk: each word its parent k // (r - 1) times its last
    # step; a tree's tags leave out hypothesis_violation, so its check
    # multiplies nothing
    Mutant("default-walk-parent-divides-by-r", "models.py",
           "words[k // (len(steps) - 1)]", "words[k // len(steps)]", (EVERY_MODEL,)),
    Mutant("trees-declare-hypothesis-violation", "trees.py",
           "    tags = (ELLIPTIC, HYPERBOLIC)  #", "    tags = SpaceModel.tags  #",
           ("tests/test_combiner.py::test_a_tree_check_multiplies_nothing",)),
    Mutant("one-generator-lists-level-zero-only", "combiner.py",
           "for n in range(1, word_sample_depth + 1)", "for n in range(1, 2)", (ONE_GENERATOR,)),
    # one compose over the payload hooks, and one tree classify over the
    # period of a cyclic core: None for a hyperbolic core (a Cayley core
    # that is not empty, a Bass-Serre core of two syllables or more)
    Mutant("compose-swaps-its-factors", "models.py",
           "self._mul(self.require(first), self.require(second))",
           "self._mul(self.require(second), self.require(first))",
           ("tests/test_trees.py::test_bs_normal_form_and_compose",
            "tests/test_actions.py::test_image_is_the_fold_of_the_public_compose")),
    Mutant("cayley-core-never-elliptic", "trees.py", "return None if v else 1", "return None",
           ("tests/test_trees.py::test_cayley_classification",)),
    Mutant("bs-core-of-two-syllables-elliptic", "trees.py", "if len(v) >= 2:", "if len(v) > 2:",
           ("tests/test_trees.py::test_bs_classify_st_hyperbolic",)),
    Mutant("tree-elliptic-period-1", "trees.py",
           "(ELLIPTIC, period, None)", "(ELLIPTIC, 1, None)",
           ("tests/test_trees.py::test_bs_classify_sts_elliptic",)),
    # error paths: a system refuses a repeated generator name, the powers
    # refuse a parabolic g as well as f, and a North-South check with every
    # point in U- has no floor to read
    Mutant("duplicate-generators-accepted", "actions.py",
           '        if len(set(self.generators)) != len(self.generators):\n'
           '            raise ValidationError("duplicate generator names", "generators")\n', "",
           ("tests/test_config_cli.py::test_config_error_names_its_place",
            "tests/test_actions.py::test_an_action_system_refuses_generators_it_cannot_name")),
    # the one missing-image check, a config's as well as a hand-built system's
    Mutant("missing-image-accepted", "actions.py",
           "                if gen not in action.images:\n", "                if False:\n",
           ("tests/test_config_cli.py::test_config_error_names_its_place",
            "tests/test_actions.py::test_an_action_system_refuses_generators_it_cannot_name")),
    # a stage's powers and profile read the classes the search decided: g's
    # in every action up to the stage's own, where resolve_witness decided it
    Mutant("normalize-powers-reads-f-in-the-stage-action", "combiner.py",
           " + (cg,)\n", " + (cls_fk,)\n",
           ("tests/test_cli_golden.py::test_cli_golden", "tests/test_seed_hashes.py::test_seed_hashes_are_pinned")),
    Mutant("profile-reads-f-for-g", "combiner.py",
           "map(ProfileEntry, f_classes[:k], g_classes,", "map(ProfileEntry, f_classes[:k], f_classes,",
           (PARTITIONS, "tests/test_combiner.py::test_simultaneous_monotone_stages")),
    Mutant("normalize-powers-checks-only-f", "combiner.py",
           'for cls, word_name in ((cf, "f"), (cg, "g")):', 'for cls, word_name in ((cf, "f"),):',
           ("tests/test_combiner.py::test_search_refuses_a_parabolic_witness_with_no_hypothesis_check",)),
    Mutant("floor-without-the-empty-guard", "dynamics.py",
           "    if not outside:\n        return n_max\n", "",
           ("tests/test_dynamics.py::test_ns_dynamics_with_every_point_in_u_minus",)),
    # a word prints a power e as name^e unless e is 1: name^-1 is not name
    Mutant("display-drops-exponent-minus-1", "words.py",
           "name if e == 1 else", "name if abs(e) == 1 else",
           ("tests/test_words.py::test_parse_round_trip",)),
    Mutant("parse-reads-an-empty-exponent-as-1", "words.py",
           "int(exp) if caret else 1", "int(exp) if exp else 1",
           ("tests/test_words.py::test_parse_refuses_an_empty_exponent",
            "tests/test_config_cli.py::test_config_error_names_its_place",
            "tests/test_config_cli.py::test_record_error_names_its_place")),
    Mutant("parse-takes-1-for-a-name", "words.py",
           'if name in ("", "1"):', 'if name == "":',
           ("tests/test_words.py::test_parse_refuses_the_name_1",)),
    Mutant("reduce-powers-cancels-only-inverses", "words.py",
           "if out and out[-1][0] == name:", "if out and out[-1] == (name, -e):",
           ("tests/test_words.py::test_free_reduction", "tests/test_words.py::test_powers")),
    # the config builds every model kind from one table row: its parameter
    # count and whether an action's ball-radius applies to it
    Mutant("kinds-table-cayley-tree-takes-two-parameters", "config.py",
           '(CayleyTreeModel, 1, "needs a rank", True)', '(CayleyTreeModel, 2, "needs a rank", True)',
           ("tests/test_config_cli.py::test_config_error_names_its_place",
            "tests/test_cli_golden.py::test_cli_golden")),
    Mutant("kinds-table-plane-takes-a-ball-radius", "config.py",
           '(HalfPlaneModel, 0, "takes no parameters", False)', '(HalfPlaneModel, 0, "takes no parameters", True)',
           ("tests/test_config_cli.py::test_config_error_names_its_place",)),
    # a config or a record states each of its once-only lines once: a repeat
    # is a ParseError, not an overwrite
    Mutant("config-keeps-a-repeated-gen", "config.py",
           'if ident in seen and key != "action":', 'if ident in seen and key not in ("action", "gen"):',
           ("tests/test_config_cli.py::test_config_error_names_its_place",)),
    Mutant("config-repeats-span-actions", "config.py",
           '(0 if key == "generators" else len(actions),', '(0 if key == "generators" else 1,',
           ("tests/test_config_cli.py::test_a_line_may_repeat_in_another_scope",
            "tests/test_cli_golden.py::test_cli_golden")),
    Mutant("record-keeps-a-repeated-word", "records.py",
           '{"command", "status", "exit-code", "word"}', '{"command", "status", "exit-code"}',
           ("tests/test_config_cli.py::test_record_error_names_its_place",)),
)


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "hypiso" / mutant.path


def apply(mutant: Mutant, root: Path) -> None:
    path = source(mutant, root)
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> str:
    """killed, not killed by (the named tests that passed), survived or
    error, from all the mutant's tests on a mutated copy.  A named test
    kills when it, or any of its parameters, fails or errors."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="hypiso-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=ignore)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        return "error"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    passed = [test for test in mutant.tests if not any(f == test or f.startswith(f"{test}[") for f in failed)]
    if len(passed) == len(mutant.tests):
        return "survived"
    return f"not killed by {', '.join(passed)}" if passed else "killed"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    start, outcomes = time.perf_counter(), []
    for mutant in [known[n] for n in names] or MUTANTS:
        t0 = time.perf_counter()
        outcomes.append(run(mutant))
        print(f"{mutant.name}: {outcomes[-1]} ({time.perf_counter() - t0:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
