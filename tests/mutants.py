"""Committed mutation checks: each invariant of the package, broken on purpose,
must make the tests that guard it fail.

Each mutant replaces one exact snippet of a file under ``src/incontext`` and
names the test node ids that must then fail.  Run from the repository root:

    python tests/mutants.py [NAME ...]

For each mutant (all of them, or those named), the runner copies ``src/`` to
a temporary directory, applies the mutant there, and runs its tests with
``PYTHONPATH`` on the copy; the checkout is never changed.  It prints a kill
table and exits 1 if a mutant survives, that is, if one of its tests passes.
pytest does not collect this file; ``test_mutants.py`` checks that every
snippet still occurs exactly once, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/incontext
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    guards: str


# The probe loop of ``derivative._verified_probe``, from the radius settled
# before the first probe to the pairing after the last.
PROBE_LOOP = (
    "    r = _usable_radius(cap, spacing)\n"
    "    for _ in range(MAX_HALVINGS + 1):\n"
    "        probe = add_atom(mu, x, eps)\n"
    "        # at an existing atom, probe and mu list the same points in the same order\n"
    "        added = eps if probe.n > mu.n else float(np.maximum.reduce(probe.weights - mu.weights))\n"
    "        if added == 0.0:\n"
    "            raise ProbeMassLost(f\"probe mass {eps:.3g} at an atom of mu is lost to rounding\")\n"
    "        f_probe = canonicalize(f(probe))\n"
    "        if f_probe.dim != f_mu.dim:\n"
    "            raise DimensionMismatch(f\"f maps the probe to dimension {f_probe.dim} and mu to {f_mu.dim}\")\n"
    "        picks, moved = _nearest(f_mu.points, f_probe.points)\n"
    "        nearest, near_dist = _nearest(f_probe.points, f_mu.points)\n"
    "        # the probe's own image is the one atom no atom of f(mu) picks, whatever its weight\n"
    "        unpicked = np.ones(f_probe.n, dtype=bool)\n"
    "        unpicked[picks] = False\n"
    "        clearance = near_dist[unpicked]\n"
    "        r_eff = r\n"
    "        if clearance.size == 1 and clearance[0] < r:\n"
    "            r_eff = _usable_radius(clearance[0] / 2.0, spacing)\n"
    "        if np.maximum.reduce(moved) < r_eff / 4.0:\n"
    "            break\n"
    "        eps /= 2.0\n"
    "    else:\n"
    "        raise DisplacementTooLarge(f\"image support moves more than {r_eff / 4.0:.3g} even at eps {eps * 2:.3g}\")\n"
    "    matched = near_dist <= r_eff / 2.0\n"
)


# The body of ``transport._scipy_extension``, which loads one compiled scipy
# module from its file without importing the packages around it.
SCIPY_EXTENSION_BODY = (
    "    module = sys.modules.get(name)\n"
    "    if module is None:\n"
    "        base = os.path.join(os.path.dirname(importlib.util.find_spec(\"scipy\").origin), *name.split(\".\")[1:])\n"
    "        path = next(base + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.exists(base + s))\n"
    "        spec = importlib.util.spec_from_file_location(name, path)\n"
    "        module = importlib.util.module_from_spec(spec)\n"
    "        sys.modules[name] = module\n"
    "        spec.loader.exec_module(module)\n"
    "    return module\n"
)


MUTANTS = (
    Mutant(
        "nearest-last-on-tie",
        "derivative.py",
        "at = block.argmin(axis=1, out=index[lo : lo + rows])",
        "at = index[lo : lo + rows] = block.shape[1] - 1 - block[:, ::-1].argmin(axis=1)",
        (
            "tests/test_derivative.py::TestNearest::test_equals_the_dense_argmin_bitwise",
            "tests/test_derivative.py::TestNearest::test_picks_the_lowest_index_on_a_tie",
        ),
        "the nearest-atom search keeps argmin's lowest index on a tie",
    ),
    Mutant(
        "spacing-without-the-root",
        "derivative.py",
        "    return math.sqrt(least)\n",
        "    return float(least)\n",
        ("tests/test_derivative.py::TestMinSpacing::test_equals_the_upper_triangle_minimum_bitwise",),
        "the spacing walk keeps squares and returns the root of the least one",
    ),
    Mutant(
        "clearance-from-the-wrong-side",
        "derivative.py",
        "clearance = near_dist[unpicked]",
        "clearance = moved[unpicked[: moved.size]]",
        (
            "tests/test_derivative.py::TestExtractG::test_query_image_near_existing_image",
            "tests/test_derivative.py::TestExtractG::test_light_atom_is_not_taken_for_the_probe",
        ),
        "the probe image's clearance is its distance to the nearest atom of f(mu)",
    ),
    Mutant(
        "quotient-divides-by-eps",
        "derivative.py",
        "return float(total) / probe.added",
        "return float(total) / probe.eps",
        ("tests/test_derivative.py::TestExtractG::test_probe_at_an_atom_divides_by_the_added_mass",),
        "the difference quotient divides by the mass actually added",
    ),
    Mutant(
        "leading-sum-by-matmul",
        "attention.py",
        "    terms = np.multiply(A.T[:, :, None], Xt[:, None, :], order=\"C\")\n",
        "    return A @ Xt\n",
        (
            "tests/test_kernel.py::TestBatchIndependence::test_rows_equal_single_row_evaluations_bitwise",
            "tests/test_kernel.py::TestArrayKernel::test_leading_sum_reads_columns_of_any_layout_bitwise",
            "tests/test_kernel.py::TestArrayKernel::test_mlp_rows_add_the_terms_in_order",
        ),
        "each kernel row is bitwise independent of the batch it is evaluated in",
    ),
    Mutant(
        "heads-share-one-probs-buffer",
        "attention.py",
        "probs = [np.empty((m, n)) for _ in params.heads] if weights is not None else None",
        "probs = [np.empty((m, n))] * len(params.heads) if weights is not None else None",
        ("tests/test_kernel.py::TestWorkspace::test_attention_weights_are_per_head_copies",),
        "each head's softmax weights are its own array",
    ),
    Mutant(
        "pooled-product-in-operand-order",
        "attention.py",
        'return np.add.reduce(np.multiply(pts_t[:, None, :], p, order="C"), axis=2)',
        "return np.add.reduce(np.multiply(pts_t[:, None, :], p), axis=2)",
        ("tests/test_kernel.py::TestTwoBodies::test_bodies_are_bitwise_equal",),
        "whole products reduce the pooled values over C-ordered rows, in numpy's pairwise order",
    ),
    Mutant(
        "small-logits-reverse-the-key-dims",
        "attention.py",
        "            p = _leading_sum((_leading_sum(head.q, Xt) * scale).T, keys[h], block)\n",
        "            q = (_leading_sum(head.q, Xt) * scale).T\n"
        "            p = _leading_sum(q[:, ::-1], keys[h][::-1]) if block is None else _leading_sum(q, keys[h], block)\n",
        ("tests/test_kernel.py::TestTwoBodies::test_bodies_are_bitwise_equal",),
        "whole products add the key-dim terms of each logit in order",
    ),
    Mutant(
        "leading-sum-skips-the-width-check",
        "attention.py",
        "    if Xt.shape[0] != A.shape[1]:\n        raise _mismatch(Xt.shape[0], A.shape[1])\n",
        "",
        ("tests/test_cli.py::TestDimensionMismatch::test_input_of_another_dimension_exits_one",),
        "the kernel raises DimensionMismatch on points of another width",
    ),
    Mutant(
        "lone-entry-summed-pairwise",
        "attention.py",
        "    if A.shape[0] * Xt.shape[1] > 1:\n"
        "        return np.add.reduce(terms, axis=0)\n"
        "    return np.add.accumulate(terms, axis=0)[-1]\n",
        "    return np.add.reduce(terms, axis=0)\n",
        (
            "tests/test_kernel.py::TestTwoBodies::test_lone_entries_of_many_terms_are_summed_in_order",
            "tests/test_kernel.py::TestArrayKernel::test_leading_sum_reads_columns_of_any_layout_bitwise",
        ),
        "a contraction with one output entry adds its terms in order, also from 8 terms on",
    ),
    Mutant(
        "blocked-logits-reverse-key-order",
        "attention.py",
        "        np.multiply(A[:, :1], Xt[0], out=out)\n"
        "        for a_j, x_j in zip(A.T[1:], Xt[1:]):\n",
        "        np.multiply(A[:, -1:], Xt[-1], out=out)\n"
        "        for a_j, x_j in zip(A.T[-2::-1], Xt[-2::-1]):\n",
        ("tests/test_kernel.py::TestTwoBodies::test_bodies_are_bitwise_equal",),
        "the scratch form adds the key-dim terms of each logit in order (two terms commute exactly)",
    ),
    Mutant(
        "scratch-rows-unbounded",
        "attention.py",
        "rows = max(1, m if whole else SCRATCH_ENTRIES // n)",
        "rows = max(1, m)",
        ("tests/test_kernel.py::TestWorkspace::test_scratch_is_bounded_for_many_atoms",),
        "the scratch form attends in blocks of at most SCRATCH_ENTRIES // n query rows",
    ),
    Mutant(
        "empty-width-accepted",
        "attention.py",
        "        _count(self.key_dim, 1, DimensionMismatch, \"key_dim must be an integer, got {!r}\", empty)\n"
        "        if any(m.size == 0 for m in matrices):\n",
        "        if False:\n",
        ("tests/test_attention.py::test_empty_widths_raise_dimension_mismatch",),
        "attention with key_dim 0 or a head of d_head 0 is refused when it is built",
    ),
    Mutant(
        "empty-mlp-width-accepted",
        "attention.py",
        "            if any(a.size == 0 for a, _ in self.layers):\n",
        "            if False:\n",
        ("tests/test_attention.py::test_empty_widths_raise_dimension_mismatch",),
        "an MLP with a layer of width 0 is refused when it is built",
    ),
    Mutant(
        "non-finite-mlp-matrix-accepted",
        "attention.py",
        "            if not all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in self.layers):\n",
        "            if False:\n",
        (
            "tests/test_attention.py::test_non_finite_mlp_and_layer_numbers_raise",
            "tests/test_cli.py::TestErrorBranches::test_exits_one_naming_the_error",
        ),
        "an MLP with a non-finite matrix or bias is refused when it is built",
    ),
    Mutant(
        "count-accepts-any-number",
        "measures.py",
        "    if not isinstance(value, (int, numbers.Integral)):  # int first: no slow ABC registry lookup\n",
        "    if False:\n",
        ("tests/test_api_numbers.py::test_bad_number_raises_its_named_error",),
        "a count that is not a Python or numpy integer raises the caller's named error",
    ),
    Mutant(
        "amount-accepts-any-type",
        "measures.py",
        "    if not isinstance(x, (float, numbers.Real)):  # float first, as in _count\n        return np.nan\n",
        "",
        ("tests/test_api_numbers.py::test_bad_number_raises_its_named_error",),
        "an amount or real parameter that is not a real number raises the error an out-of-range value does",
    ),
    Mutant(
        "weights-of-any-shape-flattened",
        "measures.py",
        "    if w.ndim > 1:\n",
        "    if False:\n",
        ("tests/test_measures.py::TestNewDiscrete::test_rejects_weights_that_are_not_one_row",),
        "a measure's weights are one row, never a flattened matrix",
    ),
    Mutant(
        "chain-hands-every-stage-the-input-context",
        "attention.py",
        "    return _relocated(nu, _held_to(stage(nu.points, nu.weights, nu.points), nu.points))\n",
        "    return context\n",
        (
            "tests/test_attention.py::TestComposeDiamond::test_nested_push_calls_each_stage_once",
            "tests/test_kernel.py::TestWorkspace::test_context_collapsing_mid_pass_matches_layer_by_layer_calls",
            "tests/test_kernel.py::TestAgainstPerPointReference::test_forward_measure",
        ),
        "stage k reads the context pushed through stages 0..k-1 (the diamond rule)",
    ),
    Mutant(
        "token-index-skips-the-merge",
        "deep_transformer.py",
        "        atom = merged[atom]\n",
        "        atom = merged[atom] if layer is stack.layers[0] else atom\n",
        (
            "tests/test_kernel.py::TestWorkCount::test_tokens_run_each_layer_once_on_the_atoms",
            "tests/test_kernel.py::TestWorkCount::test_tokens_follow_their_atoms_through_a_collapse",
            "tests/test_kernel.py::TestWorkspace::test_blocked_stack_passes_equal_small_chunks_bitwise",
        ),
        "each token follows its atom through every stage's sort and merge",
    ),
    Mutant(
        "tokens-read-the-input-context",
        "deep_transformer.py",
        "        images = layer_step(layer, nu.points, nu.weights, nu.points)\n",
        "        nu = _with_atoms(next(_chain(stack)._contexts(_empirical(seq))))[0]\n"
        "        images = layer_step(layer, nu.points, nu.weights, nu.points)\n",
        (
            "tests/test_kernel.py::TestWorkCount::test_tokens_run_each_layer_once_on_the_atoms",
            "tests/test_kernel.py::TestWorkspace::test_context_collapsing_mid_pass_matches_layer_by_layer_calls",
            "tests/test_kernel.py::TestWorkspace::test_blocked_stack_passes_equal_small_chunks_bitwise",
        ),
        "token images are the last stage's images of the last context's atoms",
    ),
    Mutant(
        "radius-floor-restored",
        "derivative.py",
        "r_eff = _usable_radius(clearance[0] / 2.0, spacing)",
        "r_eff = max(clearance[0] / 2.0, MIN_PATCH_RADIUS)",
        ("tests/test_derivative.py::TestExtractG::test_query_image_closer_than_the_radius_floor_raises",),
        "a probe image's clearance shrinks the radius with no floor",
    ),
    Mutant(
        "radius-checked-after-the-loop",
        "derivative.py",
        PROBE_LOOP,
        PROBE_LOOP.replace("r = _usable_radius(cap, spacing)", "r = min(cap, spacing / 4.0)").replace(
            "    matched = ", "    _usable_radius(r_eff, spacing)\n    matched = "
        ),
        ("tests/test_derivative.py::TestExtractG::test_close_image_atoms_fail_before_the_first_probe",),
        "the patch radius is settled before the first probe",
    ),
    Mutant(
        "rows-skips-the-width-check",
        "attention.py",
        "        if X.shape[1:] != (self.dim,):  # a 1-d X holds points of dimension 1\n"
        "            raise _mismatch(math.prod(X.shape[1:]), self.dim)\n",
        "",
        (
            "tests/test_attention.py::TestComposeDiamond::test_a_chain_without_stages_checks_the_query_width",
            "tests/test_deep_transformer.py::TestForwardMap::test_empty_stack_rejects_a_query_of_another_dimension",
        ),
        "an in-context map checks the width of its query rows at its entry",
    ),
    Mutant(
        "stage-skips-the-row-count-check",
        "measures.py",
        "    if Y.shape[:1] != X.shape[:1]:\n"
        "        raise rows_error(f\"map returned shape {Y.shape} for {X.shape[0]} atoms\")\n",
        "",
        ("tests/test_attention.py::TestStageShape::test_rows_raise",),
        "a stage that returns another row count raises MapUndefinedAtAtom",
    ),
    Mutant(
        "stage-skips-the-width-check",
        "measures.py",
        "    if Y.shape != X.shape:\n        raise _mismatch(X.shape[1], math.prod(Y.shape[1:]))\n",
        "",
        (
            "tests/test_attention.py::TestStageShape::test_push_raises",
            "tests/test_attention.py::TestStageShape::test_rows_raise",
            "tests/test_attention.py::TestStageShape::test_extraction_through_the_measure_map_raises",
        ),
        "a stage that returns another width raises DimensionMismatch",
    ),
    Mutant(
        "relocate-skips-the-shape-check",
        "measures.py",
        "    if images.ndim != 2 or images.shape[0] != mu.n or not images.shape[1]:\n"
        "        raise MapUndefinedAtAtom(f\"map returned shape {images.shape} for {mu.n} atoms\")\n",
        "",
        (
            "tests/test_measures.py::TestPushForward::test_wrong_row_count_is_domain_error",
            "tests/test_measures.py::TestPushForward::test_images_that_are_not_rows_are_domain_error",
        ),
        "a push needs exactly one row of at least one coordinate per atom",
    ),
    Mutant(
        "field-reshaped-to-the-query",
        "vlasov.py",
        "return _held_to(self.fn(t, points, weights, X), X, DimensionMismatch)",
        "return np.asarray(self.fn(t, points, weights, X), dtype=float).reshape(X.shape)",
        ("tests/test_vlasov.py::TestFieldShape::test_a_field_of_another_shape_raises",),
        "a velocity field must return its query's shape; nothing reshapes it",
    ),
    Mutant(
        "returned-rows-cast-to-float",
        "measures.py",
        "    Y = _floats(Y, rows_error, RETURNED)\n",
        "    Y = np.asarray(Y, dtype=float)\n",
        ("tests/test_api_numbers.py::test_a_map_that_returns_other_than_real_numbers_raises",),
        "rows a caller's map returns are real numbers, refused by name, never cast",
    ),
    Mutant(
        "extract-a-fixed-number-of-coordinates",
        "derivative.py",
        "for ell in range(out_box.dim)]",
        "for ell in range(2)]",
        (
            "tests/test_derivative.py::TestOutputDimension::test_identity_extracts_every_coordinate",
            "tests/test_derivative.py::TestOutputDimension::test_a_map_into_another_dimension_extracts_its_values",
        ),
        "extraction reads the output dimension off f(mu)",
    ),
    Mutant(
        "box-shares-the-callers-corners",
        "measures.py",
        'lo = np.array(_floats(self.lo, LengthMismatch, "box corners must be real numbers"))',
        'lo = _floats(self.lo, LengthMismatch, "box corners must be real numbers")',
        ("tests/test_measures.py::TestOwnership::test_box_copies_the_corners",),
        "a carrier copies the caller's arrays once at its validated edge",
    ),
    Mutant(
        "new-discrete-shares-the-callers-points",
        "measures.py",
        "pts = np.atleast_2d(np.array(_floats(points, ",
        "pts = np.atleast_2d((_floats(points, ",
        ("tests/test_measures.py::TestOwnership::test_new_discrete_copies_points_and_weights",),
        "a carrier copies the caller's arrays once at its validated edge",
    ),
    Mutant(
        "new-tokens-shares-the-callers-tokens",
        "measures.py",
        "toks = np.atleast_2d(np.array(_floats(tokens, ",
        "toks = np.atleast_2d((_floats(tokens, ",
        ("tests/test_measures.py::TestOwnership::test_new_tokens_copies_the_tokens",),
        "a carrier copies the caller's arrays once at its validated edge",
    ),
    Mutant(
        "relocate-skips-the-canonical-form",
        "measures.py",
        "return _canonical(images, mu.weights, box)",
        "return _raw_measure(images, mu.weights, box, True), np.arange(mu.n), np.arange(mu.n - 1)",
        ("tests/test_properties.py::TestCarrierMatchesReference::test_relocate",),
        "relocate returns the canonical form of the moved atoms",
    ),
    Mutant(
        "freeze-left-writeable",
        "measures.py",
        "    out.flags.writeable = False\n",
        "",
        (
            "tests/test_measures.py::TestOwnership::test_box_copies_the_corners",
            "tests/test_measures.py::TestOwnership::test_every_returned_array_is_read_only",
        ),
        "every array a carrier holds is read-only",
    ),
    Mutant(
        "canonicalize-keeps-negative-zero",
        "measures.py",
        "pts = points + 0.0  # -0.0 + 0.0 is +0.0",
        "pts = points",
        ("tests/test_measures.py::TestCanonicalize::test_signed_zero_merges_to_positive_zero",),
        "-0.0 and +0.0 are one point, stored as +0.0",
    ),
    Mutant(
        "distances-left-to-right-beyond-eight",
        "measures.py",
        "        if d < 8:\n            total, rest = _square(A[0], B[0]), 1\n",
        "        if d <= 128:\n            total, rest = _square(A[0], B[0]), 1\n",
        (
            "tests/test_measures.py::TestDistances::test_equals_the_cube_formula_bitwise",
            "tests/test_properties.py::TestDistancesMatchReference::test_bitwise",
        ),
        "distances sum 8 or more squares in numpy's pairwise order",
    ),
    Mutant(
        "distances-tree-reordered",
        "measures.py",
        "            r[0] += r[2]\n            r[4] += r[6]\n            r[0] += r[4]\n",
        "            r[0] += r[4]\n            r[2] += r[6]\n            r[0] += r[2]\n",
        (
            "tests/test_measures.py::TestDistances::test_equals_the_cube_formula_bitwise",
            "tests/test_properties.py::TestDistancesMatchReference::test_bitwise",
        ),
        "the eight partial sums combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))",
    ),
    Mutant(
        "assignment-skips-the-overflow-check",
        "transport.py",
        "    _finite(np.maximum.reduce(dist, axis=None), \"atom distances overflow\")  # the largest; a NaN propagates\n"
        "    rows, cols",
        "    rows, cols",
        ("tests/test_cli.py::TestOverflowingDistances::test_w1_exits_one",),
        "no solver sees an infinite atom distance",
    ),
    Mutant(
        "reach-within-one-side",
        "transport.py",
        "max(xs[-1] - ys[0], ys[-1] - xs[0])",
        "xs[-1] - xs[0]",
        ("tests/test_cli.py::TestOverflowingDistances::test_far_atoms_on_one_side_are_no_overflow",),
        "1-D routes check the distances between the two measures, not within one",
    ),
    Mutant(
        "certify-returns-early",
        "transport.py",
        "    v = np.min(dist - u[:, None], axis=0)\n",
        "    return 0.0\n",
        ("tests/test_transport.py::TestSparseColumns::test_certificate_on_two_by_two",),
        "a transport plan's cost is checked against its dual bound",
    ),
    Mutant(
        "certificate-ignores-the-distance-scale",
        "transport.py",
        "    if gap > MASS_TOL * total * min(1.0, float(np.max(dist))):\n",
        "    if gap > MASS_TOL * total:\n",
        ("tests/test_transport.py::TestCertificateScale::test_tiny_distances_raise_duality_gap",),
        "the certificate's tolerance shrinks with the largest distance",
    ),
    Mutant(
        "matching-skips-the-cost-check",
        "transport.py",
        "    _finite(plan.cost, \"the W1 cost overflows\")\n    return plan\n",
        "    return plan\n",
        ("tests/test_cli.py::TestOverflowingCost::test_w1_exits_one",),
        "no plan with an overflowing cost is returned or written",
    ),
    Mutant(
        "numbers-raise-value-error",
        "serialize.py",
        'raise BadInputFile(f"{what} must be numeric, got {_type_name(value)}")',
        'raise ValueError(f"{what} must be numeric, got {_type_name(value)}")',
        ("tests/test_cli.py::TestBadInputs::test_mistyped_measure_exits_one",),
        "a document value of the wrong JSON type is a BadInputFile, not a bare ValueError",
    ),
    Mutant(
        "load-json-lets-decode-errors-through",
        "serialize.py",
        "        except (ValueError, RecursionError) as exc:",
        "        except OSError as exc:",
        (
            "tests/test_cli.py::TestBadInputs::test_malformed_json_exits_one",
            "tests/test_cli.py::TestBadInputs::test_undecodable_document_exits_one",
        ),
        "a file that is not UTF-8 JSON, or nests too deeply, is a BadInputFile",
    ),
    Mutant(
        "reduced-cost-tolerance-sign",
        "transport.py",
        "REDUCED_COST_TOL = 1e-10",
        "REDUCED_COST_TOL = -1e-10",
        ("tests/test_transport.py::TestSparseColumns::test_only_improving_columns_enter",),
        "a column enters the LP only when its reduced cost is negative",
    ),
    Mutant(
        "lp-solve-at-default-dual-tolerance",
        "transport.py",
        '    "dual_feasibility_tolerance": 1e-10,\n',
        "",
        ("tests/test_transport.py::TestLpAssembly::test_restricted_lps_match_scipy_linprog",),
        "the direct HiGHS solve passes the dual tolerance linprog passed, so it reaches the same vertex",
    ),
    Mutant(
        "solver-imports-scipy-optimize",
        "transport.py",
        SCIPY_EXTENSION_BODY,
        "    return importlib.import_module(name)\n",
        (
            "tests/test_cli.py::TestStartup::test_assignment_route_loads_scipy",
            "tests/test_cli.py::TestStartup::test_lp_route_loads_only_the_highs_binding",
            "tests/test_cli.py::TestStartup::test_depth_limit_loads_only_the_assignment_solver",
            "tests/test_cli.py::TestStartup::test_self_test_loads_only_the_two_solvers",
            "tests/test_transport.py::TestSolverModules::test_scipy_optimize_imported_later_reuses_both_solvers",
        ),
        "the W1 routes load only the compiled solver they call, never the scipy.optimize package",
    ),
    Mutant(
        "count-keeps-its-numpy-dtype",
        "measures.py",
        "    return int(value)\n",
        "    return value\n",
        ("tests/test_api_numbers.py::test_narrow_numpy_counts_act_as_python_ints",),
        "a count is used as a Python int, so steps + 1 and 4 * T do not wrap",
    ),
    Mutant(
        "numbers-refuse-integers-beyond-int64",
        "serialize.py",
        "    if arr.dtype == object and all(type(x) is int or type(x) is float for x in arr.flat):",
        "    if False:",
        ("tests/test_serialize.py::TestJsonDocs::test_integers_beyond_int64_read_as_floats",),
        "a JSON integer beyond int64 is read as a float",
    ),
    Mutant(
        "runner-shares-one-generator",
        "selftest.py",
        "    for name, check in CHECKS:\n        try:\n            check(np.random.default_rng(seed))\n",
        "    rng = np.random.default_rng(seed)\n    for name, check in CHECKS:\n        try:\n            check(rng)\n",
        ("tests/test_cli.py::TestSelfTest::test_each_check_draws_from_its_own_generator",),
        "each self-test check draws from its own generator seeded from --seed",
    ),
    Mutant(
        "arrays-of-any-dtype-accepted",
        "attention.py",
        '        if a.dtype.kind not in "biuf":\n            raise DimensionMismatch(f"{what} must be real, got dtype {a.dtype}")\n',
        "",
        ("tests/test_api_numbers.py::test_bad_number_raises_its_named_error",),
        "attention and MLP parameters of a complex, object or string dtype are refused by name",
    ),
)


def mutate(root: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the package under ``root``."""
    path = root / "incontext" / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def not_failing(mutant: Mutant) -> list[str]:
    """The listed tests that do not fail on the mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, mutant)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *mutant.tests]
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True).stdout
    failed = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return [t for t in mutant.tests if not any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    width = max(len(m.name) for m in chosen)
    survivors = 0
    for mutant in chosen:
        passing = not_failing(mutant)
        survivors += bool(passing)
        verdict = "SURVIVED (passing: " + ", ".join(passing) + ")" if passing else "killed"
        print(f"{mutant.name:<{width}}  {verdict}  [{mutant.guards}]", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
