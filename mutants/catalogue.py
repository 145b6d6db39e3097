"""Recorded mutants: faults that the named tests must catch.

Each entry is (name, file, old, new, test ids): file is relative to the
repository root, old occurs exactly once in it (tests/test_mutants.py
checks this), and the mutant replaces it with new.  The test ids are
pytest node ids; mutants/run.py requires at least one of them to fail
with the mutant applied.  A mutant that survives stays here, and its
survival is recorded as a FOUND line in CHANGES.md.
"""

QSTATE = "src/tomolin/qstate.py"
HOMODYNE = "src/tomolin/homodyne.py"
PROTOCOLS = "src/tomolin/protocols.py"
BENCH = "src/tomolin/bench.py"

MUTANTS = [
    (
        "gellmann-term-order-reversed", QSTATE,
        "for i, j in zip(rows.tolist(), cols.tolist()):",
        "for i, j in zip(rows.tolist()[::-1], cols.tolist()[::-1]):",
        ["tests/test_qstate.py::TestGellmannTraces::test_state_to_bloch_matches_einsum"],
    ),
    (
        "gellmann-traces-in-complex-buffer", QSTATE,
        "    out = np.zeros(x.shape[:-2] + (d * d - 1,))\n",
        "    out = np.zeros(x.shape[:-2] + (d * d - 1,), dtype=complex).real\n",
        ["tests/test_bench.py::TestHomodyneRunMemory::test_bloch_vectors_own_a_real_buffer"],
    ),
    (
        "one-row-response-by-blas-dot", QSTATE,
        "    terms = detector[:, 1:] * r\n",
        "    if len(detector) == 1:\n        return detector[:, 0] + detector[:, 1:] @ r\n"
        "    terms = detector[:, 1:] * r\n",
        ["tests/test_qstate.py::TestAffineResponse::"
         "test_row_bits_independent_of_row_count_and_layout"],
    ),
    (
        "hs-imaginary-part-drawn-first", QSTATE,
        "    g.real = rng.standard_normal(shape)\n    g.imag = rng.standard_normal(shape)\n",
        "    g.imag = rng.standard_normal(shape)\n    g.real = rng.standard_normal(shape)\n",
        ["tests/test_qstate.py::TestGellmannTraces::test_random_density_hs_matches_complex_sum"],
    ),
    (
        "loss-terms-in-descending-k", HOMODYNE,
        "    for k in range(d_f):\n        c_k = coefficients[k, :d_f - k]\n",
        "    for k in reversed(range(d_f)):\n        c_k = coefficients[k, :d_f - k]\n",
        ["tests/test_homodyne.py::TestHomodyneMeasurement::test_effects_equal_per_outcome_loop"],
    ),
    (
        "coherent-norm-over-last-axis", HOMODYNE,
        "    return c / np.sqrt(sqnorm)\n",
        "    return c / np.linalg.norm(c, axis=-1, keepdims=True)\n",
        ["tests/test_homodyne.py::TestCoherentState::test_batch_rows_equal_scalar_calls"],
    ),
    (
        "laguerre-recursion-reassociated", HOMODYNE,
        "d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d",
        "d = -x * p / (k + alpha + 1) + (k / (k + alpha + 1)) * d",
        ["tests/test_homodyne.py::TestLaguerreKernel::test_equals_scipy_genlaguerre"],
    ),
    (
        "lead-floor-reversed", PROTOCOLS,
        "valid = np.abs(lead) >= LEAD_FLOOR",
        "valid = np.abs(lead) < LEAD_FLOOR",
        ["tests/test_protocols.py::TestEstimateBatch::test_valid_mask_at_the_lead_floor"],
    ),
    (
        "lead-floor-excluded", PROTOCOLS,
        "valid = np.abs(lead) >= LEAD_FLOOR",
        "valid = np.abs(lead) > LEAD_FLOOR",
        ["tests/test_protocols.py::TestEstimateBatch::test_valid_mask_at_the_lead_floor"],
    ),
    (
        "csv-header-not-flushed", BENCH,
        '    csv.write(CSV_HEADER + "\\n")\n    csv.flush()\n',
        '    csv.write(CSV_HEADER + "\\n")\n',
        ["tests/test_bench.py::test_killed_run_resumes_to_uninterrupted_bytes[homodyne-wigner-1]",
         "tests/test_bench.py::test_killed_run_resumes_to_uninterrupted_bytes[homodyne-wigner-2]"],
    ),
    (
        "wigner-file-renamed-when-written", BENCH,
        "        _wigner_csv(files.enter_context(_replacing(path)), axis,"
        " _wigner_grid(rho, axis, path))\n",
        "        with _replacing(path) as fh:\n"
        "            _wigner_csv(fh, axis, _wigner_grid(rho, axis, path))\n",
        ["tests/test_bench.py::TestAtomicWrites::test_failed_run_keeps_earlier_files"],
    ),
    (
        "tmp-kept-on-failure", BENCH,
        "            with contextlib.suppress(OSError):\n                os.remove(tmp)\n",
        "            pass\n",
        ["tests/test_bench.py::TestAtomicWrites::"
         "test_interrupted_wigner_export_leaves_no_partial_file"],
    ),
    (
        "lock-not-taken", BENCH,
        "                    os.lockf(fd, os.F_TLOCK, 0)\n",
        "                    pass\n",
        ["tests/test_bench.py::TestAtomicWrites::test_file_another_run_writes_refused",
         "tests/test_bench.py::test_second_run_into_one_out_refused"],
    ),
    (
        "foreign-out-replaced", BENCH,
        '        if not f"{CSV_HEADER}\\n".encode().startswith(head):\n',
        "        if False:\n",
        ["tests/test_bench.py::TestCli::test_foreign_out_refused_untouched"],
    ),
    (
        "blas-threads-not-pinned", BENCH,
        "    set_threads(1)\n",
        "",
        ["tests/test_bench.py::TestRunLayer::test_blas_pinned_during_run_and_restored",
         "tests/test_bench.py::TestCli::test_run_layer_bytes_independent_of_blas_threads"],
    ),
    (
        "csv-values-at-11-digits", BENCH,
        'f"{e2_std:.12e},{e2_pat:.12e},{ratio:.12e}\\n"',
        'f"{e2_std:.11e},{e2_pat:.11e},{ratio:.11e}\\n"',
        ["tests/test_bench.py::TestRowCodec::test_write_rows_has_the_old_format"],
    ),
]
