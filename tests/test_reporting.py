"""Tests for record rendering, witness documents and the region map."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerfan import (DomainError, Eos, Nonuniq, RegionCell, RiemannData,
                      WaveKind, classify, parse_region_map_csv, parse_witness,
                      read_witness, region_map_csv, region_map_sweep,
                      reconstruct, threshold_table, verify_subsolution,
                      witness_document, write_witness)
from eulerfan.reporting import (CSV_COLUMNS, classification_record, fmt,
                                quantize, render_record, threshold_record,
                                threshold_table_record, verification_record)

GAMMA2 = Eos(2.0)
GOLDEN = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
positive = st.floats(min_value=1e-6, max_value=1e9)

cell_strategy = st.builds(
    RegionCell,
    rho_plus=positive,
    v_plus2=finite,
    wave_kind=st.none() | st.sampled_from(list(WaveKind)),
    nonuniq=st.sampled_from(list(Nonuniq)),
    V_local=st.none() | positive,
)


class TestQuantize:
    @given(x=st.floats(allow_nan=False))
    def test_idempotent(self, x):
        assert quantize(quantize(x)) == quantize(x)

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_nine_digit_relative_accuracy(self, x):
        assert quantize(x) == pytest.approx(x, rel=5e-9, abs=5e-310)

    def test_fmt_examples(self):
        assert fmt(3.3541019662496847) == "3.35410197"
        assert fmt(1.0) == "1"
        assert fmt(-0.25) == "-0.25"


class TestRenderRecord:
    def test_infinities_become_strings(self):
        out = render_record({"up": math.inf, "down": -math.inf})
        doc = json.loads(out)
        assert doc == {"up": "inf", "down": "-inf"}

    def test_enums_use_pinned_values(self):
        out = render_record({"kind": WaveKind.TWO_SHOCKS,
                             "tag": Nonuniq.SUBSOLUTION_FOUND})
        doc = json.loads(out)
        assert doc == {"kind": "Case3_TwoShocks", "tag": "SubsolutionFound"}

    def test_floats_are_quantized(self):
        out = render_record({"x": 3.3541019662496847})
        assert json.loads(out)["x"] == 3.35410197

    def test_classification_record_shape(self):
        fan = classify(GOLDEN)
        record = classification_record(GOLDEN, fan)
        assert record["kind"] is WaveKind.SHOCK_RAREFACTION
        assert set(record["speeds"]) == {"left", "right"}
        assert record["middle"]["rho"] == pytest.approx(3.96895895, rel=1e-8)
        vac = RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, 9.0), GAMMA2)
        vac_record = classification_record(vac, classify(vac))
        assert vac_record["middle"] is None
        assert vac_record["kind"] is WaveKind.VACUUM

    def test_threshold_records(self):
        rows = threshold_table(1.0, 4.0, GAMMA2, [-1.0, 0.0, 1.0])
        table = threshold_table_record(rows)
        assert [r["v_plus2"] for r in table["rows"]] == [-1.0, 0.0, 1.0]
        assert table["V_nondecreasing_in_v_plus2"] is True
        single = threshold_table_record(rows[:1])
        assert single["V_nondecreasing_in_v_plus2"] is None
        one = threshold_record(rows[1].result)
        assert one["V"] == pytest.approx(2.69, abs=0.05)
        assert one["probes"] == len(rows[1].result.feasible_probe)

    def test_verification_record_round_trip(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        report = verify_subsolution(GOLDEN, sub)
        record = verification_record(report)
        assert record["passed"] is True
        assert record["max_equality_residual"] == report.max_equality_residual
        assert set(record["equality_residuals"]) == set(
            report.equality_residuals)


class TestWitnessDocuments:
    def test_write_read_round_trip(self, tmp_path):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        path = tmp_path / "witness.json"
        write_witness(path, GOLDEN, sub)
        data_back, sub_back = read_witness(path)
        assert data_back == GOLDEN
        # Stored fields survive exactly; the two slack variables are
        # recomputed from their defining identities at parse time.
        for name in ("nu_minus", "nu_plus", "rho_1", "alpha", "beta",
                     "gamma_1", "gamma_2", "C"):
            assert getattr(sub_back, name) == getattr(sub, name), name
        assert sub_back.eps_1 == pytest.approx(sub.eps_1, rel=1e-12)
        assert sub_back.eps_2 == pytest.approx(sub.eps_2, rel=1e-12)
        assert verify_subsolution(data_back, sub_back).passed

    def test_document_is_full_precision(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        doc = witness_document(GOLDEN, sub)
        assert doc["beta"] == sub.beta
        assert doc["beta"] != quantize(sub.beta)

    def test_missing_keys_are_named(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        doc = witness_document(GOLDEN, sub)
        del doc["beta"], doc["C"]
        with pytest.raises(DomainError, match="beta, C"):
            parse_witness(doc)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(DomainError, match="JSON object"):
            read_witness(path)

    def test_tampered_document_fails_verification(self, tmp_path):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        path = tmp_path / "witness.json"
        write_witness(path, GOLDEN, sub)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["beta"] += 1e-3
        data_back, sub_back = parse_witness(doc)
        assert not verify_subsolution(data_back, sub_back).passed

    @pytest.mark.parametrize("name, value, message", [
        ("gamma_2", math.nan, "gamma_2 must be finite"),
        ("alpha", math.inf, "alpha must be finite"),
        ("rho_1", math.nan, "rho_1 must be positive and finite"),
        ("C", "many", "C must be a number"),
    ])
    def test_bad_numbers_rejected(self, name, value, message):
        doc = witness_document(GOLDEN, reconstruct(GOLDEN, 2.0, 1.0, 0.0))
        doc[name] = value
        with pytest.raises(DomainError, match=message):
            parse_witness(doc)

    @pytest.mark.parametrize("name", ["v_minus", "v_plus"])
    @pytest.mark.parametrize("value, message", [
        (["a", 3.3], r"\[0\] must be a number"),
        ([0.0, math.nan], r"\[1\] must be finite"),
        (3.3, " must be a list"),
        ([1, 2, 3], " must be a finite velocity pair"),
    ])
    def test_malformed_velocities_rejected(self, name, value, message):
        doc = witness_document(GOLDEN, reconstruct(GOLDEN, 2.0, 1.0, 0.0))
        doc[name] = value
        with pytest.raises(DomainError, match=name + message):
            parse_witness(doc)


class TestRegionMapCsv:
    @given(cells=st.lists(cell_strategy, max_size=24))
    def test_round_trip_is_stable(self, cells):
        text = region_map_csv(cells)
        parsed = parse_region_map_csv(text)
        assert region_map_csv(parsed) == text
        for cell, back in zip(cells, parsed):
            assert back.rho_plus == quantize(cell.rho_plus)
            assert back.wave_kind == cell.wave_kind
            assert back.nonuniq == cell.nonuniq

    def test_none_fields_serialize_empty(self):
        cell = RegionCell(rho_plus=4.0, v_plus2=0.0, wave_kind=None,
                          nonuniq=Nonuniq.NOT_APPLICABLE, V_local=None)
        lines = region_map_csv([cell]).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "4,0,,NotApplicable,"

    def test_header_is_required(self):
        with pytest.raises(DomainError, match="header"):
            parse_region_map_csv("not,a,header,line,x\n1,2,,NotFound,\n")

    def test_malformed_row_rejected(self):
        text = region_map_csv([]) + "1,2,Case3_TwoShocks\n"
        with pytest.raises(DomainError, match="malformed"):
            parse_region_map_csv(text)

    @pytest.mark.parametrize("row, column", [
        ("abc,0,,NotFound,", "rho_plus"),
        ("1,0,Bogus,NotFound,", "wave_kind"),
        ("1,0,,Maybe,", "nonuniq"),
        ("1,0,,NotFound,x", "V_local"),
        ("nan,0,,NotFound,", "rho_plus"),
    ])
    def test_bad_field_names_row_and_column(self, row, column):
        text = region_map_csv([]) + "1,0,,NotFound,\n" + row + "\n"
        with pytest.raises(DomainError, match=f"row 2, column {column}: invalid value"):
            parse_region_map_csv(text)


class TestRegionMapSweep:
    def test_grid_is_row_major(self):
        cells = region_map_sweep(1.0, 3.3, GAMMA2, (3.8, 4.2, 10),
                                 (-0.2, 0.2, 10))
        assert len(cells) == 100
        assert [c.rho_plus for c in cells[:10]] == [pytest.approx(3.8)] * 10
        assert cells[0].v_plus2 == pytest.approx(-0.2)
        assert cells[9].v_plus2 == pytest.approx(0.2)
        assert cells[10].rho_plus > cells[9].rho_plus

    def test_golden_cell_finds_subsolution(self):
        cells = region_map_sweep(1.0, 3.3, GAMMA2, (3.9, 4.0, 2), (0.0, 0.1, 2))
        golden = [c for c in cells
                  if c.rho_plus == 4.0 and c.v_plus2 == 0.0]
        assert len(golden) == 1
        assert golden[0].wave_kind is WaveKind.SHOCK_RAREFACTION
        assert golden[0].nonuniq is Nonuniq.SUBSOLUTION_FOUND
        assert golden[0].error is None

    def test_two_shock_cells_skip_the_search(self):
        cells = region_map_sweep(1.0, 3.6, GAMMA2, (4.0, 4.0001, 2),
                                 (0.0, 0.01, 2))
        for cell in cells:
            assert cell.wave_kind is WaveKind.TWO_SHOCKS
            assert cell.nonuniq is Nonuniq.TWO_SHOCK_KNOWN

    def test_weak_gap_cells_report_not_found(self):
        cells = region_map_sweep(1.0, 3.3, GAMMA2, (3.9, 4.1, 2), (1.0, 1.1, 2))
        for cell in cells:
            assert cell.wave_kind is WaveKind.SHOCK_RAREFACTION
            assert cell.nonuniq is Nonuniq.NOT_FOUND

    def test_inapplicable_kinds_are_tagged(self):
        cells = region_map_sweep(1.0, 0.0, GAMMA2, (1.0, 4.0, 2), (3.0, 10.0, 2))
        kinds = {c.wave_kind for c in cells}
        assert WaveKind.TWO_RAREFACTIONS in kinds
        assert WaveKind.VACUUM in kinds
        for cell in cells:
            assert cell.nonuniq is Nonuniq.NOT_APPLICABLE

    def test_cell_errors_do_not_stop_the_sweep(self):
        # gamma = 1 with a huge receding gap drives the middle density
        # below the bracket floor; that cell records the failure and
        # the rest of the sweep still classifies.
        cells = region_map_sweep(1.0, 0.0, Eos(1.0), (1.0, 2.0, 2),
                                 (0.0, 80.0, 2))
        blown = [c for c in cells if c.error is not None]
        fine = [c for c in cells if c.error is None]
        assert blown and fine
        for cell in blown:
            assert cell.wave_kind is None
            assert cell.nonuniq is Nonuniq.NOT_APPLICABLE
            assert "bracket" in cell.error

    def test_with_threshold_fills_v_local(self):
        cells = region_map_sweep(1.0, 3.3, GAMMA2, (1.0, 4.0, 2), (0.0, 0.1, 2),
                                 with_threshold=True)
        same_density = [c for c in cells if c.rho_plus == 1.0]
        other = [c for c in cells if c.rho_plus == 4.0]
        assert all(c.V_local is None for c in same_density)
        assert all(c.V_local is not None for c in other)
        for cell in other:
            assert 0.0 < cell.V_local < math.sqrt(45.0 / 4.0)

    def test_with_threshold_records_cell_errors(self):
        # At a density ratio of 1e3 the threshold's first-slack
        # cross-check fails in every cell; each cell keeps the message
        # and no V_local.
        cells = region_map_sweep(1e3, 0.0, Eos(1.4), (1.0, 2.0, 2), (0.0, 1.0, 2),
                                 with_threshold=True)
        assert len(cells) == 4
        for cell in cells:
            assert cell.V_local is None
            assert cell.error.startswith("first-slack cross-check failed")

    def test_rejects_degenerate_grids(self):
        with pytest.raises(DomainError, match="at least 2"):
            region_map_sweep(1.0, 3.3, GAMMA2, (4.0, 4.0, 1), (0.0, 1.0, 2))
        with pytest.raises(DomainError, match="positive"):
            region_map_sweep(1.0, 3.3, GAMMA2, (-1.0, 4.0, 2), (0.0, 1.0, 2))

    @pytest.mark.parametrize("rho_plus_range, v_plus2_range", [
        ((math.nan, 6.0, 3), (0.0, 1.0, 2)),
        ((1.0, 6.0, 3), (0.0, math.nan, 2)),
        ((1.0, math.inf, 3), (0.0, 1.0, 2)),
        ((1.0, 6.0, math.nan), (0.0, 1.0, 2)),
    ])
    def test_rejects_non_finite_grids(self, rho_plus_range, v_plus2_range):
        with pytest.raises(DomainError, match="finite"):
            region_map_sweep(1.0, 3.3, GAMMA2, rho_plus_range, v_plus2_range)

    @pytest.mark.parametrize("rho_plus_range, v_plus2_range", [
        ((1.0, 4.0, 2.9), (0.0, 1.0, 2)),
        ((1.0, 4.0, 2), (0.0, 1.0, 3.5)),
    ])
    def test_rejects_non_integer_sizes(self, rho_plus_range, v_plus2_range):
        with pytest.raises(DomainError, match="whole numbers"):
            region_map_sweep(1.0, 3.3, GAMMA2, rho_plus_range, v_plus2_range)
