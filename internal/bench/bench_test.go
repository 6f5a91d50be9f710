package bench

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/tpch"
)

func TestMeasureCryptoOps(t *testing.T) {
	// Each op is the median of five repetitions: one repetition whose
	// thread was descheduled cannot flip the ordering check below.
	r, err := MeasureCryptoOps(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.INClauseSize != 2 {
		t.Fatalf("IN clause size = %d", r.INClauseSize)
	}
	if r.TokenGen <= 0 || r.Encrypt <= 0 || r.Decrypt <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	// The paper's Figure 2 ordering: decryption dominates encryption.
	if r.Decrypt < r.Encrypt {
		t.Errorf("expected Decrypt >= Encrypt, got %v < %v", r.Decrypt, r.Encrypt)
	}
}

// TestWorkloadJoinCounts checks the figure harness against plaintext:
// per selectivity class the prefiltered join, the full scan and the
// Hahn baseline all return the plaintext join's count, and the
// prefiltered run puts exactly the selection-matching rows through
// SJ.Dec while the full scan decrypts every row of both tables — the
// property that makes Figure 3's slope ordering hold.
func TestWorkloadJoinCounts(t *testing.T) {
	// Seed 7 gives the 1/12.5 class two matching orders at this scale,
	// so the match comparison is not 0 == 0 throughout.
	const scale, seed = 0.0001, 7
	w, err := BuildWorkload(scale, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	w.srv.Instrument(reg)
	decrypted := reg.Get("sj_rows_decrypted_total").(*metrics.Counter)
	allRows := uint64(len(w.Dataset.Customers) + len(w.Dataset.Orders))

	custLabel := make(map[int]string, len(w.Dataset.Customers))
	for _, c := range w.Dataset.Customers {
		custLabel[c.CustKey] = c.Selectivity
	}
	total := 0
	for _, class := range tpch.Selectivities {
		// The plaintext join: an order matches when it and its customer
		// both carry the class label.
		var selected uint64
		want := 0
		for _, l := range custLabel {
			if l == class.Label {
				selected++
			}
		}
		for _, o := range w.Dataset.Orders {
			if o.Selectivity != class.Label {
				continue
			}
			selected++
			if custLabel[o.CustKey] == class.Label {
				want++
			}
		}
		total += want

		sel := Selection(class.Label, 1)
		mark := decrypted.Value()
		pre, err := w.RunJoin(sel, true)
		if err != nil {
			t.Fatal(err)
		}
		preDec := decrypted.Value() - mark
		mark = decrypted.Value()
		full, err := w.RunJoin(sel, false)
		if err != nil {
			t.Fatal(err)
		}
		fullDec := decrypted.Value() - mark
		// A fresh Hahn server per class: its unwrapped tags persist
		// across queries, so a reused one would also count the earlier
		// classes' matches.
		hw, err := BuildHahnWorkload(scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		hahn := hw.RunServerJoin(class.Label)

		if pre.Matches != want || full.Matches != want || hahn.Matches != want {
			t.Errorf("%s: matches prefiltered %d, full scan %d, Hahn %d; plaintext join has %d",
				class.Label, pre.Matches, full.Matches, hahn.Matches, want)
		}
		if pre.RevealedPairs != full.RevealedPairs {
			t.Errorf("%s: prefiltered run revealed %d pairs, full scan %d; sigma(q) must not depend on the pre-filter",
				class.Label, pre.RevealedPairs, full.RevealedPairs)
		}
		if preDec != selected || uint64(pre.RowsDecrypted) != selected {
			t.Errorf("%s: prefiltered run decrypted %d rows (RowsDecrypted %d), want the %d selection-matching rows",
				class.Label, preDec, pre.RowsDecrypted, selected)
		}
		if fullDec != allRows {
			t.Errorf("%s: full scan decrypted %d rows, want all %d", class.Label, fullDec, allRows)
		}
	}
	if total == 0 {
		t.Error("no class has a plaintext match: the comparison checked nothing")
	}
}

func TestSelectionPadding(t *testing.T) {
	sel := Selection(tpch.Sel100, 5)
	values := sel[0]
	if len(values) != 5 {
		t.Fatalf("IN clause size = %d, want 5", len(values))
	}
	if string(values[0]) != tpch.Sel100 {
		t.Fatalf("first value = %q", values[0])
	}
	// Padding values must be distinct from each other and the label.
	seen := map[string]bool{}
	for _, v := range values {
		if seen[string(v)] {
			t.Fatalf("duplicate IN value %q", v)
		}
		seen[string(v)] = true
	}
}
