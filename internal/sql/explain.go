package sql

import (
	"fmt"
	"strings"
)

// Describe renders the plan the way EXPLAIN prints it. A single-join
// plan keeps the historical two-side rendering; a multi-join plan
// renders the operator tree: the chosen join order (and what drove
// it), each pairwise encrypted join step with its per-side
// Scan/Prefilter decision, the stitch table of every bind step, and
// the leakage consequence of the choices. The output
// is deterministic (predicates are listed in sorted column order) and
// pinned by golden-file tests.
func (p *Plan) Describe() string {
	var b strings.Builder
	if len(p.Steps) <= 1 {
		switch p.Strategy {
		case Prefiltered:
			fmt.Fprintf(&b, "plan: prefiltered (SSE candidate selection, SJ.Dec over candidates)\n")
		default:
			fmt.Fprintf(&b, "plan: full scan (SJ.Dec over every row)\n")
		}
		describeSide(&b, "A", &p.Steps[0].Left, "")
		describeSide(&b, "B", &p.Steps[0].Right, "")
		describePlanCache(&b, p)
		if p.Strategy == Prefiltered {
			fmt.Fprintf(&b, "leakage: server additionally learns the rows matching each predicate value (SSE access pattern)\n")
		} else {
			fmt.Fprintf(&b, "leakage: the paper's exact profile (equality pairs among selected rows only)\n")
		}
		return b.String()
	}

	fmt.Fprintf(&b, "plan: %d-table join, %d pairwise encrypted step(s), left-deep\n", len(p.Tables), len(p.Steps))
	order := make([]string, 0, len(p.Tables))
	for i, st := range p.Steps {
		if i == 0 {
			order = append(order, st.Left.Table)
		}
		order = append(order, st.Right.Table)
	}
	fmt.Fprintf(&b, "join order: %s — %s\n", strings.Join(order, ", "), p.OrderReason)
	for i, st := range p.Steps {
		fmt.Fprintf(&b, "step %d: %s JOIN %s [%s]", i+1, st.Left.Table, st.Right.Table, st.Strategy)
		if st.Stitch {
			fmt.Fprintf(&b, " (stitch on %s rows, client-side)", st.Left.Table)
		}
		b.WriteByte('\n')
		if st.SemiJoin {
			// The candidate count is runtime data (the previous step's
			// matches), so EXPLAIN names the source step, not a number.
			fmt.Fprintf(&b, "  semi-join: candidates from step %d — SJ.Dec only over %s rows the previous step matched\n", i, st.Left.Table)
		}
		describeSide(&b, "A", &st.Left, "  ")
		describeSide(&b, "B", &st.Right, "  ")
	}
	describePlanCache(&b, p)
	if p.Strategy == Prefiltered {
		fmt.Fprintf(&b, "leakage: per pairwise join sigma(q), plus SSE access pattern on prefiltered sides; stitch keys stay client-side\n")
	} else {
		fmt.Fprintf(&b, "leakage: per pairwise join sigma(q) (equality pairs among selected rows); stitch keys stay client-side\n")
	}
	return b.String()
}

// describePlanCache renders whether this plan came from the plan cache.
func describePlanCache(b *strings.Builder, p *Plan) {
	if p.Cached {
		fmt.Fprintf(b, "plan cache: hit\n")
	} else {
		fmt.Fprintf(b, "plan cache: miss\n")
	}
}

func describeSide(b *strings.Builder, label string, sp *SidePlan, indent string) {
	indexed := "not indexed"
	if sp.Indexed {
		indexed = "indexed"
	}
	if sp.RowCount > 0 {
		fmt.Fprintf(b, "%sside %s: %s [%s, %d rows]\n", indent, label, sp.Table, indexed, sp.RowCount)
	} else {
		fmt.Fprintf(b, "%sside %s: %s [%s]\n", indent, label, sp.Table, indexed)
	}
	if len(sp.Preds) == 0 {
		fmt.Fprintf(b, "%s  predicates: none\n", indent)
	} else {
		parts := make([]string, len(sp.Preds))
		for i, pr := range sp.Preds {
			parts[i] = fmt.Sprintf("%s (%d value(s))", pr.Column, pr.Values)
		}
		fmt.Fprintf(b, "%s  predicates: %s\n", indent, strings.Join(parts, ", "))
	}
	if sp.SkipPayload {
		fmt.Fprintf(b, "%s  projection: key-only (payloads not shipped or decrypted)\n", indent)
	}
	if sp.Prefilter {
		if sp.EstRows >= 0 {
			fmt.Fprintf(b, "%s  -> prefiltered, %d SSE token(s), est. %d candidate row(s)\n", indent, sp.Tokens(), sp.EstRows)
		} else {
			fmt.Fprintf(b, "%s  -> prefiltered, %d SSE token(s)\n", indent, sp.Tokens())
		}
	} else {
		fmt.Fprintf(b, "%s  -> full scan (%s)\n", indent, sp.Reason)
	}
}
