package sql

import (
	"math/rand"
	"strings"
	"testing"
)

// fuzzCatalog is the populated catalog hostile inputs are planned
// against: indexed and unindexed tables (one with row statistics, one
// without) whose names appear in the fuzz seeds, so mutations
// frequently reach predicate compilation, join ordering and strategy
// selection rather than dying at name resolution.
func fuzzCatalog() *Catalog {
	cat, err := NewCatalog(
		TableSchema{Name: "A", JoinColumn: "k", Attrs: map[string]int{"c": 0, "d": 1}, Indexed: true, RowCount: 100},
		TableSchema{Name: "B", JoinColumn: "k", Attrs: map[string]int{"c": 0, "e": 1}},
		TableSchema{Name: "C", JoinColumn: "k", Attrs: map[string]int{"f": 0}, Indexed: true, RowCount: 7},
	)
	if err != nil {
		panic(err)
	}
	return cat
}

// checkPlanInvariants validates what every successfully planned query
// must satisfy, whatever the input looked like.
func checkPlanInvariants(t testing.TB, input string, plan *Plan) {
	t.Helper()
	if plan == nil {
		t.Fatalf("nil plan without error for %q", input)
	}
	if len(plan.Steps) != len(plan.Tables)-1 {
		t.Fatalf("%d steps for %d tables for %q", len(plan.Steps), len(plan.Tables), input)
	}
	prefiltered := false
	joined := map[string]bool{}
	for i, st := range plan.Steps {
		if (st.Strategy == Prefiltered) != (st.Left.Prefilter || st.Right.Prefilter) {
			t.Fatalf("step %d strategy %v inconsistent with sides %v/%v for %q",
				i, st.Strategy, st.Left.Prefilter, st.Right.Prefilter, input)
		}
		if st.Strategy == Prefiltered {
			prefiltered = true
		}
		if st.Stitch != (i > 0) {
			t.Fatalf("step %d stitch=%v for %q", i, st.Stitch, input)
		}
		if i > 0 && !joined[st.Left.Table] {
			t.Fatalf("step %d stitches on %q, which is not joined yet, for %q", i, st.Left.Table, input)
		}
		if i > 0 && joined[st.Right.Table] {
			t.Fatalf("step %d re-joins %q for %q", i, st.Right.Table, input)
		}
		joined[st.Left.Table] = true
		joined[st.Right.Table] = true
		for _, sp := range []*SidePlan{&st.Left, &st.Right} {
			if sp.Prefilter && (sp.Reason != "" || len(sp.Preds) == 0 || sp.Tokens() == 0) {
				t.Fatalf("prefiltered side %q with reason=%q preds=%v for %q",
					sp.Table, sp.Reason, sp.Preds, input)
			}
			if !sp.Prefilter && sp.Reason == "" {
				t.Fatalf("full-scan side %q without reason for %q", sp.Table, input)
			}
			if sp.Prefilter && sp.EstRows >= 0 && sp.EstRows >= sp.RowCount {
				t.Fatalf("prefiltered side %q despite est. %d of %d rows for %q",
					sp.Table, sp.EstRows, sp.RowCount, input)
			}
		}
	}
	if len(joined) != len(plan.Tables) {
		t.Fatalf("steps join %d tables, FROM names %d, for %q", len(joined), len(plan.Tables), input)
	}
	for _, name := range plan.Tables {
		if !joined[name] {
			t.Fatalf("FROM table %q missing from the chain for %q", name, input)
		}
	}
	if (plan.Strategy == Prefiltered) != prefiltered {
		t.Fatalf("plan strategy %v inconsistent with steps for %q", plan.Strategy, input)
	}
	if plan.Describe() == "" {
		t.Fatalf("empty Describe() for %q", input)
	}
}

// TestParserNeverPanics drives the lexer, parser AND planner with
// mutated and random inputs: every call must return cleanly (a plan or
// an error), never panic — the property that matters for a front end
// fed by remote clients.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c IN ('x', 'y') AND B.d = 'z'`,
		`EXPLAIN SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c = 'x' AND B.c = 'y'`,
		`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND C.f = 'x'`,
		`SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON C.k = B.k`,
		`select * from t1 join t2 on t1.a = t2.b`,
		`SELECT`,
		`'''`,
		`((((`,
		`A.B.C.D = = IN`,
	}
	rng := rand.New(rand.NewSource(99))
	chars := []byte(`SELECTFROMJOINWHEREINANDEXPLAIN*.,()='" abc123`)
	cat := fuzzCatalog()

	tryPlan := func(input string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("front end panicked on %q: %v", input, r)
			}
		}()
		q, err := Parse(input)
		if err != nil {
			return
		}
		plan, err := cat.PlanQuery(q)
		if err != nil {
			return
		}
		checkPlanInvariants(t, input, plan)
	}

	for _, s := range seeds {
		tryPlan(s)
		// Mutations: deletions, swaps, random splices.
		for i := 0; i < 200; i++ {
			b := []byte(s)
			switch rng.Intn(3) {
			case 0: // delete a byte
				if len(b) > 0 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			case 1: // replace a byte
				if len(b) > 0 {
					b[rng.Intn(len(b))] = chars[rng.Intn(len(chars))]
				}
			case 2: // insert a byte
				p := rng.Intn(len(b) + 1)
				b = append(b[:p], append([]byte{chars[rng.Intn(len(chars))]}, b[p:]...)...)
			}
			tryPlan(string(b))
		}
	}

	// Fully random strings.
	for i := 0; i < 500; i++ {
		n := rng.Intn(60)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(chars[rng.Intn(len(chars))])
		}
		tryPlan(sb.String())
	}
}

// FuzzPlanQuery is the native-fuzzing twin of TestParserNeverPanics:
// the corpus seeds under testdata/fuzz/FuzzPlanQuery run on every
// regular `go test`, and `go test -fuzz FuzzPlanQuery` explores from
// them. Panics and invariant violations in Parse/PlanQuery/Describe are
// the targets.
func FuzzPlanQuery(f *testing.F) {
	for _, s := range []string{
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c IN ('x', 'y') AND B.c = 'z'`,
		`EXPLAIN SELECT * FROM A JOIN B ON B.k = A.k WHERE A.d = 'v' AND A.d IN (1, 2.5)`,
		`SELECT * FROM B JOIN A ON B.k = A.k`,
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE B.e = 'it''s'`,
		`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND C.f IN ('x', 'y')`,
		`EXPLAIN SELECT * FROM C JOIN B ON C.k = B.k JOIN A ON A.k = C.k WHERE A.c = 'v'`,
	} {
		f.Add(s)
	}
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		plan, err := cat.PlanQuery(q)
		if err != nil {
			return
		}
		checkPlanInvariants(t, input, plan)
	})
}

// TestLexerTerminates: the lexer must reach EOF or an error on any
// input without looping forever (guard via a generous token budget).
func TestLexerTerminates(t *testing.T) {
	inputs := []string{
		"", " ", "..", "==", "a.b.c", "'open", `"open`, "123.456.789",
		strings.Repeat("x", 10000),
	}
	for _, in := range inputs {
		l := newLexer(in)
		for i := 0; i < len(in)+10; i++ {
			tok, err := l.next()
			if err != nil || tok.kind == tokEOF {
				break
			}
			if i == len(in)+9 {
				t.Fatalf("lexer did not terminate on %q", in)
			}
		}
	}
}
