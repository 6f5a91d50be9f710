package sql

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// TestExplainGolden pins the exact EXPLAIN rendering for the three plan
// shapes: fully prefiltered, full-scan fallback, and a mixed plan where
// only one side carries an index. Regenerate with
//
//	go test ./internal/sql -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name               string
		indexedA, indexedB bool
		query              string
	}{
		{
			name:     "explain_prefiltered",
			indexedA: true, indexedB: true,
			query: `EXPLAIN ` + baseQuery +
				` WHERE Teams.Name = 'Web Application' AND Employees.Role IN ('Tester', 'Programmer')`,
		},
		{
			name:     "explain_fullscan_fallback",
			indexedA: false, indexedB: false,
			query: `EXPLAIN ` + baseQuery +
				` WHERE Teams.Name = 'Web Application' AND Employees.Role = 'Tester'`,
		},
		{
			name:     "explain_mixed_index",
			indexedA: true, indexedB: false,
			query: `EXPLAIN ` + baseQuery +
				` WHERE Teams.Dept = 'Eng' AND Teams.Name IN ('Web Application', 'Database') AND Employees.Role = 'Tester'`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat := planCatalog(t, c.indexedA, c.indexedB)
			checkGolden(t, cat, c.name, c.query)
		})
	}
}

func checkGolden(t *testing.T, cat *Catalog, name, query string) {
	t.Helper()
	plan, err := cat.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Explain {
		t.Fatal("EXPLAIN statement did not set the flag")
	}
	got := plan.Describe()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestExplainGoldenMultiJoin pins the operator-tree rendering: a fully
// statistics-driven 3-way tree and a mixed chain where one table lacks
// both an index and statistics. Regenerate with -update.
func TestExplainGoldenMultiJoin(t *testing.T) {
	t.Run("explain_threeway", func(t *testing.T) {
		cat, err := NewCatalog(
			TableSchema{Name: "Customers", JoinColumn: "custkey", Attrs: map[string]int{"segment": 0}, Indexed: true, RowCount: 150},
			TableSchema{Name: "Orders", JoinColumn: "custkey", Attrs: map[string]int{"priority": 0}, Indexed: true, RowCount: 1500},
			TableSchema{Name: "Profiles", JoinColumn: "custkey", Attrs: map[string]int{"tier": 0}, Indexed: true, RowCount: 150},
		)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, cat, "explain_threeway",
			`EXPLAIN SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey`+
				` JOIN Profiles ON Profiles.custkey = Customers.custkey`+
				` WHERE Customers.segment = 'BUILDING' AND Orders.priority IN ('1-URGENT', '2-HIGH')`)
	})
	t.Run("explain_mixed_chain", func(t *testing.T) {
		cat, err := NewCatalog(
			TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0}, Indexed: true, RowCount: 30},
			TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0}, Indexed: false, RowCount: 400},
			TableSchema{Name: "Badges", JoinColumn: "TeamKey", Attrs: map[string]int{"Color": 0}},
		)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, cat, "explain_mixed_chain",
			`EXPLAIN SELECT * FROM Teams, Employees, Badges`+
				` WHERE Teams.Key = Employees.Team AND Badges.TeamKey = Teams.Key`+
				` AND Teams.Name = 'Web Application' AND Employees.Role = 'Tester' AND Badges.Color IN ('red', 'gold')`)
	})
}
