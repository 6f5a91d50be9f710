package tpch

import (
	"bytes"
	"testing"
)

func TestGenerateRowCounts(t *testing.T) {
	ds := Generate(0.001, 1)
	if len(ds.Customers) != 150 {
		t.Fatalf("customers = %d, want 150", len(ds.Customers))
	}
	if len(ds.Orders) != 1500 {
		t.Fatalf("orders = %d, want 1500", len(ds.Orders))
	}
	// Tiny scale factors still produce at least one row.
	tiny := Generate(0.0000001, 1)
	if len(tiny.Customers) < 1 || len(tiny.Orders) < 1 {
		t.Fatal("degenerate scale factor produced empty tables")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.0005, 42)
	b := Generate(0.0005, 42)
	if len(a.Orders) != len(b.Orders) {
		t.Fatal("row counts differ across runs")
	}
	for i := range a.Orders {
		if a.Orders[i] != b.Orders[i] {
			t.Fatalf("order %d differs across identically-seeded runs", i)
		}
	}
	c := Generate(0.0005, 43)
	same := true
	for i := range a.Orders {
		if a.Orders[i] != c.Orders[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSelectivityProportions(t *testing.T) {
	ds := Generate(0.01, 7) // 1500 customers, 15000 orders
	counts := map[string]int{}
	for _, c := range ds.Customers {
		counts[c.Selectivity]++
	}
	n := len(ds.Customers)
	for _, class := range Selectivities {
		want := int(class.Fraction * float64(n)) // floor(s*n), as selectivityColumn assigns
		if counts[class.Label] != want {
			t.Errorf("class %s: %d rows, want %d", class.Label, counts[class.Label], want)
		}
	}
	// The four classes plus the remainder cover the table.
	total := 0
	for _, v := range counts {
		total += v
	}
	if total != n {
		t.Fatalf("selectivity labels cover %d of %d rows", total, n)
	}
}

func TestForeignKeysInRange(t *testing.T) {
	ds := Generate(0.001, 3)
	nc := len(ds.Customers)
	for _, o := range ds.Orders {
		if o.CustKey < 1 || o.CustKey > nc {
			t.Fatalf("order %d has custkey %d outside [1, %d]", o.OrderKey, o.CustKey, nc)
		}
	}
	// Customer keys are 1..n without gaps.
	for i, c := range ds.Customers {
		if c.CustKey != i+1 {
			t.Fatalf("customer %d has key %d", i, c.CustKey)
		}
	}
}

func TestJoinValueEncoding(t *testing.T) {
	c := Customer{CustKey: 17}
	o := Order{CustKey: 17}
	if !bytes.Equal(CustomerJoinValue(c), OrderJoinValue(o)) {
		t.Fatal("matching keys encode differently")
	}
	if bytes.Equal(CustomerJoinValue(Customer{CustKey: 1}), CustomerJoinValue(Customer{CustKey: 11})) {
		t.Fatal("distinct keys encode identically")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := Generate(0.0002, 5)

	var cbuf bytes.Buffer
	if err := WriteCustomersCSV(&cbuf, ds.Customers); err != nil {
		t.Fatal(err)
	}
	customers, err := ReadCustomersCSV(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(customers) != len(ds.Customers) {
		t.Fatalf("round trip lost rows: %d vs %d", len(customers), len(ds.Customers))
	}
	for i := range customers {
		if customers[i] != ds.Customers[i] {
			t.Fatalf("customer %d differs after round trip", i)
		}
	}

	var obuf bytes.Buffer
	if err := WriteOrdersCSV(&obuf, ds.Orders); err != nil {
		t.Fatal(err)
	}
	orders, err := ReadOrdersCSV(&obuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orders {
		if orders[i] != ds.Orders[i] {
			t.Fatalf("order %d differs after round trip", i)
		}
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	if _, err := ReadCustomersCSV(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty customers CSV accepted")
	}
	bad := "custkey,name,address,nationkey,phone,acctbal,mktsegment,comment,selectivity\nnot-a-number,x,y,0,p,1.0,M,c,none\n"
	if _, err := ReadCustomersCSV(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("malformed custkey accepted")
	}
	short := "orderkey,custkey\n1,2\n"
	if _, err := ReadOrdersCSV(bytes.NewReader([]byte(short))); err == nil {
		t.Fatal("short orders row accepted")
	}
}
