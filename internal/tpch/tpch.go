// Package tpch generates the synthetic TPC-H data the paper evaluates
// on: the Customers table (8 attributes) and the Orders table (9
// attributes), joined on custkey, at configurable scale factors. As in
// Section 6.1, both tables carry an extra "selectivity" column taking
// values {1/12.5, 1/25, 1/50, 1/100}, where value x is assigned to x*n
// of the n rows — so an IN clause selecting a single selectivity value x
// matches exactly the fraction x of each table.
//
// The generator is deterministic for a given seed, making benchmarks and
// tests reproducible without shipping TPC-H's dbgen output.
package tpch

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Standard TPC-H row counts at scale factor 1.0.
const (
	CustomersPerSF = 150_000
	OrdersPerSF    = 1_500_000
)

// Selectivity labels. Each label s is assigned to s*n rows of every
// table; remaining rows receive SelectivityNone.
const (
	Sel12_5 = "1/12.5"
	Sel25   = "1/25"
	Sel50   = "1/50"
	Sel100  = "1/100"
	// SelectivityNone marks rows outside all benchmark selectivity
	// classes.
	SelectivityNone = "none"
)

// Selectivities lists the four benchmark selectivity classes with their
// numeric fractions, in the order the paper's figures sweep them.
var Selectivities = []struct {
	Label    string
	Fraction float64
}{
	{Sel100, 1.0 / 100},
	{Sel50, 1.0 / 50},
	{Sel25, 1.0 / 25},
	{Sel12_5, 1.0 / 12.5},
}

// Customer mirrors the TPC-H Customers schema of Section 6.1 plus the
// selectivity column.
type Customer struct {
	CustKey     int
	Name        string
	Address     string
	NationKey   int
	Phone       string
	AcctBal     float64
	MktSegment  string
	Comment     string
	Selectivity string
}

// Order mirrors the TPC-H Orders schema of Section 6.1 plus the
// selectivity column.
type Order struct {
	OrderKey      int
	CustKey       int
	OrderStatus   string
	TotalPrice    float64
	OrderDate     string
	OrderPriority string
	Clerk         string
	ShipPriority  int
	Comment       string
	Selectivity   string
}

// Dataset holds one generated instance.
type Dataset struct {
	ScaleFactor float64
	Customers   []Customer
	Orders      []Order
}

var (
	mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	statuses    = []string{"F", "O", "P"}
)

// Generate builds a dataset at the given scale factor with a fixed seed.
// Row counts round down but are kept at least 1.
func Generate(scaleFactor float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	nc := max(1, int(float64(CustomersPerSF)*scaleFactor))
	no := max(1, int(float64(OrdersPerSF)*scaleFactor))

	ds := &Dataset{
		ScaleFactor: scaleFactor,
		Customers:   make([]Customer, nc),
		Orders:      make([]Order, no),
	}

	selC := selectivityColumn(nc, rng)
	for i := range ds.Customers {
		key := i + 1
		ds.Customers[i] = Customer{
			CustKey:     key,
			Name:        fmt.Sprintf("Customer#%09d", key),
			Address:     randAddress(rng),
			NationKey:   rng.Intn(25),
			Phone:       randPhone(rng),
			AcctBal:     float64(rng.Intn(1_100_000)-100_000) / 100,
			MktSegment:  mktSegments[rng.Intn(len(mktSegments))],
			Comment:     randComment(rng),
			Selectivity: selC[i],
		}
	}

	selO := selectivityColumn(no, rng)
	for i := range ds.Orders {
		key := i + 1
		ds.Orders[i] = Order{
			OrderKey:      key,
			CustKey:       rng.Intn(nc) + 1,
			OrderStatus:   statuses[rng.Intn(len(statuses))],
			TotalPrice:    float64(rng.Intn(50_000_000)) / 100,
			OrderDate:     randDate(rng),
			OrderPriority: priorities[rng.Intn(len(priorities))],
			Clerk:         fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1),
			ShipPriority:  0,
			Comment:       randComment(rng),
			Selectivity:   selO[i],
		}
	}
	return ds
}

// selectivityColumn builds a shuffled column of n selectivity labels in
// which each class s covers exactly floor(s*n) rows.
func selectivityColumn(n int, rng *rand.Rand) []string {
	col := make([]string, n)
	for i := range col {
		col[i] = SelectivityNone
	}
	pos := 0
	for _, class := range Selectivities {
		count := int(class.Fraction * float64(n))
		for i := 0; i < count && pos < n; i++ {
			col[pos] = class.Label
			pos++
		}
	}
	rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
	return col
}

func randAddress(rng *rand.Rand) string {
	return fmt.Sprintf("%d %s St.", rng.Intn(9000)+100, []string{"Oak", "Pine", "Maple", "Cedar", "Elm"}[rng.Intn(5)])
}

func randPhone(rng *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", rng.Intn(25)+10, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
}

func randDate(rng *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 1992+rng.Intn(7), rng.Intn(12)+1, rng.Intn(28)+1)
}

var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "furiously", "quickly",
	"bold", "accounts", "requests", "ironic", "packages", "regular",
}

func randComment(rng *rand.Rand) string {
	n := rng.Intn(4) + 3
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += commentWords[rng.Intn(len(commentWords))]
	}
	return s
}

// CustomerJoinValue returns the custkey join-column encoding used by the
// encrypted schemes.
func CustomerJoinValue(c Customer) []byte {
	return []byte(strconv.Itoa(c.CustKey))
}

// OrderJoinValue returns the custkey join-column encoding for orders.
func OrderJoinValue(o Order) []byte {
	return []byte(strconv.Itoa(o.CustKey))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
