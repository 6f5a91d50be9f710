package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/tpch"
)

// contactsPerCustomer is the fan-out of the derived Contacts table.
const contactsPerCustomer = 50

// dataset is one generated TPC-H instance as plaintext rows, shaped the
// way cmd/sjsql derives its three tables, plus Contacts. It is all the
// program under test ever receives of the seed, and all the oracle
// joins over.
type dataset struct {
	tables map[string][]engine.PlainRow
}

func generate(scale float64, seed int64) *dataset {
	ds := tpch.Generate(scale, seed)
	customers := make([]engine.PlainRow, len(ds.Customers))
	profiles := make([]engine.PlainRow, len(ds.Customers))
	var contacts []engine.PlainRow
	for i, c := range ds.Customers {
		customers[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("%s (%s)", c.Name, c.MktSegment)),
		}
		profiles[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("profile %d: %s, %s", c.CustKey, c.Phone, c.Address)),
		}
		// contactsPerCustomer rows per customer: joined with Orders
		// they multiply the result, so a join over few encrypted rows
		// still returns many, and exactly as many for every seed.
		for k := 0; k < contactsPerCustomer; k++ {
			contacts = append(contacts, engine.PlainRow{
				JoinValue: tpch.CustomerJoinValue(c),
				Attrs:     [][]byte{[]byte(c.Selectivity)},
				Payload:   []byte(fmt.Sprintf("contact %d of %s: %s", k, c.Name, c.Phone)),
			})
		}
	}
	orders := make([]engine.PlainRow, len(ds.Orders))
	for i, o := range ds.Orders {
		orders[i] = engine.PlainRow{
			JoinValue: tpch.OrderJoinValue(o),
			Attrs:     [][]byte{[]byte(o.Selectivity)},
			Payload:   []byte(fmt.Sprintf("order %d ($%.2f, %s)", o.OrderKey, o.TotalPrice, o.OrderDate)),
		}
	}
	return &dataset{tables: map[string][]engine.PlainRow{
		"Customers": customers, "Orders": orders, "Profiles": profiles, "Contacts": contacts,
	}}
}

// query is the plaintext description of one equi-join on custkey. The
// oracle evaluates it from these fields; the program under test gets
// the SQL text, or the tables and selections for the non-SQL entry
// points. The two must describe the same query.
type query struct {
	sql    string
	tables []string            // FROM order, which is the result column order
	in     map[string][]string // table -> admissible selectivity values; absent = unrestricted
	// keyOnly marks an explicit SELECT list of join keys: result rows
	// carry row numbers and no payloads.
	keyOnly bool
}

// selection renders a table's IN clause as the Secure Join selection
// the non-SQL client entry points take.
func (q query) selection(table string) securejoin.Selection {
	values := q.in[table]
	if len(values) == 0 {
		return nil
	}
	vs := make([][]byte, len(values))
	for i, v := range values {
		vs[i] = []byte(v)
	}
	return securejoin.Selection{0: vs}
}

// joinAll is the unrestricted two-table join over every payload.
func joinAll(a, b string) query {
	return query{
		sql:    fmt.Sprintf("SELECT * FROM %s JOIN %s ON %s.custkey = %s.custkey", a, b, a, b),
		tables: []string{a, b},
	}
}

// resultAcc accumulates a result set as a row count and an
// order-independent digest over row numbers and opened payloads.
type resultAcc struct {
	rows   int
	digest uint64
}

func (a *resultAcc) add(rows []int, payloads [][]byte) {
	h := fnv.New64a()
	var buf [8]byte
	for i, r := range rows {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(r)))
		h.Write(buf[:])
		// A nil payload (key-only column) must not collide with an
		// empty one.
		n := int64(-1)
		if payloads[i] != nil {
			n = int64(len(payloads[i]))
		}
		binary.BigEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
		h.Write(payloads[i])
	}
	a.rows++
	a.digest += h.Sum64()
}

// matches reports whether a row passes a table's IN clause.
func matches(r engine.PlainRow, in []string) bool {
	if len(in) == 0 {
		return true
	}
	for _, v := range in {
		if bytes.Equal(r.Attrs[0], []byte(v)) {
			return true
		}
	}
	return false
}

// expect is the plaintext oracle: a nested-loop equi-join with IN-clause
// filtering, one loop per table of the query.
func (d *dataset) expect(q query) resultAcc {
	var acc resultAcc
	rows := make([]int, len(q.tables))
	payloads := make([][]byte, len(q.tables))
	var loop func(depth int, key []byte)
	loop = func(depth int, key []byte) {
		if depth == len(q.tables) {
			acc.add(rows, payloads)
			return
		}
		name := q.tables[depth]
		for i, r := range d.tables[name] {
			if !matches(r, q.in[name]) || (depth > 0 && !bytes.Equal(r.JoinValue, key)) {
				continue
			}
			rows[depth], payloads[depth] = i, r.Payload
			if q.keyOnly {
				payloads[depth] = nil
			}
			loop(depth+1, r.JoinValue)
		}
	}
	loop(0, nil)
	return acc
}

// sigma is |sigma(q)| of one pairwise join as the paper defines it: the
// equality pairs, across and within the two tables, among the rows that
// satisfy the selections. It is the most a server may learn from the
// step; semi-join candidate lists can only shrink it.
func (d *dataset) sigma(q query, left, right string) int {
	pairs := 0
	l, r := d.tables[left], d.tables[right]
	same := func(a, b engine.PlainRow) bool { return bytes.Equal(a.JoinValue, b.JoinValue) }
	for i, a := range l {
		if !matches(a, q.in[left]) {
			continue
		}
		for _, b := range l[i+1:] {
			if matches(b, q.in[left]) && same(a, b) {
				pairs++
			}
		}
		for _, b := range r {
			if matches(b, q.in[right]) && same(a, b) {
				pairs++
			}
		}
	}
	for i, a := range r {
		if !matches(a, q.in[right]) {
			continue
		}
		for _, b := range r[i+1:] {
			if matches(b, q.in[right]) && same(a, b) {
				pairs++
			}
		}
	}
	return pairs
}

// plainBytes is the user data of a table: join values, attributes and
// payloads, the base of the storage-overhead ratio.
func plainBytes(rows []engine.PlainRow) int {
	n := 0
	for _, r := range rows {
		n += len(r.JoinValue) + len(r.Payload)
		for _, a := range r.Attrs {
			n += len(a)
		}
	}
	return n
}
