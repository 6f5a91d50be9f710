package tpch

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCustomersCSV writes the Customers table with a header row.
func WriteCustomersCSV(w io.Writer, customers []Customer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"custkey", "name", "address", "nationkey", "phone",
		"acctbal", "mktsegment", "comment", "selectivity",
	}); err != nil {
		return err
	}
	for _, c := range customers {
		rec := []string{
			strconv.Itoa(c.CustKey), c.Name, c.Address,
			strconv.Itoa(c.NationKey), c.Phone,
			strconv.FormatFloat(c.AcctBal, 'f', 2, 64),
			c.MktSegment, c.Comment, c.Selectivity,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteOrdersCSV writes the Orders table with a header row.
func WriteOrdersCSV(w io.Writer, orders []Order) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"orderkey", "custkey", "orderstatus", "totalprice", "orderdate",
		"orderpriority", "clerk", "shippriority", "comment", "selectivity",
	}); err != nil {
		return err
	}
	for _, o := range orders {
		rec := []string{
			strconv.Itoa(o.OrderKey), strconv.Itoa(o.CustKey), o.OrderStatus,
			strconv.FormatFloat(o.TotalPrice, 'f', 2, 64), o.OrderDate,
			o.OrderPriority, o.Clerk, strconv.Itoa(o.ShipPriority),
			o.Comment, o.Selectivity,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
