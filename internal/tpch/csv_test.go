package tpch

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Test-local readers for the CSV files tpchgen writes: TestCSVRoundTrip
// parses what WriteCustomersCSV and WriteOrdersCSV produce. Programs
// read the files with sjclient upload's generic CSV reader instead.

// ReadCustomersCSV parses a table written by WriteCustomersCSV.
func ReadCustomersCSV(r io.Reader) ([]Customer, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("tpch: empty customers CSV")
	}
	out := make([]Customer, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		if len(rec) != 9 {
			return nil, fmt.Errorf("tpch: customers row %d has %d fields, want 9", i+1, len(rec))
		}
		custKey, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("tpch: customers row %d custkey: %w", i+1, err)
		}
		nationKey, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("tpch: customers row %d nationkey: %w", i+1, err)
		}
		bal, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return nil, fmt.Errorf("tpch: customers row %d acctbal: %w", i+1, err)
		}
		out = append(out, Customer{
			CustKey: custKey, Name: rec[1], Address: rec[2],
			NationKey: nationKey, Phone: rec[4], AcctBal: bal,
			MktSegment: rec[6], Comment: rec[7], Selectivity: rec[8],
		})
	}
	return out, nil
}

// ReadOrdersCSV parses a table written by WriteOrdersCSV.
func ReadOrdersCSV(r io.Reader) ([]Order, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("tpch: empty orders CSV")
	}
	out := make([]Order, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		if len(rec) != 10 {
			return nil, fmt.Errorf("tpch: orders row %d has %d fields, want 10", i+1, len(rec))
		}
		orderKey, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("tpch: orders row %d orderkey: %w", i+1, err)
		}
		custKey, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("tpch: orders row %d custkey: %w", i+1, err)
		}
		price, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("tpch: orders row %d totalprice: %w", i+1, err)
		}
		shipPrio, err := strconv.Atoi(rec[7])
		if err != nil {
			return nil, fmt.Errorf("tpch: orders row %d shippriority: %w", i+1, err)
		}
		out = append(out, Order{
			OrderKey: orderKey, CustKey: custKey, OrderStatus: rec[2],
			TotalPrice: price, OrderDate: rec[4], OrderPriority: rec[5],
			Clerk: rec[6], ShipPriority: shipPrio, Comment: rec[8],
			Selectivity: rec[9],
		})
	}
	return out, nil
}
