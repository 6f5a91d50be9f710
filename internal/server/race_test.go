//go:build race

package server

// Every query of the series is a few dozen pairings, and the race
// detector slows those tenfold; flatness shows in a shorter series.
func init() { ledgerSeriesQueries = 100 }
