// Client/server example: runs the DBMS server on a loopback TCP port and
// drives it with the v5 protocol client — the full database-as-a-service
// deployment of Section 2 in one process. The server sees only
// ciphertexts and tokens; all keys stay on the client side of the
// socket. The client is a Cluster of one server, the same client a
// sharded deployment uses. Results stream back in bounded batches, and
// one connection pipelines concurrent queries issued from separate
// goroutines.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/wire"
)

func main() {
	srv := server.New(log.New(os.Stderr, "[server] ", 0))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s (protocol v%d)\n", addr, wire.Version)

	// The client side is a Cluster: a list of servers, here one.
	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	cli, err := client.DialClusterWithKeys([]string{addr}, keys)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	patients := []engine.PlainRow{
		{JoinValue: []byte("insurer-A"), Attrs: [][]byte{[]byte("cardiology")}, Payload: []byte("Patient P-17, cardiology")},
		{JoinValue: []byte("insurer-B"), Attrs: [][]byte{[]byte("oncology")}, Payload: []byte("Patient P-22, oncology")},
		{JoinValue: []byte("insurer-A"), Attrs: [][]byte{[]byte("oncology")}, Payload: []byte("Patient P-31, oncology")},
	}
	insurers := []engine.PlainRow{
		{JoinValue: []byte("insurer-A"), Attrs: [][]byte{[]byte("gold")}, Payload: []byte("Insurer A (gold plan)")},
		{JoinValue: []byte("insurer-B"), Attrs: [][]byte{[]byte("basic")}, Payload: []byte("Insurer B (basic plan)")},
	}

	// Indexed uploads: alongside the Secure Join ciphertexts each table
	// carries its SSE pre-filter index, so the planner can choose
	// prefiltered joins that skip SJ.Dec for rows outside the selection.
	if err := cli.UploadIndexed("Patients", patients); err != nil {
		log.Fatal(err)
	}
	if err := cli.UploadIndexed("Insurers", insurers); err != nil {
		log.Fatal(err)
	}
	fmt.Println("uploaded encrypted tables Patients and Insurers (with SSE indexes)")

	// The client plans SQL against a catalog synced from the server:
	// row counts and index state decide the join order and whether a
	// side is prefiltered through its SSE index.
	catalog, err := sql.NewCatalog(
		sql.TableSchema{Name: "Patients", JoinColumn: "insurer", Attrs: map[string]int{"dept": 0}},
		sql.TableSchema{Name: "Insurers", JoinColumn: "insurer", Attrs: map[string]int{"plan": 0}},
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cli.SyncCatalog(catalog); err != nil {
		log.Fatal(err)
	}
	const join = "SELECT * FROM Patients JOIN Insurers ON Patients.insurer = Insurers.insurer"

	// Both sides are selective against indexed tables, so the planner
	// takes the Section 4.3 fast path: the request carries SSE search
	// tokens, the server resolves the WHERE predicates through the
	// uploaded indexes and pays SJ.Dec pairings only for candidate rows,
	// and it additionally learns which rows match each predicate. Rows
	// print as the server streams its batches.
	plan, err := catalog.Compile(join + " WHERE Patients.dept = 'oncology' AND Insurers.plan = 'gold'")
	if err != nil {
		log.Fatal(err)
	}
	rows := 0
	revealed, err := cli.ExecutePlan(plan, func(r sql.ResultRow) error {
		fmt.Printf("  %s  <->  %s\n", r.Payloads[0], r.Payloads[1])
		rows++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %s join returned %d rows; server observed %d equality pairs\n",
		plan.Strategy, rows, revealed)

	// The cluster is safe for concurrent use: these two queries pipeline
	// over the same connection, and the server executes them in
	// parallel, interleaving their response frames.
	var wg sync.WaitGroup
	for _, dept := range []string{"cardiology", "oncology"} {
		wg.Add(1)
		go func(dept string) {
			defer wg.Done()
			plan, err := catalog.Compile(join + " WHERE Patients.dept = '" + dept + "'")
			if err != nil {
				log.Fatal(err)
			}
			rows := 0
			revealed, err := cli.ExecutePlan(plan, func(sql.ResultRow) error { rows++; return nil })
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("concurrent query dept=%s: %d rows (%d pairs revealed)\n", dept, rows, revealed)
		}(dept)
	}
	wg.Wait()
}
