// Client/server example: runs the DBMS server on a loopback TCP port and
// drives it with the v3 protocol client — the full database-as-a-service
// deployment of Section 2 in one process. The server sees only
// ciphertexts and tokens; all keys stay on the client side of the
// socket. Results stream back in bounded batches, and one connection
// pipelines concurrent queries issued from separate goroutines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/server"
)

func main() {
	srv := server.New(log.New(os.Stderr, "[server] ", 0))
	srv.SetBatchSize(2) // tiny batches so the streaming is visible
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s (protocol v3)\n", addr)

	cli, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		log.Fatal(err)
	}

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
	// carries its SSE pre-filter index, so prefiltered joins below can
	// skip SJ.Dec for rows outside the selection.
	if err := cli.UploadIndexed("Patients", patients); err != nil {
		log.Fatal(err)
	}
	if err := cli.UploadIndexed("Insurers", insurers); err != nil {
		log.Fatal(err)
	}
	fmt.Println("uploaded encrypted tables Patients and Insurers (with SSE indexes)")

	// SELECT * FROM Patients JOIN Insurers ON insurer
	// WHERE Patients.dept IN ('oncology') AND Insurers.plan IN ('gold') —
	// drained batch by batch as the server streams SJ.Match output.
	stream, err := cli.JoinQueryOpts("Patients", "Insurers",
		securejoin.Selection{0: [][]byte{[]byte("oncology")}},
		securejoin.Selection{0: [][]byte{[]byte("gold")}},
		client.JoinOpts{},
	)
	if err != nil {
		log.Fatal(err)
	}
	rows := 0
	for {
		batch, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range batch {
			fmt.Printf("  %s  <->  %s\n", r.PayloadA, r.PayloadB)
		}
		rows += len(batch)
	}
	fmt.Printf("streamed join returned %d rows; server observed %d equality pairs\n",
		rows, stream.RevealedPairs())

	// The same query through the Section 4.3 fast path: the request
	// additionally carries SSE search tokens, so the server resolves
	// the WHERE predicates through the uploaded indexes and pays
	// SJ.Dec pairings only for the candidate rows — results and
	// revealed-pair counts are identical, but the server additionally
	// learns which rows match each individual attribute predicate.
	preResults, preRevealed, err := cli.JoinWith("Patients", "Insurers",
		securejoin.Selection{0: [][]byte{[]byte("oncology")}},
		securejoin.Selection{0: [][]byte{[]byte("gold")}},
		client.JoinOpts{Prefilter: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prefiltered join returned %d rows (%d pairs revealed) touching only SSE candidates\n",
		len(preResults), preRevealed)

	// The client is safe for concurrent use: these two queries pipeline
	// over the same connection, and the server executes them in
	// parallel, interleaving their response frames.
	var wg sync.WaitGroup
	for _, dept := range []string{"cardiology", "oncology"} {
		wg.Add(1)
		go func(dept string) {
			defer wg.Done()
			results, revealed, err := cli.JoinWith("Patients", "Insurers",
				securejoin.Selection{0: [][]byte{[]byte(dept)}},
				securejoin.Selection{},
				client.JoinOpts{},
			)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("concurrent query dept=%s: %d rows (%d pairs revealed)\n",
				dept, len(results), revealed)
		}(dept)
	}
	wg.Wait()
}
