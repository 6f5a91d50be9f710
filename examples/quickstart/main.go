// Quickstart: encrypt two tables, run one filtered equi-join query, and
// decrypt the result — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/securejoin"
)

func main() {
	// 1. The client provisions keys. M is the number of filterable
	//    attributes per row, T the maximum IN-clause size.
	client, err := engine.NewClient(securejoin.Params{M: 1, T: 3}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Encrypt and upload two tables. Each row carries a join value,
	//    filterable attributes and an opaque payload returned on match.
	albums := []engine.PlainRow{
		{JoinValue: []byte("artist-1"), Attrs: [][]byte{[]byte("rock")}, Payload: []byte("Album: Night Drive")},
		{JoinValue: []byte("artist-2"), Attrs: [][]byte{[]byte("jazz")}, Payload: []byte("Album: Blue Hours")},
		{JoinValue: []byte("artist-1"), Attrs: [][]byte{[]byte("rock")}, Payload: []byte("Album: Daybreak")},
	}
	artists := []engine.PlainRow{
		{JoinValue: []byte("artist-1"), Attrs: [][]byte{[]byte("on-tour")}, Payload: []byte("Artist: The Parallels")},
		{JoinValue: []byte("artist-2"), Attrs: [][]byte{[]byte("retired")}, Payload: []byte("Artist: M. Col")},
	}

	server := engine.NewServer()
	encAlbums, err := client.EncryptTable("Albums", albums)
	if err != nil {
		log.Fatal(err)
	}
	encArtists, err := client.EncryptTable("Artists", artists)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*engine.EncryptedTable{encAlbums, encArtists} {
		if err := server.RegisterTable(t); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Issue a query:
	//    SELECT * FROM Albums JOIN Artists ON artist
	//    WHERE Albums.genre IN ('rock') AND Artists.status IN ('on-tour')
	q, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("rock")}},
		securejoin.Selection{0: [][]byte{[]byte("on-tour")}},
	)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The server joins over ciphertexts only.
	stream, err := server.OpenJoin("Albums", "Artists", engine.JoinSpec{Query: q})
	if err != nil {
		log.Fatal(err)
	}
	rows, _, err := stream.Drain()
	if err != nil {
		log.Fatal(err)
	}

	// 5. The client decrypts the matched payloads.
	fmt.Printf("%d joined rows (server observed %d equality pairs):\n", len(rows), stream.RevealedPairs())
	for i := range rows {
		pa, pb, err := client.OpenRow(&rows[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s  <->  %s\n", pa, pb)
	}
}
