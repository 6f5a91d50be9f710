package sql_test

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/server"
	"repro/internal/sql"
)

// Cluster conformance: both suites — the 20-query two-table suite and
// the multi-join suite — run against a 2-shard in-process cluster and
// must produce exactly what one server produces: identical row
// identities, identical decrypted payload bytes, and a summed sigma(q)
// equal to the single-server revealed-pair count. This is the
// executable form of the alignment argument in cluster.go's package
// doc: equi-join pairs are always co-located, so per-shard traces
// partition the single-server trace.

// clusterFixture boots one reference server plus a 2-shard cluster,
// all sharing the reference client's key material so every execution
// decrypts the same ciphertext world. srvs[0] is the reference server,
// srvs[1:] are the shards; addrs[i] is srvs[i]'s address.
func clusterFixture(t *testing.T) (single *client.Client, cl *client.Cluster, srvs []*server.Server, addrs []string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		srv := server.New(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs, addrs = append(srvs, srv), append(addrs, addr)
	}
	single, err := client.Dial(addrs[0], securejoin.Params{M: 2, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	cl, err = client.DialClusterWithKeys(addrs[1:], single.Keys())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return single, cl, srvs, addrs
}

func TestSQLConformanceCluster(t *testing.T) {
	single, cl, _, _ := clusterFixture(t)

	teams, employees := conformanceTables()
	for name, rows := range map[string][]engine.PlainRow{
		"Teams": teams, "Employees": employees,
	} {
		if err := single.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
	}

	cat, err := sql.NewCatalog(
		sql.TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0, "Dept": 1}},
		sql.TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0, "Level": 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregated cluster catalog must be indistinguishable from the
	// single server's: summed shard rows, every shard indexed.
	infos, err := cl.SyncCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]int{"Teams": len(teams), "Employees": len(employees)}
	// Hash partitioning places each distinct join value on exactly one
	// shard, so summing per-shard NDVs must recover the true count.
	distinct := func(rows []engine.PlainRow) int {
		seen := map[string]bool{}
		for _, r := range rows {
			seen[string(r.JoinValue)] = true
		}
		return len(seen)
	}
	wantNDV := map[string]int{"Teams": distinct(teams), "Employees": distinct(employees)}
	for _, info := range infos {
		if info.Rows != wantRows[info.Name] || !info.Indexed || info.ShardCount != 2 {
			t.Fatalf("aggregated describe of %s = %+v, want %d rows, indexed, 2 shards",
				info.Name, info, wantRows[info.Name])
		}
		if info.NDV != wantNDV[info.Name] {
			t.Errorf("aggregated NDV of %s = %d, want %d", info.Name, info.NDV, wantNDV[info.Name])
		}
	}

	for _, cq := range conformanceQueries {
		cq := cq
		t.Run(cq.name, func(t *testing.T) {
			plan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}

			render := func(r sql.ResultRow) string {
				return fmt.Sprintf("%d|%d|%s|%s", r.Rows[0], r.Rows[1], r.Payloads[0], r.Payloads[1])
			}
			var singleRows []string
			singleRevealed, err := single.ExecutePlan(plan,
				func(r sql.ResultRow) error { singleRows = append(singleRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			var clRows []string
			clRevealed, err := cl.ExecutePlan(plan,
				func(r sql.ResultRow) error { clRows = append(clRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}

			var want []string
			for _, pr := range cq.rows {
				want = append(want, fmt.Sprintf("%d|%d|%s|%s",
					pr[0], pr[1], teams[pr[0]].Payload, employees[pr[1]].Payload))
			}
			wantCanon := canonical(t, want)
			singleCanon := canonical(t, singleRows)
			if singleCanon != wantCanon {
				t.Fatalf("single-server rows =\n%s\nwant\n%s", singleCanon, wantCanon)
			}
			if clCanon := canonical(t, clRows); clCanon != singleCanon {
				t.Errorf("2-shard cluster rows differ from single server:\n%s\nvs\n%s", clCanon, singleCanon)
			}
			if clRevealed != singleRevealed {
				t.Errorf("cluster summed sigma = %d pairs, single server revealed %d", clRevealed, singleRevealed)
			}

			// The same plan submitted as a job on every shard and
			// collected once all are done.
			info, err := cl.SubmitPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			results, jobRevealed, err := cl.WaitJob(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			var jobRows []string
			for _, r := range results {
				jobRows = append(jobRows, fmt.Sprintf("%d|%d|%s|%s", r.RowA, r.RowB, r.PayloadA, r.PayloadB))
			}
			if jobCanon := canonical(t, jobRows); jobCanon != singleCanon {
				t.Errorf("cluster job rows differ from single server:\n%s\nvs\n%s", jobCanon, singleCanon)
			}
			if jobRevealed != singleRevealed {
				t.Errorf("cluster job sigma = %d pairs, single server revealed %d", jobRevealed, singleRevealed)
			}
		})
	}
}

func TestSQLConformanceClusterMultiJoin(t *testing.T) {
	single, cl, _, _ := clusterFixture(t)

	teams, employees := conformanceTables()
	offices := conformanceOffices()
	payloads := [][]engine.PlainRow{teams, employees, offices}
	for name, rows := range map[string][]engine.PlainRow{
		"Teams": teams, "Employees": employees, "Offices": offices,
	} {
		if err := single.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
	}

	cat := multiJoinCatalog(t)
	if _, err := cl.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}

	for _, cq := range multiJoinQueries {
		cq := cq
		t.Run(cq.name, func(t *testing.T) {
			plan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			render := func(r sql.ResultRow) string {
				return fmt.Sprintf("%d|%d|%d|%s|%s|%s",
					r.Rows[0], r.Rows[1], r.Rows[2], r.Payloads[0], r.Payloads[1], r.Payloads[2])
			}
			var singleRows []string
			singleRevealed, err := single.ExecutePlan(plan,
				func(r sql.ResultRow) error { singleRows = append(singleRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}

			var want []string
			for _, tr := range cq.rows {
				want = append(want, fmt.Sprintf("%d|%d|%d|%s|%s|%s",
					tr[0], tr[1], tr[2],
					payloads[0][tr[0]].Payload, payloads[1][tr[1]].Payload, payloads[2][tr[2]].Payload))
			}
			wantCanon := canonical(t, want)
			singleCanon := canonical(t, singleRows)
			if singleCanon != wantCanon {
				t.Fatalf("single-server rows =\n%s\nwant\n%s", singleCanon, wantCanon)
			}
			var rows []string
			revealed, err := cl.ExecutePlan(plan,
				func(r sql.ResultRow) error { rows = append(rows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, rows); got != singleCanon {
				t.Errorf("cluster rows differ from single server:\n%s\nvs\n%s", got, singleCanon)
			}
			if revealed != singleRevealed {
				t.Errorf("cluster summed sigma = %d pairs, single server revealed %d", revealed, singleRevealed)
			}

			// Full execution (semi-join off) through the cluster: same
			// rows, and the default semi-join run may only have revealed
			// fewer pairs than this reference.
			cat.SetSemiJoin(false)
			fullPlan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			cat.SetSemiJoin(true)
			var fullRows []string
			fullRevealed, err := cl.ExecutePlan(fullPlan,
				func(r sql.ResultRow) error { fullRows = append(fullRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, fullRows); got != singleCanon {
				t.Errorf("cluster full-execution rows differ from single server:\n%s\nvs\n%s", got, singleCanon)
			}
			if singleRevealed > fullRevealed {
				t.Errorf("semi-join revealed %d pairs, more than full execution's %d", singleRevealed, fullRevealed)
			}
		})
	}
}
