package sql_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sql"
)

// TestSQLConformanceTransports: every transport is the same query. One
// 3-way semi-join plan runs through the one runner over the one- and
// two-shard clusters, and a one-step plan is submitted to each as a job
// and collected (the async transport); each must come out identical to
// the in-process run of its plan — rows and opened payloads, summed
// revealed pairs, and the rows each step put through SJ.Dec (summed
// over shards). The last is what catches a transport
// that loses the semi-join candidates on the way: the results would
// still be right (the stitch discards the extra matches), but the step
// would decrypt — and so reveal pairs over — the whole hub table.
//
// The sharded runs are also held to the leakage argument of sharding:
// equal join values hash to one shard, so no class of equal rows spans
// two, and the union of the shards' ledgers — their rows renamed to
// the single server's row numbers — is the single server's ledger.
func TestSQLConformanceTransports(t *testing.T) {
	single, cl, srvs, addrs := clusterFixture(t)
	one, err := client.DialClusterWithKeys(addrs[:1], single.Keys())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { one.Close() })

	teams, employees := conformanceTables()
	// globalRow[table][shard][local row] is the row's number in the
	// unsharded table: the cluster partitions by FNV-1a of the join value
	// and keeps each shard's rows in table order.
	globalRow := map[string][2][]int{}
	for name, rows := range map[string][]engine.PlainRow{
		"Teams": teams, "Employees": employees, "Offices": conformanceOffices(),
	} {
		if err := single.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
		var shards [2][]int
		for i, r := range rows {
			h := fnv.New64a()
			h.Write(r.JoinValue)
			shards[h.Sum64()%2] = append(shards[h.Sum64()%2], i)
		}
		globalRow[name] = shards
	}
	shardedClosure := func() leakage.PairSet {
		union := leakage.NewPairSet()
		for s, srv := range srvs[1:] {
			global := func(r leakage.RowRef) leakage.RowRef {
				return leakage.RowRef{Table: r.Table, Row: globalRow[r.Table][s][r.Row]}
			}
			_, closure := srv.Engine().ObservedLeakage()
			for p := range closure {
				union.Add(leakage.Pair{A: global(p.A), B: global(p.B)})
			}
		}
		return union
	}
	cat := multiJoinCatalog(t)
	if _, err := single.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}

	// Offices in Kitchener or Remote belong to Teams rows 1 and 2 (keys 2
	// and 3), so the second step's hub candidates are a strict subset of
	// Teams — and each of the two shards stores one of them (keys 1 and 3
	// hash to shard 0, key 2 to shard 1). A shard left without candidates
	// is skipped outright and would decrypt fewer right-side rows than
	// one server does; here none is.
	const query = multiJoinBase + ` WHERE Offices.Site IN ('Kitchener', 'Remote')`
	plan, err := cat.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 || !plan.Steps[1].SemiJoin {
		t.Fatalf("want a 2-step plan with a semi-join stitch:\n%s", plan.Describe())
	}
	cat.SetSemiJoin(false)
	fullPlan, err := cat.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetSemiJoin(true)
	jobPlan, err := cat.Compile(`SELECT * FROM Teams JOIN Offices ON Offices.TeamKey = Teams.Key WHERE Offices.Site IN ('Kitchener', 'Remote')`)
	if err != nil {
		t.Fatal(err)
	}

	// decrypted sums sj_rows_decrypted_total over the given servers.
	decrypted := func(srvs []*server.Server) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, srv := range srvs {
				n += srv.Registry().Get("sj_rows_decrypted_total").(*metrics.Counter).Value()
			}
			return n
		}
	}
	oneDecrypted, shards := decrypted(srvs[:1]), decrypted(srvs[1:])

	type outcome struct {
		rows     string
		revealed int
		perStep  []uint64 // rows through SJ.Dec, per executed step
	}
	render := func(rows []int, payloads [][]byte) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%d|", r)
		}
		for _, p := range payloads {
			fmt.Fprintf(&b, "%s|", p)
		}
		return b.String()
	}
	// run executes p through r with the transport wrapped to read the
	// counter at every step boundary: Execute drains step i completely
	// before it opens step i+1, so the deltas attribute each decrypted
	// row to the step that ran it.
	run := func(t *testing.T, r sql.Runner, decrypted func() uint64, p *sql.Plan) outcome {
		t.Helper()
		var marks []uint64
		open := r.Open
		r.Open = func(tableL, tableR string, spec engine.JoinSpec) (sql.StepStream, error) {
			marks = append(marks, decrypted())
			return open(tableL, tableR, spec)
		}
		var rows []string
		revealed, err := sql.Execute(r, p, func(row sql.ResultRow) error {
			rows = append(rows, render(row.Rows, row.Payloads))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		marks = append(marks, decrypted())
		out := outcome{rows: canonical(t, rows), revealed: revealed}
		for i := 1; i < len(marks); i++ {
			out.perStep = append(out.perStep, marks[i]-marks[i-1])
		}
		return out
	}
	// runJob submits the one-step plan p as a job and collects it.
	runJob := func(t *testing.T, cl *client.Cluster, decrypted func() uint64, p *sql.Plan) outcome {
		t.Helper()
		mark := decrypted()
		info, err := cl.SubmitPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		results, revealed, err := cl.WaitJob(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range results {
			rows = append(rows, render([]int{r.RowA, r.RowB}, [][]byte{r.PayloadA, r.PayloadB}))
		}
		return outcome{rows: canonical(t, rows), revealed: revealed, perStep: []uint64{decrypted() - mark}}
	}

	inProcess := sql.EngineRunner(srvs[0].Engine(), single.Keys())
	want := run(t, inProcess, oneDecrypted, plan)
	if want.rows == "" {
		t.Fatal("the plan matched no rows; the comparison would be vacuous")
	}
	// Read now: the full-execution run below teaches this server more
	// than the plan under test does.
	_, wantClosure := srvs[0].Engine().ObservedLeakage()
	// The plan must be one where losing the candidates shows: without
	// the reduction its stitch step decrypts more rows.
	if full := run(t, inProcess, oneDecrypted, fullPlan); len(want.perStep) != 2 || want.perStep[1] >= full.perStep[1] {
		t.Fatalf("semi-join decrypted %v rows per step, full execution %v: the stitch step is not reduced", want.perStep, full.perStep)
	}
	wantJob := run(t, inProcess, oneDecrypted, jobPlan)
	if wantJob.rows == "" {
		t.Fatal("the job's plan matched no rows; the comparison would be vacuous")
	}

	// The sync runs come first: a sharded one compares the shards'
	// closures with the single server's, which the job's plan would grow.
	for _, tr := range []struct {
		name      string
		cluster   *client.Cluster
		async     bool
		decrypted func() uint64
		sharded   bool
	}{
		{"1-shard sync", one, false, oneDecrypted, false},
		{"1-shard async", one, true, oneDecrypted, false},
		{"2-shard sync", cl, false, shards, true},
		{"2-shard async", cl, true, shards, false},
	} {
		t.Run(tr.name, func(t *testing.T) {
			var got outcome
			want := want
			if tr.async {
				got, want = runJob(t, tr.cluster, tr.decrypted, jobPlan), wantJob
			} else {
				got = run(t, tr.cluster.Runner(), tr.decrypted, plan)
			}
			if got.rows != want.rows {
				t.Errorf("rows differ from in-process:\n%s\nvs\n%s", got.rows, want.rows)
			}
			if got.revealed != want.revealed {
				t.Errorf("revealed %d pairs, in-process revealed %d", got.revealed, want.revealed)
			}
			if !reflect.DeepEqual(got.perStep, want.perStep) {
				t.Errorf("rows decrypted per step = %v, in-process = %v", got.perStep, want.perStep)
			}
			if tr.sharded {
				if closure := shardedClosure(); !closure.Equal(wantClosure) {
					t.Errorf("union of the shards' closures = %v, the single server's = %v", closure.Sorted(), wantClosure.Sorted())
				}
			}
		})
	}
}
