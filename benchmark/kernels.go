package main

import (
	"fmt"
	"io/fs"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bn256"
	"repro/internal/engine"
	"repro/internal/ipe"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/zq"
)

// kernelRows bounds the rows the per-row kernels run over: the
// parallel-decrypt probe wants 64 where the tables have them.
const kernelRows = 64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sink keeps kernel results reachable so no call can be elided.
var sink any

// kernels collects kernel timings; the first error stops the rest,
// which would run on inputs the failed call was to produce.
type kernels struct {
	m   map[string]float64
	err error
}

// mean times n calls of f and returns the mean duration of one.
func (k *kernels) mean(n int, f func(i int) error) time.Duration {
	if k.err != nil {
		return 1 // keeps derived rates finite; the error is what gets reported
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if k.err = f(i); k.err != nil {
			return 1
		}
	}
	return time.Since(start) / time.Duration(n)
}

// runKernels times the exported calls of each layer in isolation, on
// this workload's scheme parameters and rows. The procedure is the same
// on every workload; only the vector dimension and the data differ.
func runKernels(e *env, outDir string, m map[string]float64) error {
	k := &kernels{m: m}
	// a millisecond-scale call is repeated kernelCalls times for its
	// mean, a microsecond-scale one fastCalls times
	kernelCalls := e.w.kernelCalls
	fastCalls := 33 * kernelCalls
	params := e.w.params
	plain := e.data.tables["Orders"]
	if len(plain) > kernelRows {
		plain = plain[:kernelRows]
	}
	n := len(plain)

	// securejoin and, through the values it exposes, ipe and bn256
	scheme, err := securejoin.Setup(params, nil)
	if err != nil {
		return err
	}
	cts := make([]*securejoin.RowCiphertext, n)
	m["securejoin.encrypt_row_ms"] = ms(k.mean(n, func(i int) (err error) {
		cts[i], err = scheme.Encrypt(securejoin.Row{JoinValue: plain[i].JoinValue, Attrs: plain[i].Attrs})
		return err
	}))
	sel := e.w.queries[0].selection("Orders")
	var q *securejoin.Query
	m["securejoin.tokengen_ms"] = ms(k.mean(kernelCalls, func(int) (err error) {
		q, err = scheme.NewQuery(sel, nil)
		return err
	})) / 2
	if k.err != nil {
		return k.err
	}
	var pc *securejoin.TokenPrecomp
	m["securejoin.precompute_ms"] = ms(k.mean(kernelCalls, func(int) error {
		pc = q.TokenA.Precompute()
		return nil
	}))
	m["securejoin.dec_row_ms"] = ms(k.mean(kernelCalls, func(i int) (err error) {
		sink, err = pc.Decrypt(cts[i%n])
		return err
	}))
	m["securejoin.dec_row_naive_ms"] = ms(k.mean(kernelCalls, func(i int) (err error) {
		sink, err = securejoin.Decrypt(q.TokenA, cts[i%n])
		return err
	}))
	var das []securejoin.DValue
	par := k.mean(2, func(int) (err error) {
		das, err = securejoin.DecryptTableParallelWith(pc, cts, runtime.GOMAXPROCS(0))
		return err
	})
	m["securejoin.dec_parallel_rows_per_s"] = float64(n) / par.Seconds()
	m["securejoin.dec_parallel_speedup"] = m["securejoin.dec_parallel_rows_per_s"] * m["securejoin.dec_row_ms"] / 1000
	m["securejoin.hashjoin_us_per_row"] = us(k.mean(fastCalls, func(int) error {
		sink = securejoin.HashJoin(das, das)
		return nil
	})) / float64(2*n)

	tk := q.TokenA.Tk
	var bpc *bn256.PairingPrecomp
	m["bn256.precompute_ms"] = ms(k.mean(kernelCalls, func(int) error {
		bpc = bn256.PrecomputePairBatch(tk.Elems)
		return nil
	}))
	m["bn256.pairbatch_eval_ms"] = ms(k.mean(kernelCalls, func(i int) error {
		sink = bn256.PairBatchPrecomputed(bpc, cts[i%n].C.Elems)
		return nil
	}))
	var gt *bn256.GT
	m["bn256.pair_ms"] = ms(k.mean(kernelCalls, func(i int) error {
		gt = bn256.Pair(tk.Elems[0], cts[i%n].C.Elems[0])
		return nil
	}))
	m["bn256.gt_marshal_us"] = us(k.mean(fastCalls, func(int) error {
		sink = gt.Marshal()
		return nil
	}))
	scalar := new(big.Int).Sub(zq.Q, big.NewInt(12345)) // full width
	m["bn256.g1_basemult_ms"] = ms(k.mean(4*kernelCalls, func(int) error {
		sink = new(bn256.G1).ScalarBaseMult(scalar)
		return nil
	}))
	m["bn256.g2_basemult_ms"] = ms(k.mean(4*kernelCalls, func(int) error {
		sink = new(bn256.G2).ScalarBaseMult(scalar)
		return nil
	}))

	tp := ipe.PrecomputeToken(tk)
	m["ipe.decrypt_precomp_ms"] = ms(k.mean(kernelCalls, func(i int) (err error) {
		sink, err = tp.Decrypt(cts[i%n].C)
		return err
	}))
	msk, err := ipe.Setup(params.Dim(), nil)
	if err != nil {
		return err
	}
	vec := zq.NewVector(params.Dim())
	for i := range vec {
		vec[i] = zq.MustRandom()
	}
	m["ipe.encrypt_ms"] = ms(k.mean(kernelCalls, func(int) (err error) {
		sink, err = msk.EncryptModified(vec)
		return err
	}))
	m["ipe.keygen_ms"] = ms(k.mean(kernelCalls, func(int) (err error) {
		sink, err = msk.KeyGenModified(vec)
		return err
	}))

	// sse
	attrs := make([][][]byte, n)
	for i, row := range plain {
		attrs[i] = row.Attrs
	}
	sc, err := sse.NewClient(nil)
	if err != nil {
		return err
	}
	var idx *sse.Index
	m["sse.build_index_us_per_row"] = us(k.mean(kernelCalls, func(int) (err error) {
		idx, err = sc.BuildIndex(attrs)
		return err
	})) / float64(n)
	toks := []sse.SearchToken{sc.Tokenize(0, []byte("1/12.5")), sc.Tokenize(0, []byte("1/25"))}
	m["sse.search_us"] = us(k.mean(fastCalls, func(int) (err error) {
		sink, err = idx.SearchUnion(toks)
		return err
	}))

	// engine, client side: an ingest-sized table
	keys := e.cli.Keys()
	rows := plain[:min(n, ingestTableRows)]
	var table *engine.EncryptedTable
	m["engine.encrypt_table_ms_per_row"] = ms(k.mean(3, func(int) (err error) {
		table, err = keys.EncryptTableIndexed("Kernel", rows)
		return err
	})) / float64(len(rows))
	if k.err != nil {
		return k.err
	}
	m["engine.open_payload_us"] = us(k.mean(fastCalls, func(i int) (err error) {
		sink, err = keys.OpenPayload(table.Rows[i%len(rows)].Payload)
		return err
	}))

	// sql: a compile that runs the planner, then one the plan cache serves
	cat, err := sql.NewCatalog(catalogSchemas(e.w.tables)...)
	if err != nil {
		return err
	}
	stmt := e.w.queries[0].sql
	var hit time.Duration
	both := k.mean(fastCalls/10, func(int) error {
		cat.SetSemiJoin(true) // any catalog mutation empties the plan cache
		if _, err := cat.Compile(stmt); err != nil {
			return err
		}
		start := time.Now()
		_, err := cat.Compile(stmt)
		hit += time.Since(start)
		return err
	})
	m["sql.compile_hit_us"] = us(hit) / float64(fastCalls/10)
	m["sql.compile_miss_us"] = us(both) - m["sql.compile_hit_us"]

	// wire: one frame of 64 result rows with this table's sealed payloads
	batch := &wire.Frame{ID: 1, Batch: &wire.JoinBatch{Rows: make([]wire.JoinedRow, kernelRows)}}
	for i := range batch.Batch.Rows {
		p := table.Rows[i%len(rows)].Payload
		batch.Batch.Rows[i] = wire.JoinedRow{RowA: i, RowB: i, PayloadA: p, PayloadB: p}
	}
	p := newPipe()
	frameBytes := 0
	send := k.mean(fastCalls, func(int) (err error) {
		frameBytes, err = p.send(batch)
		return err
	})
	recv := k.mean(fastCalls, func(int) error { return p.conn.Recv(new(wire.Frame)) })
	m["wire.send_mb_per_s"] = float64(frameBytes) / 1e6 / send.Seconds()
	m["wire.recv_mb_per_s"] = float64(frameBytes) / 1e6 / recv.Seconds()
	_, uploadBytes, err := uploadFrames(newPipe(), table)
	if err != nil {
		return err
	}
	m["wire.upload_bytes_per_row"] = float64(uploadBytes) / float64(len(rows))

	k.store(outDir, table, rows, fastCalls/10)
	return k.err
}

// store times the store's calls on a scratch data directory: table
// commits, a job spool of kernelRows rows written and read, then the
// directory's size and its recovery.
func (k *kernels) store(outDir string, table *engine.EncryptedTable, plain []engine.PlainRow, reads int) {
	if k.err != nil {
		return
	}
	var dir string
	if dir, k.err = os.MkdirTemp(outDir, "kernel-store-"); k.err != nil {
		return
	}
	defer os.RemoveAll(dir)
	var st *store.Store
	if st, k.err = store.Open(dir); k.err != nil {
		return
	}
	defer func() { st.Close() }()
	const tables = 8
	k.m["store.commit_ms_per_table"] = ms(k.mean(tables, func(i int) error {
		t := *table
		t.Name = fmt.Sprintf("Kernel%d", i)
		return st.Commit(&t)
	}))
	bytes := int64(0)
	k.mean(1, func(int) (err error) {
		bytes, err = dirBytes(dir)
		return err
	})
	k.m["store.bytes_per_row"] = float64(bytes) / float64(tables*len(plain))
	k.m["store.bytes_per_user_byte"] = float64(bytes) / float64(tables*plainBytes(plain))

	spool := make([]store.JobRow, kernelRows)
	for i := range spool {
		p := table.Rows[i%len(table.Rows)].Payload
		spool[i] = store.JobRow{RowA: i, RowB: i, PayloadA: p, PayloadB: p}
	}
	k.m["store.commit_job_ms"] = ms(k.mean(tables, func(int) error {
		return st.CommitJob(store.JobMeta{ID: "kernel"}, spool)
	}))
	k.m["store.read_job_rows_us"] = us(k.mean(reads, func(int) error {
		_, err := st.ReadJobRows("kernel")
		return err
	}))
	const opens = 2 // each verifies and decodes every snapshot: most of a second
	var open time.Duration
	k.mean(opens, func(int) error {
		if err := st.Close(); err != nil {
			return err
		}
		start := time.Now()
		reopened, err := store.Open(dir)
		if err != nil {
			return err
		}
		open += time.Since(start)
		st = reopened
		return nil
	})
	k.m["store.open_ms"] = ms(open) / opens
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
