// Sharded multi-server execution: a Cluster partitions every uploaded
// table across N independent sjservers and runs each pairwise join
// scatter-gather — one JoinRequest (or submitted job) per shard, the
// per-shard streams merged client-side.
//
// Sharding happens at encrypt/upload time, on the join-key attribute,
// by the party that already holds all key material — so the partition
// function reveals nothing the ciphertexts do not: each server stores
// shard i of every table, annotated on the wire (UploadRequest.Shard /
// ShardCount, echoed by Describe) but otherwise indistinguishable from
// a whole table.
//
// Correctness and leakage both rest on one alignment property: every
// row has exactly one join value, and all tables are partitioned by
// the same hash over that value, so the rows of ANY equi-join pair
// always land on the same shard. No cross-shard match can exist, which
// makes the shard-local joins exhaustive; and every equality pair the
// scheme reveals — intra-table or cross-table — is between rows with
// equal join image, hence co-located, so the per-shard sigma(q) traces
// partition the single-server trace exactly: summed across shards they
// equal the unsharded count, pair for pair. Scatter-gather adds no
// leakage and loses none from the audit.
package client

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/wire"
)

// clusterMetrics is the per-backend instrumentation of a Cluster,
// labeled by shard index: join wall time per shard (the scatter-gather
// straggler profile), and the degraded-mode counters — how often each
// shard shed work and how often the cluster retried it while the other
// shards streamed on.
type clusterMetrics struct {
	ShardSeconds *metrics.HistogramVec
	ShardShed    *metrics.CounterVec
	ShardRetries *metrics.CounterVec
}

func newClusterMetrics(reg *metrics.Registry) clusterMetrics {
	return clusterMetrics{
		ShardSeconds: metrics.NewHistogramVec(reg, "sj_cluster_shard_seconds", "per-shard join stream wall time", "shard", nil),
		ShardShed:    metrics.NewCounterVec(reg, "sj_cluster_shard_shed_total", "per-shard requests shed by that backend's admission control", "shard"),
		ShardRetries: metrics.NewCounterVec(reg, "sj_cluster_shard_retries_total", "per-shard backoff retries after a shed", "shard"),
	}
}

// Cluster owns one Client per backend server and executes uploads and
// joins sharded across all of them. All backends share the caller's
// key material; the Cluster is safe for concurrent use to the same
// extent a single Client is.
type Cluster struct {
	keys    *engine.Client
	clients []*Client
	addrs   []string

	reg *metrics.Registry
	met clusterMetrics

	// mu guards shardMaps: per table, per shard, the global row index
	// of each shard-local row — recorded at upload so merged results
	// report the same row identities a single server would.
	mu        sync.Mutex
	shardMaps map[string][][]int
}

// DialClusterWithKeys connects to every addr reusing existing key
// material, e.g. keys restored from an earlier session. A single
// address is the degenerate one-shard cluster — same code path, no
// partitioning benefit.
func DialClusterWithKeys(addrs []string, keys *engine.Client) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: cluster needs at least one server address")
	}
	reg := metrics.NewRegistry()
	cl := &Cluster{
		keys:      keys,
		addrs:     append([]string(nil), addrs...),
		reg:       reg,
		met:       newClusterMetrics(reg),
		shardMaps: make(map[string][][]int),
	}
	for _, addr := range addrs {
		c, err := DialWithKeys(addr, keys)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("client: cluster dial %s: %w", addr, err)
		}
		cl.clients = append(cl.clients, c)
	}
	return cl, nil
}

// Close terminates every backend connection, returning the first error.
func (cl *Cluster) Close() error {
	var first error
	for _, c := range cl.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Keys returns the cluster's shared key material.
func (cl *Cluster) Keys() *engine.Client { return cl.keys }

// Shards returns the number of backend servers (= hash partitions).
func (cl *Cluster) Shards() int { return len(cl.clients) }

// Registry exposes the cluster's metric registry (per-shard latency
// and degraded-mode counters) for scraping, e.g. by sjbench.
func (cl *Cluster) Registry() *metrics.Registry { return cl.reg }

// shardOf routes one join value to its shard: FNV-1a over the value,
// mod the shard count. Every table uses the same function, which is
// what aligns all equi-joins shard-locally.
func shardOf(joinValue []byte, shards int) int {
	h := fnv.New64a()
	h.Write(joinValue)
	return int(h.Sum64() % uint64(shards))
}

// Upload hash-partitions a plaintext table on the join-key attribute,
// encrypts each partition and stores partition i on server i under the
// table's name (annotated shard i of N). The per-shard global row
// indices are recorded so join results report single-server row
// identities. Like Client.Upload, do not upload the same table name
// concurrently.
func (cl *Cluster) Upload(name string, rows []engine.PlainRow) error {
	return cl.upload(name, rows, false)
}

// UploadIndexed uploads like Upload and additionally builds each
// partition its own SSE pre-filter index, so every shard can execute
// prefiltered joins locally.
func (cl *Cluster) UploadIndexed(name string, rows []engine.PlainRow) error {
	return cl.upload(name, rows, true)
}

func (cl *Cluster) upload(name string, rows []engine.PlainRow, indexed bool) error {
	n := len(cl.clients)
	parts := make([][]engine.PlainRow, n)
	shardMap := make([][]int, n)
	for i, r := range rows {
		s := shardOf(r.JoinValue, n)
		parts[s] = append(parts[s], r)
		shardMap[s] = append(shardMap[s], i)
	}
	// Encrypt one shard after another: each EncryptTable already fans
	// its rows out over every core and reads the shared rng in row
	// order. Upload concurrently (uploads are per-connection).
	tables := make([]*engine.EncryptedTable, n)
	for s, part := range parts {
		var t *engine.EncryptedTable
		var err error
		if indexed {
			t, err = cl.keys.EncryptTableIndexed(name, part)
		} else {
			t, err = cl.keys.EncryptTable(name, part)
		}
		if err != nil {
			return err
		}
		t.Shard, t.ShardCount = s, n
		tables[s] = t
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range cl.clients {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = cl.clients[s].uploadTable(tables[s])
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("client: uploading %q shard %d/%d: %w", name, s, n, err)
		}
	}
	cl.mu.Lock()
	cl.shardMaps[name] = shardMap
	cl.mu.Unlock()
	return nil
}

// globalRow translates a shard-local row number of a table to the row
// identity reported to callers. With the upload-time shard map (the
// common case: the uploading process is the joining process) this is
// the exact row index of the original plaintext table, so results are
// bit-identical to a single server's. Without one — joining from a
// process that did not do the upload — a deterministic injection
// local*shards+shard is used instead: unique per physical row and
// consistent across the plan's steps, which is all the stitcher needs.
func (cl *Cluster) globalRow(table string, shard, local int) int {
	cl.mu.Lock()
	m := cl.shardMaps[table]
	cl.mu.Unlock()
	if shard < len(m) && local < len(m[shard]) {
		return m[shard][local]
	}
	return local*len(cl.clients) + shard
}

// DescribeTables aggregates the backends' catalogs: per table name,
// the summed row count and whether every shard is SSE-indexed (a
// prefiltered plan needs the index on each backend it scatters to).
// ShardCount reports the cluster width.
func (cl *Cluster) DescribeTables() ([]TableInfo, error) {
	agg := make(map[string]*TableInfo)
	var order []string
	for s, c := range cl.clients {
		tables, err := c.DescribeTables()
		if err != nil {
			return nil, fmt.Errorf("client: describe shard %d: %w", s, err)
		}
		for _, t := range tables {
			a, ok := agg[t.Name]
			if !ok {
				a = &TableInfo{Name: t.Name, Indexed: true, ShardCount: len(cl.clients)}
				agg[t.Name] = a
				order = append(order, t.Name)
			}
			a.Rows += t.Rows
			a.Indexed = a.Indexed && t.Indexed
			// Tables are hash-partitioned on the join value, so each
			// distinct value lives on exactly one shard: the global
			// distinct count is the exact sum of the shard counts.
			a.NDV += t.NDV
		}
	}
	out := make([]TableInfo, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	return out, nil
}

// SyncCatalog refreshes a catalog's statistics from the aggregated
// cluster state, exactly like Client.SyncCatalog does from one server:
// summed row counts drive join ordering, the all-shards-indexed bit
// the prefilter fast path.
func (cl *Cluster) SyncCatalog(cat *sql.Catalog) ([]TableInfo, error) {
	return syncCatalog(cat, cl.DescribeTables)
}

// clusterStepStream merges the per-shard join streams of one scattered
// step. Producer goroutines (one per shard) push remapped, decrypted
// batches; Next delivers them in arrival order. RevealedPairs sums the
// shards' sigma(q) counts and is valid once Next returned io.EOF.
type clusterStepStream struct {
	batches chan []sql.StepRow
	quit    chan struct{}
	once    sync.Once

	mu       sync.Mutex
	err      error
	revealed int
}

func (s *clusterStepStream) Next() ([]sql.StepRow, error) {
	rows, ok := <-s.batches
	if ok {
		return rows, nil
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Close releases the merged stream early: producers still pushing are
// told to stop and their servers' streams are closed by their drain
// loops unwinding.
func (s *clusterStepStream) Close() { s.once.Do(func() { close(s.quit) }) }

func (s *clusterStepStream) RevealedPairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revealed
}

// fail records the first terminal error and stops the other producers:
// shard overload is handled (retried) below this level, so an error
// reaching here is a hard failure of the whole step.
func (s *clusterStepStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.Close()
}

// push hands one batch to the consumer; false when the stream was
// closed and the producer should unwind.
func (s *clusterStepStream) push(rows []sql.StepRow) bool {
	select {
	case s.batches <- rows:
		return true
	case <-s.quit:
		return false
	}
}

// shardJoinReqs specializes one join request per shard. With no
// candidate list every shard receives the shared request unchanged:
// the shards jointly execute one logical query, so a semi-honest
// coalition of backends sees exactly the single-server request, not N
// fresher-keyed variants of it. With one, base.CandidatesA holds global
// hub-row ids that are remapped to each shard's local row numbers; a
// shard left with no candidates gets a nil slot and is skipped
// entirely — correct because no cross-shard match exists, and
// necessary because the wire encoding cannot distinguish an empty
// restriction from no restriction.
func (cl *Cluster) shardJoinReqs(base *wire.JoinRequest) []*wire.JoinRequest {
	reqs := make([]*wire.JoinRequest, len(cl.clients))
	if len(base.CandidatesA) == 0 {
		for s := range reqs {
			reqs[s] = base
		}
		return reqs
	}
	locals := cl.localCandidates(base.TableA, base.CandidatesA)
	for s := range reqs {
		if len(locals[s]) == 0 {
			continue
		}
		r := *base
		r.CandidatesA = locals[s]
		reqs[s] = &r
	}
	return reqs
}

// localCandidates inverts the upload-time shard maps: per shard, the
// ascending local row numbers of the global candidate ids that live on
// it. Without a shard map (this process did not upload the table) the
// ids came from globalRow's deterministic injection local*N+shard, so
// the inverse is arithmetic. candidates must be sorted ascending —
// sql.Execute ships them that way.
func (cl *Cluster) localCandidates(table string, candidates []int) [][]int {
	n := len(cl.clients)
	cl.mu.Lock()
	m := cl.shardMaps[table]
	cl.mu.Unlock()
	out := make([][]int, n)
	if len(m) != n {
		for _, g := range candidates {
			if g >= 0 {
				out[g%n] = append(out[g%n], g/n)
			}
		}
		return out
	}
	for s := 0; s < n; s++ {
		sm := m[s] // ascending global ids of shard s's rows
		i := 0
		for _, g := range candidates {
			for i < len(sm) && sm[i] < g {
				i++
			}
			if i < len(sm) && sm[i] == g {
				out[s] = append(out[s], i)
			}
		}
	}
	return out
}

// scatter runs one join on every shard concurrently and returns the
// merged stream; base is the single-server request, specialized per
// shard by shardJoinReqs. Each shard's request goes through that
// backend's Client.open, so async routes it through the shard's job
// queue exactly as it would on a single server.
//
// Degraded mode: a shard that sheds (ErrOverloaded) is retried with
// jittered exponential backoff on that shard alone — its siblings
// keep streaming. Admission control rejects before any batch is
// produced, so the retry re-sends a request that has emitted nothing.
func (cl *Cluster) scatter(base *wire.JoinRequest, async bool) *clusterStepStream {
	ms := &clusterStepStream{
		batches: make(chan []sql.StepRow, len(cl.clients)),
		quit:    make(chan struct{}),
	}
	reqs := cl.shardJoinReqs(base)
	var wg sync.WaitGroup
	for s := range cl.clients {
		if reqs[s] == nil {
			continue
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			started := time.Now()
			revealed, err := cl.runShard(shard, reqs[shard], async, ms)
			cl.met.ShardSeconds.With(strconv.Itoa(shard)).Observe(time.Since(started).Seconds())
			if err != nil {
				ms.fail(fmt.Errorf("shard %d (%s): %w", shard, cl.addrs[shard], err))
				return
			}
			ms.mu.Lock()
			ms.revealed += revealed
			ms.mu.Unlock()
		}(s)
	}
	go func() {
		wg.Wait()
		close(ms.batches)
	}()
	return ms
}

// runShard executes one shard's portion of a scattered join, retrying
// on shed, and pushes remapped batches into the merged stream. It
// returns the shard's revealed-pair count.
func (cl *Cluster) runShard(shard int, req *wire.JoinRequest, async bool, ms *clusterStepStream) (int, error) {
	label := strconv.Itoa(shard)
	revealed := 0
	attempt := func() error {
		js, err := cl.clients[shard].open(req, async)
		if err != nil {
			return err
		}
		for {
			batch, err := js.Next()
			if err == io.EOF {
				revealed = js.RevealedPairs()
				return nil
			}
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				continue
			}
			rows := make([]sql.StepRow, len(batch))
			for i, r := range batch {
				rows[i] = sql.StepRow{
					RowL:     cl.globalRow(req.TableA, shard, r.RowA),
					RowR:     cl.globalRow(req.TableB, shard, r.RowB),
					PayloadL: r.PayloadA,
					PayloadR: r.PayloadB,
				}
			}
			if !ms.push(rows) {
				js.Close()
				return errors.New("cluster stream closed")
			}
		}
	}
	cfg := RetryConfig{Sleep: func(d time.Duration) {
		cl.met.ShardRetries.With(label).Inc()
		time.Sleep(d)
	}}
	err := WithRetry(cfg, func() error {
		// A shed surfaces at submit, or on a sync join's first Next (the
		// terminal Err frame precedes any batch), so retrying the whole
		// open+drain re-sends a request that delivered nothing.
		err := attempt()
		if errors.Is(err, ErrOverloaded) {
			cl.met.ShardShed.With(label).Inc()
		}
		return err
	})
	return revealed, err
}

// Runner returns the sql.Runner whose transport is the whole cluster:
// each plan step compiles to ONE join request — one token set shared by
// every shard — that is scattered, and the merged stream feeds
// sql.Execute's stitcher unchanged. Async routes each shard's step
// through that backend's job queue instead of a synchronous join.
func (cl *Cluster) Runner(async bool) sql.Runner {
	return sql.Runner{Keys: cl.keys, Open: func(tableL, tableR string, spec engine.JoinSpec) (sql.StepStream, error) {
		req, err := joinReqFromSpec(tableL, tableR, spec)
		if err != nil {
			return nil, err
		}
		return cl.scatter(req, async), nil
	}}
}

// ExecutePlan runs a compiled SQL plan scatter-gather: every pairwise
// step fans out to all shards, the merged decrypted intermediates are
// stitched client-side (sql.Execute), and the returned count sums the
// revealed pairs over all steps and shards — by the alignment argument
// above, equal to what one server executing the same plan would report.
func (cl *Cluster) ExecutePlan(p *sql.Plan, emit func(sql.ResultRow) error) (int, error) {
	return sql.Execute(cl.Runner(false), p, emit)
}
