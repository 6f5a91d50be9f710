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
	"sync"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/wire"
)

// Cluster owns one Client per backend server and executes uploads and
// joins sharded across all of them. All backends share the caller's
// key material; the Cluster is safe for concurrent use to the same
// extent a single Client is. One server is the one-shard cluster: its
// tables are stored whole and its requests go out unchanged, so every
// plan step reaches the wire through this one path.
type Cluster struct {
	keys    *engine.Client
	clients []*Client

	// mu guards shardMaps: per table, per shard, the global row index
	// of each shard-local row — recorded at upload so merged results
	// report the same row identities a single server would.
	mu        sync.Mutex
	shardMaps map[string][][]int
}

// DialClusterWithKeys connects to every addr reusing existing key
// material, e.g. keys restored from an earlier session. Shard i is
// addrs[i]; a single address is the one-shard cluster.
func DialClusterWithKeys(addrs []string, keys *engine.Client) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: cluster needs at least one server address")
	}
	clients := make([]*Client, 0, len(addrs))
	for _, addr := range addrs {
		c, err := DialWithKeys(addr, keys)
		if err != nil {
			newCluster(keys, clients).Close()
			return nil, fmt.Errorf("client: cluster dial %s: %w", addr, err)
		}
		clients = append(clients, c)
	}
	return newCluster(keys, clients), nil
}

// newCluster wraps connected clients, shard i on clients[i].
func newCluster(keys *engine.Client, clients []*Client) *Cluster {
	return &Cluster{keys: keys, clients: clients, shardMaps: make(map[string][][]int)}
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
// table's name (annotated shard i of N; one server stores the whole
// table unannotated). The per-shard global row
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
		if n > 1 {
			t.Shard, t.ShardCount = s, n
		}
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

// shardMap returns the upload-time map of one table's shard: the
// global row index of each shard-local row, or nil when this process
// did not upload the table.
func (cl *Cluster) shardMap(table string, shard int) []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if m := cl.shardMaps[table]; shard < len(m) {
		return m[shard]
	}
	return nil
}

// globalRow translates a shard-local row number to the row identity
// reported to callers, given the shard's map from shardMap. With the
// map (the common case: the uploading process is the joining process)
// this is the exact row index of the original plaintext table, so
// results are bit-identical to a single server's. Without one —
// joining from a process that did not do the upload — a deterministic
// injection local*shards+shard is used instead: unique per physical
// row and consistent across the plan's steps, which is all the
// stitcher needs.
func (cl *Cluster) globalRow(m []int, shard, local int) int {
	if local < len(m) {
		return m[local]
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

// merge runs opens[s] on shard s concurrently, skipping nil slots, and
// returns the merged stream of the shards' results of one join of
// tableA and tableB.
func (cl *Cluster) merge(tableA, tableB string, opens []func() (*JoinStream, error)) *clusterStepStream {
	ms := &clusterStepStream{
		batches: make(chan []sql.StepRow, len(opens)),
		quit:    make(chan struct{}),
	}
	var wg sync.WaitGroup
	for s, open := range opens {
		if open == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			revealed, err := cl.runShard(s, tableA, tableB, open, ms)
			if err != nil {
				ms.fail(fmt.Errorf("shard %d (%s): %w", s, cl.clients[s].conn.RemoteAddr(), err))
				return
			}
			ms.mu.Lock()
			ms.revealed += revealed
			ms.mu.Unlock()
		}()
	}
	go func() {
		wg.Wait()
		close(ms.batches)
	}()
	return ms
}

// runShard drains one shard's stream, opened by open, and pushes its
// batches, remapped to global row identities, into the merged stream.
// It returns the shard's revealed-pair count.
//
// Degraded mode: a shard that sheds (ErrOverloaded) is retried with
// jittered exponential backoff on that shard alone — its siblings keep
// streaming. A shed surfaces at submit, or on a sync join's first Next
// (the terminal Err frame precedes any batch), so retrying the whole
// open and drain re-sends a request that delivered nothing.
func (cl *Cluster) runShard(shard int, tableA, tableB string, open func() (*JoinStream, error), ms *clusterStepStream) (int, error) {
	revealed := 0
	err := WithRetry(func() error {
		js, err := open()
		if err != nil {
			return err
		}
		mapA, mapB := cl.shardMap(tableA, shard), cl.shardMap(tableB, shard)
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
					RowL:     cl.globalRow(mapA, shard, r.RowA),
					RowR:     cl.globalRow(mapB, shard, r.RowB),
					PayloadL: r.PayloadA,
					PayloadR: r.PayloadB,
				}
			}
			if !ms.push(rows) {
				js.Close()
				return errors.New("cluster stream closed")
			}
		}
	})
	return revealed, err
}

// Runner returns the sql.Runner whose transport is the whole cluster:
// each plan step compiles to ONE join request — one token set shared by
// every shard — that is scattered, specialized per shard by
// shardJoinReqs, and the merged stream feeds sql.Execute's stitcher
// unchanged. Each shard's request goes through that backend's
// Client.open, exactly as it would on a single server.
func (cl *Cluster) Runner() sql.Runner {
	return sql.Runner{Keys: cl.keys, Open: func(tableL, tableR string, spec engine.JoinSpec) (sql.StepStream, error) {
		req, err := joinReqFromSpec(tableL, tableR, spec)
		if err != nil {
			return nil, err
		}
		reqs := cl.shardJoinReqs(req)
		opens := make([]func() (*JoinStream, error), len(reqs))
		for s, req := range reqs {
			if req != nil {
				opens[s] = func() (*JoinStream, error) { return cl.clients[s].open(req) }
			}
		}
		return cl.merge(tableL, tableR, opens), nil
	}}
}

// ExecutePlan runs a compiled SQL plan scatter-gather: every pairwise
// step fans out to all shards, the merged decrypted intermediates are
// stitched client-side (sql.Execute), and the returned count sums the
// revealed pairs over all steps and shards — by the alignment argument
// above, equal to what one server executing the same plan would report.
func (cl *Cluster) ExecutePlan(p *sql.Plan, emit func(sql.ResultRow) error) (int, error) {
	return sql.Execute(cl.Runner(), p, emit)
}
