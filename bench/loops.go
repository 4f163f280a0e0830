package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

// respKey identifies one distinct answer: the same statement, bucket and
// graph version must always return the same rows.
type respKey struct {
	stmt, bucket int
	epoch        uint64
}

// observed is the first response seen for a key, kept to be compared
// row for row with the reference after the loop, and how many responses
// carried that key.
type observed struct {
	hash  uint64
	rows  [][]string
	count int
}

// wireSample is what one response said about itself, kept only when
// tracing.
type wireSample struct {
	client  time.Duration // client-observed latency
	elapsed time.Duration // server-side elapsed_us
	stats   core.ExecStatsJSON
	bytes   int
	// resp is kept for the first encodeSamples responses of a client
	// only: the encode probe re-marshals those.
	resp *serve.QueryResponse
}

const encodeSamples = 100

// queryObs is what the query loop's clients gathered besides latencies.
type queryObs struct {
	seen map[respKey]*observed
	// conflicts counts responses whose key another client saw answered
	// with different rows: wrong whatever the reference says.
	conflicts int
	wire      []wireSample
}

func hashRows(rows [][]string) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		for _, c := range r {
			io.WriteString(h, c)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// observe records a response under its key. It reports false, and does
// not count the response, when an earlier response with the same key had
// different rows.
func (o *queryObs) observe(k respKey, rows [][]string) bool {
	h := hashRows(rows)
	if first, ok := o.seen[k]; ok {
		if first.hash != h {
			return false
		}
		first.count++
		return true
	}
	o.seen[k] = &observed{hash: h, rows: rows, count: 1}
	return true
}

func (o *queryObs) merge(p *queryObs) {
	o.conflicts += p.conflicts
	o.wire = append(o.wire, p.wire...)
	for k, v := range p.seen {
		first, ok := o.seen[k]
		switch {
		case !ok:
			o.seen[k] = v
		case first.hash == v.hash:
			first.count += v.count
		default:
			o.conflicts += v.count
		}
	}
}

// queryLoop runs the closed loop of queryClients keep-alive HTTP clients
// until q has no operation left. An operation is timed from just
// before the POST until the JSON rows are decoded. A nil tracer means the
// warm-up or the untraced pass. everyKey makes the clients cycle through
// every key whatever the workload's skew: the warm-up uses it so the
// caches are full when timing starts.
func (e *env) queryLoop(ctx context.Context, q *quota, tr *tracer, everyKey bool) (*opLog, *queryObs) {
	logs := make([]*opLog, queryClients)
	obs := make([]*queryObs, queryClients)
	var wg sync.WaitGroup
	for c := 0; c < queryClients; c++ {
		logs[c] = &opLog{}
		obs[c] = &queryObs{seen: map[respKey]*observed{}}
		stream := newRequestStream(e.in, c, everyKey)
		wg.Add(1)
		go func(log *opLog, ob *queryObs) {
			defer wg.Done()
			for ctx.Err() == nil && q.take() {
				e.queryOp(ctx, stream.next(), log, ob, tr)
			}
		}(logs[c], obs[c])
	}
	wg.Wait()
	all, seen := logs[0], obs[0]
	for c := 1; c < queryClients; c++ {
		all.merge(logs[c])
		seen.merge(obs[c])
	}
	return all, seen
}

func (e *env) queryOp(ctx context.Context, rq request, log *opLog, ob *queryObs, tr *tracer) {
	op := tr.newOp()
	root := tr.start("bench.query_op", nil, op)
	t0 := time.Now()

	rt := tr.start("serve.roundtrip", root, op)
	body, status, err := e.post(ctx, rq.body)
	rt.end()

	var resp serve.QueryResponse
	if err == nil && status == http.StatusOK {
		dec := tr.start("bench.decode", root, op)
		err = json.Unmarshal(body, &resp)
		dec.end()
	}
	lat := time.Since(t0)
	ok := err == nil && status == http.StatusOK && len(resp.Tables) == 1
	if ok {
		t := resp.Tables[0]
		vs := tr.start("bench.verify", root, op)
		// Only every epochSampleStep-th version of a live graph is checked:
		// the reference for a version costs a full ND-BAS census.
		if t.Epoch%epochSampleStep == 0 {
			ok = ob.observe(respKey{rq.stmt, rq.bucket, t.Epoch}, t.Rows)
		}
		vs.end()
		if tr != nil {
			ws := wireSample{
				client:  lat,
				elapsed: time.Duration(resp.ElapsedMicros) * time.Microsecond,
				stats:   t.Stats,
				bytes:   len(body),
			}
			if len(ob.wire) < encodeSamples {
				ws.resp = &resp
			}
			ob.wire = append(ob.wire, ws)
		}
	}
	root.end()
	log.record(t0, lat, ok)
}

func (e *env) post(ctx context.Context, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// serverStats fetches GET /v1/stats.
func (e *env) serverStats(ctx context.Context) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// coldText is the statement of the cold-open path: the workload's first
// statement with the seeded bucket bound as a literal, since a one-shot
// Execute takes no parameters.
func (e *env) coldText() (text string, bucket int) {
	bucket = int(subSeed(e.in.seed, 11) % int64(e.in.wl.buckets))
	return strings.Replace(e.in.wl.stmts[0].text, "$b", "'"+bucketName(bucket)+"'", 1), bucket
}

// coldOpenLoop runs the closed loop of one caller opening the image
// afresh each time: Open → engine → Execute → first table → Close. The
// table is compared with the reference rows (computed once, before the
// first op) outside the timed interval.
func (e *env) coldOpenLoop(ctx context.Context, q *quota, tr *tracer) *opLog {
	log := &opLog{}
	text, bucket := e.coldText()
	if e.coldRef == nil {
		ref, err := referenceRows(ctx, e.in.g, e.in.wl.stmts[0], e.in.bucketNodes[bucket])
		if err != nil {
			log.attempted, log.failed = 1, 1
			return log
		}
		e.coldRef = ref
	}
	for ctx.Err() == nil && q.take() {
		op := tr.newOp()
		root := tr.start("bench.cold_op", nil, op)
		t0 := time.Now()

		sp := tr.start("storage.Open", root, op)
		store, err := storage.Open(e.image, 0)
		sp.end()
		var tables []*core.Table
		if err == nil {
			sp = tr.start("core.Execute", root, op)
			eng := core.NewEngineFromSource(store)
			eng.Opt.Workers = core.EffectiveWorkers(core.DefaultWorkers())
			tables, err = eng.ExecuteContext(ctx, text)
			sp.end()
			sp = tr.start("storage.Close", root, op)
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			sp.end()
		}
		lat := time.Since(t0)
		root.end()
		log.record(t0, lat, err == nil && len(tables) == 1 && equalRows(tables[0].Rows, e.coldRef))
	}
	return log
}

// ingestBatch stages batchEdges edges from the stream and publishes them.
// It returns once the batch is durable and visible; ok reports that the
// publish succeeded and the visible version is the acknowledged one.
func (e *env) ingestBatch(tr *tracer, parent *active, op int64) (ok bool) {
	w := e.ds.Writer()
	sp := tr.start("graph.AddEdge", parent, op)
	for j := 0; j < batchEdges; j++ {
		w.AddEdge(e.edges.next())
	}
	sp.end()
	sp = tr.start("graph.Publish", parent, op)
	snap, err := w.Publish()
	sp.end()
	e.batches++
	if err != nil {
		return false
	}
	e.ackEpoch = snap.Epoch()
	return e.ds.Snapshot().Epoch() == e.ackEpoch && snap.Epoch() == uint64(e.batches)
}

// ingestLoop runs the closed loop of one caller publishing batches.
func (e *env) ingestLoop(q *quota, tr *tracer) *opLog {
	log := &opLog{}
	for q.take() {
		op := tr.newOp()
		root := tr.start("bench.ingest_op", nil, op)
		t0 := time.Now()
		ok := e.ingestBatch(tr, root, op)
		lat := time.Since(t0)
		root.end()
		e.publishes = append(e.publishes, interval{from: t0, to: t0.Add(lat)})
		log.record(t0, lat, ok)
	}
	return log
}

// writerLoop is the open-loop writer: one batch every writerInterval,
// due times fixed in advance, until done is closed. A batch is timed from
// when it was due, so a stall delays and lengthens the batches behind it;
// lateness is how long after its due time each batch started.
func (e *env) writerLoop(done <-chan struct{}, tr *tracer) (log *opLog, lateness []time.Duration) {
	log = &opLog{}
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writerInterval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-done:
				return log, lateness
			case <-time.After(wait):
			}
		}
		select {
		case <-done:
			return log, lateness
		default:
		}
		began := time.Now()
		lateness = append(lateness, began.Sub(due))
		op := tr.newOp()
		root := tr.start("bench.ingest_op", nil, op)
		ok := e.ingestBatch(tr, root, op)
		root.end()
		end := time.Now()
		e.publishes = append(e.publishes, interval{from: began, to: end})
		log.record(due, end.Sub(due), ok)
	}
}
