package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/fault"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

// env is the program under test as one workload kind needs it, built the
// way the shipped commands build it: cmd/egoserve's engine and server
// defaults, storage's default WAL retry and fsync-per-publish policy.
type env struct {
	in    *inputs
	dir   string // private temp directory, removed by close
	image string // the saved .egoc base image

	// kindQuery: a static store behind the engine. kindIngest/kindMixed:
	// a durable dynamic store on a counting filesystem.
	store *storage.Store
	ds    *storage.DynamicStore
	fs    *countFS

	engine   *core.Engine
	srv      *serve.Server
	httpSrv  *http.Server
	serveErr chan error
	url      string
	client   *http.Client

	edges     *edgeStream
	batches   int        // batches published so far, warm-up included
	ackEpoch  uint64     // epoch of the last acknowledged publish
	publishes []interval // wall-clock span of every batch, for stall attribution

	coldRef [][]string // reference rows of the cold-open statement
}

// setup generates the inputs from the seed, saves the image, and brings
// up what the workload's kind needs, then runs the warm-up operations.
// Everything here is what setup_s reports.
func setup(ctx context.Context, wl *workload, seed int64, outDir string) (_ *env, err error) {
	e := &env{in: newInputs(wl, seed)}
	if e.dir, err = os.MkdirTemp(outDir, "tmp-"+wl.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.image = filepath.Join(e.dir, "graph.egoc")

	switch wl.kind {
	case kindQuery:
		if err = storage.Save(e.image, e.in.g); err != nil {
			return nil, err
		}
		if e.store, err = storage.Open(e.image, 0); err != nil {
			return nil, err
		}
		e.engine = core.NewEngineFromSource(e.store)
	case kindColdOpen:
		if err = storage.Save(e.image, e.in.g); err != nil {
			return nil, err
		}
	case kindIngest, kindMixed:
		e.fs = newCountFS(fault.OS{})
		if e.ds, err = storage.CreateDynamicShardedFS(e.fs, e.image, e.in.g, wl.shards); err != nil {
			return nil, err
		}
		e.ds.SetCompactAtBytes(wl.compactAt)
		e.edges = newEdgeStream(e.in)
		if wl.kind == kindMixed {
			e.engine = core.NewEngineLiveSharded(e.ds.Writer())
		}
	}
	if e.engine != nil {
		e.engine.Opt.Workers = core.EffectiveWorkers(core.DefaultWorkers())
		e.engine.Seed = 1
		e.engine.ConfigureCaches(core.DefaultPlanCacheEntries, core.DefaultResultCacheBytes)
		if err = e.listen(); err != nil {
			return nil, err
		}
	}
	if err = e.warmUp(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// listen serves the engine on a loopback TCP port, as egoserve would.
func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = serve.New(e.engine, serve.Config{})
	e.httpSrv = &http.Server{Handler: e.srv}
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        queryClients,
		MaxIdleConnsPerHost: queryClients,
	}}
	return nil
}

// warmUpGiveUp bounds the warm-up of one set-up.
const warmUpGiveUp = time.Minute

// warmUp runs the workload's untimed operations: caches fill, lazy
// indexes build and the keep-alive connections open before timing starts.
func (e *env) warmUp(ctx context.Context) error {
	wl := e.in.wl
	var ops *opLog
	switch wl.kind {
	case kindQuery, kindMixed:
		// One request alone before the second client connects: two first
		// queries racing on a cold storage.Store hydrate it twice at once
		// and crash in its unsynchronised block cache (see README,
		// "Found while building this").
		solo := &opLog{}
		e.queryOp(ctx, newRequestStream(e.in, 0, true).next(), solo, &queryObs{seen: map[respKey]*observed{}}, nil)
		ops, _ = e.queryLoop(ctx, newQuota(wl.warmOps, warmUpGiveUp), nil, true)
		ops.merge(solo)
	case kindColdOpen:
		ops = e.coldOpenLoop(ctx, newQuota(wl.warmOps, warmUpGiveUp), nil)
	case kindIngest:
		ops = e.ingestLoop(newQuota(wl.warmOps, warmUpGiveUp), nil)
	}
	if ops.failed > 0 || ops.attempted < wl.warmOps {
		return fmt.Errorf("warm-up: %d of %d operations failed, %d attempted", ops.failed, wl.warmOps, ops.attempted)
	}
	return nil
}

// close shuts the server down gracefully, waits for its goroutine, closes
// the stores and removes the temp directory, so nothing of one workload
// runs or lingers into the next.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.client.CloseIdleConnections()
	}
	if e.store != nil {
		errs = append(errs, e.store.Close())
	}
	if e.ds != nil {
		errs = append(errs, e.ds.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// settle waits for a background compaction the loop may have left in
// flight: LogStats takes the lock a compaction holds from start to end.
// The second copy of the graph a compaction holds is not retained state,
// and whether one happens to be running when the window ends is chance.
func (e *env) settle() {
	if e.ds != nil {
		e.ds.LogStats()
	}
}
