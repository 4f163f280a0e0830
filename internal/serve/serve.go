// Package serve is the HTTP/JSON serving front end over a census engine:
// a concurrent query endpoint with prepared-statement reuse, admission
// control, and per-request resource knobs. cmd/egoserve wires it to a
// stored graph; tests and benchmarks drive the handler directly.
//
// Endpoints:
//
//	POST /v1/query — execute a census request (see QueryRequest)
//	GET  /v1/stats — graph version, cache counters, admission gauges
//	GET  /healthz  — liveness probe
//
// Every request with exactly one SELECT runs through a prepared statement
// cached by query text, so repeated requests share the engine's
// epoch-keyed plan and result caches. Multi-statement scripts fall back
// to one-shot execution (and cannot carry parameters).
//
// Admission control bounds the work in flight: at most MaxInFlight
// queries execute concurrently, at most MaxQueue more wait for a slot,
// and everything beyond that is rejected immediately with HTTP 429 — the
// server sheds load instead of queueing unboundedly.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"egocensus/internal/core"
)

// Config tunes the server; the zero value picks sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default:
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot (default: 4×
	// MaxInFlight). Requests arriving beyond the queue are rejected with
	// HTTP 429.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default: 30s). MaxTimeout caps what a request may ask for
	// (default: 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body (default: 1 MiB).
	MaxBodyBytes int64
	// BreakerThreshold is how many consecutive internal errors trip a
	// statement's circuit breaker open (default: 5; negative disables the
	// breakers).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects before
	// letting a half-open probe through (default: 5s).
	BreakerCooldown time.Duration
	// UnhealthyAfter is how many consecutive internal failures (any
	// statement, panics included) flip /healthz to 503 (default: 3).
	UnhealthyAfter int
	// WriteHealth, when set, reports the storage write path's health; a
	// non-nil result marks the server degraded (read-only) on /healthz
	// without failing the probe. cmd/egoserve wires the graph writer's
	// Degraded method here.
	WriteHealth func() error
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.maxInFlight()
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout > 0 {
		return c.DefaultTimeout
	}
	return 30 * time.Second
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 5 * time.Minute
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold != 0 {
		return c.BreakerThreshold
	}
	return 5
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 5 * time.Second
}

func (c Config) unhealthyAfter() int {
	if c.UnhealthyAfter > 0 {
		return c.UnhealthyAfter
	}
	return 3
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the census text: optional PATTERN definitions and one or
	// more SELECT statements. Single-SELECT requests are served through a
	// prepared statement and may reference $name parameters.
	Query string `json:"query"`
	// Params binds the statement's $name parameters.
	Params map[string]string `json:"params,omitempty"`
	// TimeoutMillis bounds evaluation wall-clock time for this request
	// (0: the server default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// MaxRows caps result rows for this request (0: unlimited).
	MaxRows int `json:"max_rows,omitempty"`
	// NoCache bypasses the result cache: the query runs fully and its
	// table is not stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Tables []core.TableJSON `json:"tables"`
	// ElapsedMicros is the server-side wall time of the whole request
	// (admission wait included).
	ElapsedMicros int64 `json:"elapsed_us"`
}

// ErrorResponse is the body of a failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	// Partial carries the rows a deadline- or limit-stopped query produced
	// before it was cut off.
	Partial *core.TableJSON `json:"partial,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Epoch      uint64          `json:"epoch"`
	Nodes      int             `json:"nodes"`
	Edges      int             `json:"edges"`
	Cache      core.CacheStats `json:"cache"`
	InFlight   int64           `json:"in_flight"`
	Queued     int64           `json:"queued"`
	Requests   uint64          `json:"requests"`
	Rejected   uint64          `json:"rejected"`
	Statements int             `json:"prepared_statements"`
	// Health mirrors /healthz: "ok", "degraded", or "unhealthy".
	Health string `json:"health"`
	// Panics counts handler panics caught by the recovery middleware.
	Panics uint64 `json:"panics"`
	// OpenBreakers and BreakerTrips describe the per-statement circuit
	// breakers: how many are currently rejecting, and lifetime trips.
	OpenBreakers int    `json:"open_breakers"`
	BreakerTrips uint64 `json:"breaker_trips"`
	// P50Micros is the median latency of the recent successful queries.
	P50Micros int64 `json:"p50_us"`
	// PlanEvictions and ResultEvictions flatten the caches' lifetime
	// eviction counters (also nested under Cache) so monitors can alert
	// on cache churn without digging into the nested objects.
	PlanEvictions   uint64 `json:"plan_evictions"`
	ResultEvictions uint64 `json:"result_evictions"`
}

// Server is the HTTP front end over one engine. Create with New; it
// implements http.Handler.
type Server struct {
	e   *core.Engine
	cfg Config
	mux *http.ServeMux

	sem      chan struct{}
	queued   atomic.Int64
	inFlight atomic.Int64
	requests atomic.Uint64
	rejected atomic.Uint64

	// Self-healing state (health.go): caught panics, the
	// consecutive-internal-failure gauge behind the unhealthy state, and
	// the recent-latency ring behind adaptive Retry-After.
	panics         atomic.Uint64
	consecInternal atomic.Int64
	lat            latencyRing

	mu       sync.Mutex
	prepared map[string]*core.Prepared
	breakers map[string]*breaker
}

// New returns a server over e.
func New(e *core.Engine, cfg Config) *Server {
	s := &Server{
		e:        e,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.maxInFlight()),
		prepared: map[string]*core.Prepared{},
		breakers: map[string]*breaker{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler. All routes run under panic
// recovery: a panicking handler becomes a 500 (when the response has not
// started), counts toward the unhealthy threshold, and never takes the
// process down with it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			s.consecInternal.Add(1)
			log.Printf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError, ErrorResponse{Error: "internal server error"})
			}
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// statusWriter tracks whether the response has started, so the panic
// middleware knows if a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

// errBusy is the admission-control rejection.
var errBusy = errors.New("serve: saturated — execution slots and wait queue are full")

// acquire admits one execution: immediately when a slot is free, after a
// bounded wait when the queue has room, and with errBusy otherwise.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	free := func() { s.inFlight.Add(-1); <-s.sem }
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return free, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.maxQueue()) {
		s.queued.Add(-1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return free, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// preparedFor returns the cached prepared statement for a query text,
// preparing it on first use. Serialized so concurrent first requests for
// one text never race on pattern definition.
func (s *Server) preparedFor(text string) (*core.Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.prepared[text]; ok {
		return p, nil
	}
	p, err := s.e.Prepare(text)
	if err != nil {
		return nil, err
	}
	s.prepared[text] = p
	return p, nil
}

// statementCount reports the prepared-statement cache size.
func (s *Server) statementCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.prepared)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	var req QueryRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxBodyBytes()+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	if int64(len(body)) > s.cfg.maxBodyBytes() {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body exceeds %d bytes", s.cfg.maxBodyBytes()))
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty query"))
		return
	}

	// Circuit breaker: a statement that keeps failing internally is
	// rejected up front instead of burning an execution slot every time.
	var br *breaker
	probe := false
	if s.cfg.breakerThreshold() > 0 {
		br = s.breakerFor(req.Query)
		var wait time.Duration
		var ok bool
		if probe, wait, ok = br.admit(time.Now()); !ok {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterFromCooldown(wait)))
			writeError(w, http.StatusServiceUnavailable,
				errors.New("serve: circuit breaker open — this query has been failing internally; retry after the cooldown"))
			return
		}
	}

	release, err := s.acquire(r.Context())
	if err != nil {
		s.rejected.Add(1)
		if br != nil {
			br.report(probe, false, time.Now())
		}
		status := http.StatusTooManyRequests
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = 499 // client went away while queued
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, status, err)
		return
	}
	defer release()

	timeout := s.cfg.defaultTimeout()
	if req.TimeoutMillis > 0 {
		// Clamp in milliseconds first: the Duration product of a large
		// timeout_ms overflows int64 and would come out negative.
		timeout = time.Duration(min(req.TimeoutMillis, s.cfg.maxTimeout().Milliseconds())) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); timeout > max {
		timeout = max
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	tables, err := s.execute(ctx, &req)
	internal := false
	if err != nil {
		var ie *core.InternalError
		internal = errors.As(err, &ie)
	}
	if br != nil {
		br.report(probe, internal, time.Now())
	}
	if internal {
		s.consecInternal.Add(1)
	} else if err == nil {
		s.consecInternal.Store(0)
		s.lat.add(time.Since(start))
	}
	if err != nil {
		status, resp := errorResponse(err)
		writeJSON(w, status, resp)
		return
	}
	out := QueryResponse{Tables: make([]core.TableJSON, len(tables))}
	for i, t := range tables {
		out.Tables[i] = core.NewTableJSON(t)
	}
	out.ElapsedMicros = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, out)
}

// execute routes a request through the prepared path (single SELECT) or
// the script path (multi-statement, parameter-free).
func (s *Server) execute(ctx context.Context, req *QueryRequest) ([]*core.Table, error) {
	p, err := s.preparedFor(req.Query)
	if errors.Is(err, core.ErrNotOneSelect) {
		if len(req.Params) > 0 {
			return nil, errors.New("serve: params require a single-SELECT query")
		}
		return s.e.ExecuteContext(ctx, req.Query)
	}
	if err != nil {
		return nil, err
	}
	opts := core.ExecOptions{NoResultCache: req.NoCache}
	if req.MaxRows > 0 {
		limits := s.e.Opt.Limits
		limits.MaxResultRows = req.MaxRows
		opts.Limits = &limits
	}
	params := req.Params
	if params == nil {
		params = map[string]string{}
	}
	t, err := p.ExecuteContext(ctx, params, opts)
	if err != nil {
		return nil, err
	}
	return []*core.Table{t}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cache := s.e.CacheStats()
	resp := StatsResponse{
		Cache:           cache,
		PlanEvictions:   cache.Plan.Evictions,
		ResultEvictions: cache.Result.Evictions,
		InFlight:        s.inFlight.Load(),
		Queued:          s.queued.Load(),
		Requests:        s.requests.Load(),
		Rejected:        s.rejected.Load(),
		Statements:      s.statementCount(),
	}
	if st, err := s.e.Stats(); err == nil {
		resp.Epoch, resp.Nodes, resp.Edges = st.Epoch, st.Nodes, st.Edges
	}
	resp.Health, _, _ = s.health()
	resp.Panics = s.panics.Load()
	resp.OpenBreakers, resp.BreakerTrips = s.breakerStats()
	resp.P50Micros = s.lat.p50().Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports the tri-state health model: 200 "ok", 200
// "degraded: <cause>" (writes are read-only, queries fine — probes must
// not kill a serving replica over a storage fault), or 503 "unhealthy:
// <cause>" when the query path itself keeps failing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code, detail := s.health()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	if detail != "" {
		fmt.Fprintf(w, "%s: %s\n", status, detail)
		return
	}
	io.WriteString(w, status+"\n")
}

// errorResponse maps an execution failure to a status code, attaching
// partial results to deadline/limit stops.
func errorResponse(err error) (int, ErrorResponse) {
	resp := ErrorResponse{Error: err.Error()}
	var ce *core.CanceledError
	var le *core.LimitError
	var pe *core.ParamError
	var ie *core.InternalError
	switch {
	case errors.As(err, &ce):
		resp.Partial = partialJSON(ce.PartialTable)
		return http.StatusGatewayTimeout, resp
	case errors.As(err, &le):
		resp.Partial = partialJSON(le.PartialTable)
		return http.StatusUnprocessableEntity, resp
	case errors.As(err, &pe):
		return http.StatusBadRequest, resp
	case errors.As(err, &ie):
		// Keep stacks out of responses; the handler's error string carries
		// the query.
		return http.StatusInternalServerError, ErrorResponse{Error: "internal execution error"}
	default:
		return http.StatusBadRequest, resp
	}
}

func partialJSON(t *core.Table) *core.TableJSON {
	if t == nil {
		return nil
	}
	j := core.NewTableJSON(t)
	return &j
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
