package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"egocensus/internal/core"
	"egocensus/internal/graph"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.New(false)
	g.AddNodes(30)
	for i := 0; i < 70; i++ {
		a := graph.NodeID(rng.Intn(30))
		b := graph.NodeID(rng.Intn(30))
		if a != b {
			g.AddEdge(a, b)
		}
	}
	for i := 0; i < 30; i++ {
		kind := "even"
		if i%2 == 1 {
			kind = "odd"
		}
		g.SetNodeAttr(graph.NodeID(i), "kind", kind)
	}
	return New(core.NewEngine(g), cfg)
}

func postQuery(t *testing.T, s *Server, req QueryRequest) (*httptest.ResponseRecorder, *QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, w.Body.String())
	}
	return w, &resp
}

const serveQuery = `
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k
`

func TestServeQueryPreparedReuse(t *testing.T) {
	s := testServer(t, Config{})
	w, resp := postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}})
	if resp == nil {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Tables) != 1 {
		t.Fatalf("tables = %d", len(resp.Tables))
	}
	cold := resp.Tables[0]
	if cold.Stats.PlanCached || cold.Stats.ResultCached {
		t.Fatalf("cold request reported cache hits: %+v", cold.Stats)
	}

	// Same text, same params: whole table from the result cache.
	_, resp = postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}})
	if !resp.Tables[0].Stats.ResultCached {
		t.Fatalf("repeat request missed the result cache: %+v", resp.Tables[0].Stats)
	}
	// Same text, new params: prepared + plan reused, census re-runs.
	_, resp = postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "even"}})
	st := resp.Tables[0].Stats
	if !st.PlanCached || st.ResultCached {
		t.Fatalf("rebound request: %+v", st)
	}
	if n := s.statementCount(); n != 1 {
		t.Fatalf("prepared statements = %d, want 1", n)
	}
}

func TestServeMultiStatementFallback(t *testing.T) {
	s := testServer(t, Config{})
	query := `
PATTERN e1 { ?A-?B; }
SELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes;
SELECT ID, COUNTP(e1, SUBGRAPH(ID, 2)) FROM nodes
`
	w, resp := postQuery(t, s, QueryRequest{Query: query})
	if resp == nil {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(resp.Tables))
	}
	// Params cannot ride the script path.
	w, _ = postQuery(t, s, QueryRequest{Query: query, Params: map[string]string{"k": "x"}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("script + params: status %d", w.Code)
	}
}

func TestServeBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"empty", QueryRequest{}, http.StatusBadRequest},
		{"parse error", QueryRequest{Query: "SELEC oops"}, http.StatusBadRequest},
		{"missing param", QueryRequest{Query: serveQuery}, http.StatusBadRequest},
		{"unknown param", QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd", "zz": "1"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w, _ := postQuery(t, s, tc.req); w.Code != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	// Malformed JSON.
	r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte("{")))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", w.Code)
	}
}

func TestServeMaxRowsLimit(t *testing.T) {
	s := testServer(t, Config{})
	query := `
PATTERN n1 { ?A; }
SELECT ID, COUNTP(n1, SUBGRAPH(ID, 1)) FROM nodes
`
	w, _ := postQuery(t, s, QueryRequest{Query: query, MaxRows: 3, NoCache: true})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("row-limited query: status %d (%s)", w.Code, w.Body.String())
	}
	var resp ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial == nil || len(resp.Partial.Rows) == 0 {
		t.Fatalf("limit stop should carry partial rows: %+v", resp)
	}
}

// TestServeHugeTimeoutCapped posts timeout_ms values whose Duration
// (ms × 1e6 ns) overflows int64: they must be capped at MaxTimeout, not
// wrap negative and cancel the query before it starts.
func TestServeHugeTimeoutCapped(t *testing.T) {
	s := testServer(t, Config{})
	for _, ms := range []int64{math.MaxInt64, 1e13} {
		req := QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}, TimeoutMillis: ms, NoCache: true}
		if w, resp := postQuery(t, s, req); resp == nil {
			t.Fatalf("timeout_ms=%d: status %d (%s)", ms, w.Code, w.Body.String())
		}
	}
}

func TestServeAdmissionControl(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the only execution slot and the only queue slot directly.
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// This waiter fills the single queue slot until cancelled.
		if _, err := s.acquire(waiterCtx); err == nil {
			t.Error("queued waiter acquired while slot held")
		}
	}()
	for s.queued.Load() == 0 {
		runtime.Gosched()
	}

	// Slot busy, queue full: the request is shed with 429.
	w, _ := postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	cancelWaiter()
	wg.Wait()
	release()

	// Drained: the same request succeeds.
	w, resp := postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}})
	if resp == nil {
		t.Fatalf("after drain: status %d (%s)", w.Code, w.Body.String())
	}
	if s.rejected.Load() == 0 {
		t.Fatal("rejection counter not incremented")
	}
}

func TestServeStatsAndHealth(t *testing.T) {
	s := testServer(t, Config{})
	if _, resp := postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": "odd"}}); resp == nil {
		t.Fatal("seed query failed")
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 30 || st.Requests == 0 || st.Statements != 1 {
		t.Fatalf("stats = %+v", st)
	}

	r = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
}

// TestStressServeConcurrentClients hammers one server from many goroutines
// with mixed bindings while a tiny queue forces rejections; every accepted
// response must be well-formed and every rejection must be a clean 429.
func TestStressServeConcurrentClients(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	var wg sync.WaitGroup
	var ok, shed int
	var mu sync.Mutex
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := "odd"
				if (c+i)%2 == 0 {
					k = "even"
				}
				w, resp := postQuery(t, s, QueryRequest{Query: serveQuery, Params: map[string]string{"k": k}})
				mu.Lock()
				switch {
				case resp != nil:
					ok++
				case w.Code == http.StatusTooManyRequests:
					shed++
				default:
					t.Errorf("client %d: status %d (%s)", c, w.Code, w.Body.String())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("served %d, shed %d", ok, shed)
}
