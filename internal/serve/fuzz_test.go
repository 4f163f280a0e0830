package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzQueryRequest posts arbitrary bytes as the /v1/query body: the
// server must never panic, must always answer with a JSON body, and must
// never report an internal error (500) for a malformed or hostile
// request (run with `go test -fuzz=FuzzQueryRequest`; the seed corpus
// runs under plain `go test`).
func FuzzQueryRequest(f *testing.F) {
	seeds := []QueryRequest{
		{Query: serveQuery, Params: map[string]string{"k": "odd"}},
		{Query: serveQuery, Params: map[string]string{"k": "even"}, NoCache: true},
		{Query: serveQuery},
		{Query: serveQuery, Params: map[string]string{"k": "odd", "zz": "1"}},
		{Query: serveQuery, Params: map[string]string{"k": "odd"}, TimeoutMillis: 1e13},
		{Query: "SELEC oops"},
		{Query: "PATTERN n1 { ?A; }\nSELECT ID, COUNTP(n1, SUBGRAPH(ID, 1)) FROM nodes", MaxRows: 3, NoCache: true},
		{Query: "PATTERN e1 { ?A-?B; }\nSELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes;\nSELECT ID, COUNTP(e1, SUBGRAPH(ID, 2)) FROM nodes"},
		{Query: "PATTERN e1 { ?A-?B; }\nSELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes;\nSELECT ID FROM nodes", Params: map[string]string{"k": "x"}},
		{Query: serveQuery, Params: map[string]string{"k": "odd"}, TimeoutMillis: 1, MaxRows: 1},
	}
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, raw := range []string{"", "{", "null", "[]", `{"query":42}`, `{"query":"x","timeout_ms":-1,"max_rows":-5}`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(t, Config{DefaultTimeout: 100 * time.Millisecond, MaxTimeout: 100 * time.Millisecond})
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("status 500 for body %q: %s", body, w.Body.String())
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON response body for %q: %q", w.Code, body, w.Body.String())
		}
	})
}
