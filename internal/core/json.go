package core

// This file is the JSON rendering of result tables — one shape shared by
// cmd/census -json and the HTTP serving layer, so clients see identical
// structures regardless of transport.

// TableJSON is the wire form of one result table.
type TableJSON struct {
	// Query is the executed statement, rendered canonically.
	Query string `json:"query"`
	// Header and Rows carry the rendered table.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Algorithm is the evaluator that ran (empty for EXPLAIN).
	Algorithm string `json:"algorithm,omitempty"`
	// NumMatches is the global match-set size where applicable.
	NumMatches int `json:"num_matches"`
	// Epoch is the snapshot version the query observed (zero for static
	// sources).
	Epoch uint64 `json:"epoch"`
	// Stats breaks the execution down per pipeline stage.
	Stats ExecStatsJSON `json:"stats"`
}

// ExecStatsJSON is the wire form of ExecStats. Durations are microseconds.
type ExecStatsJSON struct {
	ParseMicros  int64 `json:"parse_us"`
	PlanMicros   int64 `json:"plan_us"`
	PlanCached   bool  `json:"plan_cached"`
	ResultCached bool  `json:"result_cached"`
	FocalMicros  int64 `json:"focal_us"`
	FocalCount   int   `json:"focal_count"`
	CensusMicros int64 `json:"census_us"`
	MatchSetSize int   `json:"match_set_size"`
	Embeddings   int   `json:"embeddings"`
	RenderMicros int64 `json:"render_us"`
	Rows         int   `json:"rows"`
}

// NewTableJSON converts a result table to its wire form.
func NewTableJSON(t *Table) TableJSON {
	out := TableJSON{
		Query:      t.Query.String(),
		Header:     t.Header,
		Rows:       t.Rows,
		Algorithm:  string(t.Algorithm),
		NumMatches: t.NumMatches,
		Epoch:      t.Epoch,
		Stats: ExecStatsJSON{
			ParseMicros:  t.Stats.ParseTime.Microseconds(),
			PlanMicros:   t.Stats.PlanTime.Microseconds(),
			PlanCached:   t.Stats.PlanCached,
			ResultCached: t.Stats.ResultCached,
			FocalMicros:  t.Stats.FocalTime.Microseconds(),
			FocalCount:   t.Stats.FocalCount,
			CensusMicros: t.Stats.CensusTime.Microseconds(),
			MatchSetSize: t.Stats.MatchSetSize,
			Embeddings:   t.Stats.Embeddings,
			RenderMicros: t.Stats.RenderTime.Microseconds(),
			Rows:         t.Stats.Rows,
		},
	}
	if out.Header == nil {
		out.Header = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]string{}
	}
	return out
}
