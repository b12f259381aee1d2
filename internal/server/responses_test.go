package server

import "hummer"

// The response shapes the handlers append, as decode targets for the
// tests.

// cellLineage is one cell's provenance: the contributing source rows.
type cellLineage struct {
	Column  string   `json:"column"`
	Origins []string `json:"origins"`
}

type queryResponse struct {
	Columns  []string              `json:"columns"`
	Rows     [][]any               `json:"rows"`
	RowCount int                   `json:"row_count"`
	Fusion   *hummer.FusionSummary `json:"fusion,omitempty"`
	Lineage  [][]cellLineage       `json:"lineage,omitempty"`
	TraceID  string                `json:"trace_id,omitempty"`
}

type batchStatementResponse struct {
	Columns  []string              `json:"columns,omitempty"`
	Rows     [][]any               `json:"rows,omitempty"`
	RowCount int                   `json:"row_count"`
	Fusion   *hummer.FusionSummary `json:"fusion,omitempty"`
	Lineage  [][]cellLineage       `json:"lineage,omitempty"`
	Error    string                `json:"error,omitempty"`
	Seconds  float64               `json:"seconds"`
}

type batchResponse struct {
	Results []batchStatementResponse `json:"results"`
}

type sourceResponse struct {
	Alias       string   `json:"alias"`
	Generation  uint64   `json:"generation"`
	Fingerprint string   `json:"fingerprint"`
	Columns     []string `json:"columns"`
	RowCount    int      `json:"row_count"`
	Rows        [][]any  `json:"rows"`
}
