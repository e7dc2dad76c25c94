// The endpoint table: the one place that says which query endpoints exist
// and how a request body becomes a keyed, evaluable query. The replica's
// handler and SLO middleware, the routing tier's key and local fallback,
// and the mrmap -json mode all read it, so every tier that can answer a
// request answers it with the same decoder and the same function.

package mapd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Request is a wire request struct (*MapRequest, *AdviseRequest, …);
// parse validates it into its canonical Query. Errors wrap ErrBadRequest.
type Request interface {
	parse() (Query, error)
}

// Query is a parsed, validated request.
type Query interface {
	// Key is the canonical cache key, which routers also hash: requests
	// that differ only in surface syntax ("2x2x4" vs "[2, 2, 4]", "0-1-2"
	// vs "0,1,2") share a key.
	Key() string
	// Degraded answers the query without an order search, flagged
	// degraded:true — the σ-order fallback for advise and map/matrix, the
	// exact (cheap, deterministic) evaluation for the rest. A replica
	// serves it while its breaker is open and a routing tier when no
	// replica can answer. Errors wrap ErrBadRequest.
	Degraded() (any, error)
	// stat is the request's workload-analytics attribution.
	stat() statInfo
	// eval is the full evaluation. Errors wrap ErrBadRequest except when
	// the context is cancelled.
	eval(ctx context.Context) (any, error)
}

// searchQuery is a Query answered by an order search (advise, map/matrix).
// A Server runs those behind its circuit breaker with its hooks and
// search metrics, and serves the fallback while the breaker is open.
type searchQuery interface {
	Query
	search(ctx context.Context, s *Server) (any, error)
	// fallback is Degraded plus the server's accounting of it as a search
	// that began at start.
	fallback(s *Server, start time.Time) (any, error)
}

// Endpoint is one row of the table.
type Endpoint struct {
	Path string // URL path, served with POST
	Name string // endpoint label of metrics, SLOs and workload analytics
	// newRequest returns the endpoint's empty wire struct.
	newRequest func() Request
}

var endpoints = []Endpoint{
	{"/v1/map", "map", func() Request { return new(MapRequest) }},                              // Algorithms 1–2
	{"/v1/map/matrix", "map_matrix", func() Request { return new(MatrixMapRequest) }},          // procmap placement
	{"/v1/advise", "advise", func() Request { return new(AdviseRequest) }},                     // §5 order ranking
	{"/v1/select", "select", func() Request { return new(SelectRequest) }},                     // Algorithm 3
	{"/v1/metrics/order", "metrics_order", func() Request { return new(OrderMetricsRequest) }}, // §3.3
}

// Endpoints returns the query endpoints.
func Endpoints() []Endpoint { return append([]Endpoint(nil), endpoints...) }

func lookupEndpoint(path string) (Endpoint, bool) {
	for _, e := range endpoints {
		if e.Path == path {
			return e, true
		}
	}
	return Endpoint{}, false
}

// Parse decodes a request body strictly — unknown fields and anything after
// the request object are errors, so typos fail loudly instead of silently
// evaluating defaults — and validates it. Errors wrap ErrBadRequest.
func (e Endpoint) Parse(body []byte) (Query, error) {
	req := e.newRequest()
	if m, ok := req.(*MatrixMapRequest); ok && m.decodeStrict(body) {
		return req.parse() // see parse.go: the strict subset goes first
	} else if ok {
		req = e.newRequest() // a declined decode may have filled part of req
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, badf("invalid JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badf("invalid JSON: trailing data after request object")
	}
	return req.parse()
}

// RoutingKey parses the request body for the given API path and returns
// the canonical cache key the serving pipeline uses for it, so a
// consistent-hash routing tier sends every syntactic variant of the same
// logical query to the replica already holding the warm cache entry.
// Errors wrap ErrBadRequest (malformed body) or name an unroutable path.
func RoutingKey(path string, body []byte) (string, error) {
	e, ok := lookupEndpoint(path)
	if !ok {
		return "", fmt.Errorf("mapd: no routing key for path %q", path)
	}
	q, err := e.Parse(body)
	if err != nil {
		return "", err
	}
	return q.Key(), nil
}

// Eval answers a request in process: no HTTP, no caching. The mrmap -json
// mode calls it, so CLI and API outputs are byte-for-byte diffable. The
// answer is the request's response struct (*MapResponse for a
// *MapRequest, …). Errors wrap ErrBadRequest except when the context is
// cancelled.
func Eval(ctx context.Context, req Request) (any, error) {
	q, err := req.parse()
	if err != nil {
		return nil, err
	}
	return q.eval(ctx)
}
