package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/storage"
)

// QueryRequest is the JSON body of POST /query.
type QueryRequest struct {
	// Pattern is the query, e.g. "A->B; B->C".
	Pattern string `json:"pattern"`
	// Algorithm selects the planner: "dp", "dps" (default), "wcoj".
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMS bounds the query's server-side execution in milliseconds.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Limit truncates the returned rows (0 = all). The limit is pushed
	// into plan execution — rows beyond it are never materialised;
	// Truncated reports whether rows were dropped.
	Limit int `json:"limit,omitempty"`
}

// QueryResponse is the JSON body answering POST /query. The handler does
// not build one: it formats the same bytes from the executor's result
// (writeQueryResponse); the type is what clients decode into.
type QueryResponse struct {
	Cols       []string         `json:"cols"`
	Rows       [][]graph.NodeID `json:"rows"`
	RowCount   int              `json:"row_count"`
	Truncated  bool             `json:"truncated,omitempty"`
	PlanCached bool             `json:"plan_cached"`
	ElapsedMS  float64          `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /query   — evaluate a pattern (JSON QueryRequest → QueryResponse)
//	POST /insert  — apply edge inserts (JSON InsertRequest → InsertResult)
//	POST /delete  — apply edge deletes (JSON DeleteRequest → DeleteResult)
//	GET  /stats   — metrics snapshot (JSON Stats)
//	GET  /healthz — liveness ("ok", 503 once the database is closed)
//
// Admission-control rejections map to 429 with a Retry-After header,
// per-request deadline expiry to 504, resource-budget kills to 422, a
// closed database or an exhausted buffer pool to 503, and oversized
// request bodies to 413. Malformed requests and unanswerable patterns are
// 400; anything unclassified is a server fault and answers 500. With
// Config.ReadOnly set, every mutating route answers 403.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	for pat, h := range mutatingRoutes {
		mux.HandleFunc(pat, s.guardMutating(h))
	}
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// mutatingRoutes is the single registry of state-changing endpoints. Every
// entry is wired through guardMutating, so a writer route registered here
// cannot dodge the read-only guard; handlers registered anywhere else in
// Handler must be read-only.
var mutatingRoutes = map[string]func(*Server, http.ResponseWriter, *http.Request){
	"POST /insert": (*Server).handleInsert,
	"POST /delete": (*Server).handleDelete,
}

// MutatingRoutePatterns lists the registered mutating route patterns
// (method + path), sorted; tests iterate it to prove each one is guarded.
func MutatingRoutePatterns() []string {
	pats := make([]string, 0, len(mutatingRoutes))
	for p := range mutatingRoutes {
		pats = append(pats, p)
	}
	sort.Strings(pats)
	return pats
}

// guardMutating rejects the request with 403 when the server is
// read-only, and dispatches to h otherwise.
func (s *Server) guardMutating(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ReadOnly {
			writeError(w, http.StatusForbidden, errors.New("server is read-only"))
			return
		}
		h(s, w, r)
	}
}

// decodeBody strictly decodes r's body into v before any work happens, so
// an oversized or garbage payload cannot balloon memory ahead of admission
// control: the body is bounded by MaxRequestBytes, unknown fields are
// errors, and it must hold exactly one JSON value — anything after it is an
// error too, where a bare Decode would ignore it. On failure decodeBody
// answers 413 (body too large) or 400 itself and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("unexpected data after the JSON body")
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Pattern == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"pattern\""))
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, errors.New("negative \"limit\""))
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, errors.New("negative \"timeout_ms\""))
		return
	}
	if int64(req.TimeoutMS) > int64(math.MaxInt64/time.Millisecond) {
		writeError(w, http.StatusBadRequest, errors.New("\"timeout_ms\" does not fit in a duration"))
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	p, algo, err := s.parse(req.Pattern, req.Algorithm)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	res, err := s.run(ctx, p, algo, QueryOptions{Limit: req.Limit})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// The slot and the epoch are already released: encoding and writing a
	// large body must not hold either.
	start := time.Now()
	n, _ := writeQueryResponse(w, res) // a failed write is a client that went away
	s.met.recordEncode(time.Since(start), n)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.db.Closed() {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// statusFor maps query errors to HTTP status codes. Only errors the client
// caused classify as 4xx: malformed/unanswerable queries (ErrBadQuery),
// overload (429, so well-behaved clients back off and retry), deadline and
// cancellation, and resource-budget kills (422). Everything unrecognised —
// storage I/O failures, executor invariants — is a server fault: 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, gdb.ErrClosed), errors.Is(err, storage.ErrPoolExhausted):
		return http.StatusServiceUnavailable
	case errors.Is(err, rjoin.ErrRowLimit), errors.Is(err, rjoin.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
