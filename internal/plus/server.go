package plus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/privilege"
)

// lineageAnswerer lets the server run against either a plain Engine or a
// CachedEngine; handlers always pass the request context so cancellation
// propagates into the closure walk.
type lineageAnswerer interface {
	LineageContext(context.Context, Request) (*Result, error)
}

// Server exposes a store and its query engine over HTTP with a small JSON
// API:
//
//	POST /v1/objects            store an Object
//	POST /v1/edges              store an Edge
//	POST /v1/surrogates         store a SurrogateSpec
//	GET  /v1/objects/{id}       fetch an Object
//	GET  /v1/lineage            lineage query (see LineageResponse)
//	GET  /v1/stats              store statistics
//	GET  /v1/healthz            readiness probe (store open, counts, revision)
//	GET  /v1/opm                export the store as an OPM document
//	POST /v1/opm                import an OPM document
//
// Lineage query parameters: start (required), direction
// (ancestors|descendants|both, default ancestors), depth (int, default 0 =
// unbounded), viewer (predicate nickname, default Public), mode
// (hide|surrogate, default surrogate), label (edge-label filter), kind
// (data|invocation traversal filter).
//
// The server also mounts the v2 surface (see v2.go): principal-scoped
// requests, POST /v2/batch, the durable-cursor change feed GET /v2/changes
// with its GET /v2/snapshot resync payload, POST /v2/sessions (stateless
// signed tokens), POST /v2/compact, GET /v2/lineage and
// GET /v2/objects/{id}. /v1 stays for compatibility, gated by the same
// capability model and answering with Deprecation/Sunset headers
// (auth.go documents the trust surface).
type Server struct {
	engine   *Engine
	answerer lineageAnswerer
	mux      *http.ServeMux
	auth     AuthConfig

	// keyring is the live token keyring, swapped atomically so plusd's
	// SIGHUP reload rotates keys with zero downtime: requests in flight
	// keep the ring they resolved, new requests see the new one.
	keyring atomic.Pointer[Keyring]

	// obs is the telemetry bundle (WithObservability); never nil after
	// newServer, with every sink disabled by default.
	obs *Observability

	// queryStats, when set (SetQueryStats), surfaces the PLUSQL view-cache
	// counters in the healthz payload without this package importing the
	// query subsystem.
	queryStats func() QueryCacheHealth

	// readOnly is the follower-mode write policy (WithReadOnly): refuse
	// or proxy mutations so only the replication loop writes the store.
	readOnly readOnly

	// replicaHealth, when set (WithReplicaHealth), supplies the healthz
	// replication block without this package importing internal/replica.
	replicaHealth func() *ReplicaHealth
}

// ServerOption configures NewServer/NewCachedServer.
type ServerOption func(*Server)

// WithAuth installs the server's trust configuration: the token keyring,
// whether authentication is required, the anonymous read-only escape
// hatch, and session lifetimes. Without it the server runs in the legacy
// open mode (AuthConfig zero value).
func WithAuth(cfg AuthConfig) ServerOption {
	return func(s *Server) { s.auth = cfg }
}

// NewServer wires the HTTP handlers around an engine.
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	return newServer(engine, engine, opts...)
}

// NewCachedServer wires the handlers around a cache-fronted engine;
// lineage answers are memoised until the store changes.
func NewCachedServer(engine *CachedEngine, opts ...ServerOption) *Server {
	return newServer(engine.Engine, engine, opts...)
}

func newServer(engine *Engine, answerer lineageAnswerer, opts ...ServerOption) *Server {
	s := &Server{engine: engine, answerer: answerer, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.auth = s.auth.normalize()
	s.keyring.Store(s.auth.Keyring)
	if s.obs == nil {
		s.obs = NewObservability(nil, nil, nil)
	}
	if s.obs.Registry() != nil || s.obs.SlowQueryLog() != nil {
		s.engine.SetObservability(s.obs)
	}
	s.registerServerMetrics()
	s.Handle("/v1/objects", http.HandlerFunc(s.handleObjects))
	s.Handle("/v1/objects/", http.HandlerFunc(s.handleObjectByID))
	s.Handle("/v1/edges", http.HandlerFunc(s.handleEdges))
	s.Handle("/v1/surrogates", http.HandlerFunc(s.handleSurrogates))
	s.Handle("/v1/lineage", http.HandlerFunc(s.handleLineage))
	s.Handle("/v1/stats", http.HandlerFunc(s.handleStats))
	s.Handle("/v1/healthz", http.HandlerFunc(s.handleHealthz))
	s.Handle("/v1/opm", http.HandlerFunc(s.handleOPM))
	s.Handle("/v2/sessions", http.HandlerFunc(s.handleV2Sessions))
	s.Handle("/v2/batch", http.HandlerFunc(s.handleV2Batch))
	s.Handle("/v2/changes", http.HandlerFunc(s.handleV2Changes))
	s.Handle("/v2/snapshot", http.HandlerFunc(s.handleV2Snapshot))
	s.Handle("/v2/lineage", http.HandlerFunc(s.handleV2Lineage))
	s.Handle("/v2/objects/", http.HandlerFunc(s.handleV2ObjectByID))
	s.Handle("/v2/compact", http.HandlerFunc(s.handleV2Compact))
	s.Handle("/v2/metrics", http.HandlerFunc(s.handleV2Metrics))
	s.Handle("/v2/slowlog", http.HandlerFunc(s.handleV2Slowlog))
	return s
}

// ServeHTTP implements http.Handler through the observability middleware:
// every request gets a trace ID, route metrics and (when configured) a
// structured log line on its way into the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.serveObserved(w, r) }

// Keyring returns the live token keyring.
func (s *Server) Keyring() *Keyring { return s.keyring.Load() }

// SetKeyring atomically replaces the live token keyring; nil is ignored.
func (s *Server) SetKeyring(kr *Keyring) {
	if kr != nil {
		s.keyring.Store(kr)
	}
}

// ReloadKeyringFromFile re-reads an "id:secret"-per-line keyring file and
// swaps it in without restarting — plusd's SIGHUP handler. A parse
// failure leaves the current keyring serving and is reported (and
// counted) rather than applied.
func (s *Server) ReloadKeyringFromFile(path string) error {
	kr, err := LoadKeyring(path)
	if err != nil {
		s.obs.keyringLoads.With("error").Inc()
		return err
	}
	s.keyring.Store(kr)
	s.obs.keyringLoads.With("ok").Inc()
	return nil
}

// The v1 deprecation policy, announced in the README and carried on the
// wire (RFC 9745 Deprecation + RFC 8594 Sunset headers) so clients can
// detect the deprecated surface mechanically. /v1/healthz is exempt: it
// is the shared readiness probe, not part of the deprecated surface.
var (
	v1DeprecatedAt = time.Date(2026, time.August, 1, 0, 0, 0, 0, time.UTC)
	v1SunsetAt     = time.Date(2027, time.August, 1, 0, 0, 0, 0, time.UTC)
)

// deprecateV1 stamps every /v1 response with the deprecation headers.
func deprecateV1(h http.Handler) http.Handler {
	deprecation := fmt.Sprintf("@%d", v1DeprecatedAt.Unix())
	sunset := v1SunsetAt.Format(http.TimeFormat)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", deprecation)
		w.Header().Set("Sunset", sunset)
		h.ServeHTTP(w, r)
	})
}

// Handle registers an additional route on the server's mux, letting
// higher layers (e.g. the PLUSQL query subsystem) extend the API without
// this package importing them. Routes under /v1/ (except the healthz
// probe) automatically carry the Deprecation/Sunset headers.
func (s *Server) Handle(pattern string, h http.Handler) {
	if strings.HasPrefix(pattern, "/v1/") && pattern != "/v1/healthz" {
		h = deprecateV1(h)
	}
	s.mux.Handle(pattern, h)
}

// SetQueryStats registers the provider of the query-subsystem view-cache
// counters rendered in healthz (plusql.Attach wires it).
func (s *Server) SetQueryStats(fn func() QueryCacheHealth) { s.queryStats = fn }

// MethodNotAllowed writes the API's standard JSON method-not-allowed
// response with an Allow header listing the admissible methods.
func MethodNotAllowed(w http.ResponseWriter, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	default:
		// Validation failures from the store/engine are client errors.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxBodyBytes bounds mutation request bodies; provenance records are
// small, so anything near a megabyte is malformed or hostile.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return DecodeJSONBody(w, r, maxBodyBytes, v)
}

// DecodeJSONBody decodes a JSON request body under the API's shared
// conventions: a hard size cap and unknown fields rejected. Extension
// handlers (e.g. PLUSQL's /v1/query) use it so request parsing stays
// uniform across every endpoint.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("plus: bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		MethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.gateWrite(w, r) {
		return
	}
	if _, apiErr := s.Authorize(r, CapIngest); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	var o Object
	if err := decodeBody(w, r, &o); err != nil {
		writeError(w, err)
		return
	}
	if err := s.engine.store.PutObject(o); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, o)
}

func (s *Server) handleObjectByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	p, apiErr := s.Authorize(r, CapQuery)
	if apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/objects/")
	o, err := s.engine.store.GetObject(id)
	if err != nil {
		writeError(w, err)
		return
	}
	// Historically v1 served raw records and left protection to the
	// lineage layer. That stays true for the legacy open/anonymous
	// surfaces, but a scoped token means the caller opted into the
	// capability model: query = protected reads only, so the v2 dominance
	// check applies here too.
	if p.Token != nil && o.Lowest != "" && !s.engine.lattice.Dominates(p.Viewer, privilege.Predicate(o.Lowest)) {
		WriteAPIError(w, v2Errorf(http.StatusForbidden, CodeForbidden,
			"plus: object %q requires privilege %q", id, o.Lowest))
		return
	}
	writeJSON(w, http.StatusOK, o)
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		MethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.gateWrite(w, r) {
		return
	}
	if _, apiErr := s.Authorize(r, CapIngest); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	var e Edge
	if err := decodeBody(w, r, &e); err != nil {
		writeError(w, err)
		return
	}
	if err := s.engine.store.PutEdge(e); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleSurrogates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		MethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.gateWrite(w, r) {
		return
	}
	if _, apiErr := s.Authorize(r, CapIngest); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	var sp SurrogateSpec
	if err := decodeBody(w, r, &sp); err != nil {
		writeError(w, err)
		return
	}
	if err := s.engine.store.PutSurrogate(sp); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sp)
}

// LineageNode is one node of a lineage answer.
type LineageNode struct {
	ID        string            `json:"id"`
	Features  map[string]string `json:"features,omitempty"`
	Surrogate bool              `json:"surrogate,omitempty"`
}

// LineageEdge is one edge of a lineage answer.
type LineageEdge struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Label     string `json:"label,omitempty"`
	Surrogate bool   `json:"surrogate,omitempty"`
}

// LineageTiming reports the Figure 10 decomposition in microseconds.
type LineageTiming struct {
	DBAccessUS int64 `json:"dbAccessUs"`
	BuildUS    int64 `json:"buildUs"`
	ProtectUS  int64 `json:"protectUs"`
	// TotalUS is the Figure 10 query time: fetch, build and protect. It
	// does not include UtilitiesUS.
	TotalUS int64 `json:"totalUs"`
	// UtilitiesUS is the one computation of the §4.1 path and node
	// utilities reported alongside the answer. It runs after the query,
	// once per computed answer; a cache hit repeats the figure of the
	// answer it serves.
	UtilitiesUS int64 `json:"utilitiesUs"`
}

// LineageResponse is the JSON answer to a lineage query.
type LineageResponse struct {
	Start string `json:"start"`
	// StartName echoes a name-seeded (multi-seed) request.
	StartName   string        `json:"startName,omitempty"`
	Viewer      string        `json:"viewer"`
	Mode        string        `json:"mode"`
	Nodes       []LineageNode `json:"nodes"`
	Edges       []LineageEdge `json:"edges"`
	PathUtility float64       `json:"pathUtility"`
	NodeUtility float64       `json:"nodeUtility"`
	Timing      LineageTiming `json:"timing"`
}

func parseDirection(s string) (graph.Direction, error) {
	switch s {
	case "", "ancestors":
		return graph.Backward, nil
	case "descendants":
		return graph.Forward, nil
	case "both":
		return graph.Undirected, nil
	default:
		return 0, fmt.Errorf("plus: unknown direction %q", s)
	}
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	q := r.URL.Query()
	asserted := privilege.Predicate(q.Get("viewer"))
	// v1 carries a client-asserted viewer; under required auth the token
	// must hold the query capability and dominate the asserted viewer.
	if apiErr := s.AuthorizeAsserted(r, CapQuery, asserted); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	req, err := parseLineageParams(q)
	if err != nil {
		writeError(w, err)
		return
	}
	req.Viewer = asserted
	if req.Viewer != "" && !s.engine.lattice.Known(req.Viewer) {
		// The engine rejects the request below; the warning gives operators
		// a trail for clients sending viewers the lattice never declared
		// (v2 additionally answers these with a structured 400).
		log.Printf("plus: /v1/lineage: unknown viewer predicate %q from %s", req.Viewer, r.RemoteAddr)
	}
	res, err := s.answerer.LineageContext(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	// v1 echoes the viewer exactly as the query string spelled it (empty
	// when absent), preserved for compatibility.
	writeJSON(w, http.StatusOK, buildLineageResponse(req, res))
}

// handleOPM exports the store as an OPM document (GET) or imports one
// (POST).
func (s *Server) handleOPM(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// The export carries raw records — the replication capability.
		if _, apiErr := s.Authorize(r, CapReplicate); apiErr != nil {
			WriteAPIError(w, apiErr)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := ExportOPM(s.engine.store, w); err != nil {
			// Headers may already be out; best effort.
			writeError(w, err)
		}
	case http.MethodPost:
		if s.gateWrite(w, r) {
			return
		}
		if _, apiErr := s.Authorize(r, CapIngest); apiErr != nil {
			WriteAPIError(w, apiErr)
			return
		}
		// OPM documents can be large but not unbounded; allow 64 MiB.
		if err := ImportOPM(s.engine.store, http.MaxBytesReader(w, r.Body, 64<<20)); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "imported"})
	default:
		MethodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// ChangeFeedHealth reports the change feed's retention state: the
// backend epoch and revision a cursor must match, and the resident
// window (base/depth/horizon). A follower holding cursor rev r computes
// its lag as Revision-r and knows it must resync once r < Base.
type ChangeFeedHealth struct {
	Epoch    string `json:"epoch"`
	Revision uint64 `json:"revision"`
	// Base is the oldest change-feed position the backend can still
	// serve; Depth is the resident change count; Horizon the configured
	// retention capacity.
	Base    uint64 `json:"base"`
	Depth   int    `json:"depth"`
	Horizon int    `json:"horizon"`
}

// changeFeedHealth assembles the block (nil when the backend exposes no
// window introspection).
func (s *Server) changeFeedHealth() *ChangeFeedHealth {
	b := s.engine.store
	w, ok := backendChangeWindow(b)
	if !ok {
		return nil
	}
	return &ChangeFeedHealth{
		Epoch:    b.Epoch(),
		Revision: b.Revision(),
		Base:     w.Base,
		Depth:    w.Depth,
		Horizon:  w.Horizon,
	}
}

// StatsResponse summarises the store.
type StatsResponse struct {
	Objects   int   `json:"objects"`
	Edges     int   `json:"edges"`
	LogBytes  int64 `json:"logBytes"`
	UptimeSec int64 `json:"uptimeSec"`
	// ChangeFeed reports feed retention so followers can compute lag;
	// absent when the backend has no window introspection.
	ChangeFeed *ChangeFeedHealth `json:"changeFeed,omitempty"`
}

var serverStart = time.Now()

// QueryCacheHealth mirrors the PLUSQL view-cache counters
// (plusql.ViewCacheStats) in the healthz payload; it lives here so the
// probe response stays typed without an import cycle.
type QueryCacheHealth struct {
	Views           int    `json:"views"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Advanced        uint64 `json:"advanced"`
	AdvanceRebuilds uint64 `json:"advanceRebuilds"`
	FullBuilds      uint64 `json:"fullBuilds"`
	Fallbacks       uint64 `json:"fallbacks"`
}

// InternHealth reports the global string-intern table: how many distinct
// strings the store's kinds, names and features collapsed into, and the
// bytes they occupy.
type InternHealth struct {
	Strings int   `json:"strings"`
	Bytes   int64 `json:"bytes"`
}

// HealthzResponse is the readiness-probe answer: whether the backend is
// open plus the live counts, revision and cache/delta activity a
// deployment can alert on.
type HealthzResponse struct {
	Status   string `json:"status"` // "ok" or "unavailable"
	Objects  int    `json:"objects"`
	Edges    int    `json:"edges"`
	Revision uint64 `json:"revision"`
	// Index reports the storage secondary indexes (present when the
	// backend maintains them).
	Index *IndexStats `json:"index,omitempty"`
	// Intern reports the global string-intern table.
	Intern *InternHealth `json:"intern,omitempty"`
	// LineageCache reports the delta-scoped lineage answer cache (present
	// when the server fronts a CachedEngine).
	LineageCache *LineageCacheStats `json:"lineageCache,omitempty"`
	// QueryCache reports the PLUSQL protected-view cache (present when
	// the query subsystem is attached).
	QueryCache *QueryCacheHealth `json:"queryCache,omitempty"`
	// ChangeFeed reports feed retention state (epoch, revision, resident
	// window) so followers can compute lag without guessing.
	ChangeFeed *ChangeFeedHealth `json:"changeFeed,omitempty"`
	// Replica reports replication state (present only on followers).
	Replica *ReplicaHealth `json:"replica,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	b := s.engine.store
	if err := b.Ping(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{
			Status:   "unavailable",
			Revision: b.Revision(),
		})
		return
	}
	resp := HealthzResponse{
		Status:   "ok",
		Objects:  b.NumObjects(),
		Edges:    b.NumEdges(),
		Revision: b.Revision(),
	}
	if ip, ok := unwrapBackend(b).(indexStatsProvider); ok {
		st := ip.IndexStats()
		resp.Index = &st
	}
	resp.Intern = &InternHealth{Strings: intern.Count(), Bytes: intern.Bytes()}
	if ce, ok := s.answerer.(*CachedEngine); ok {
		st := ce.Stats()
		resp.LineageCache = &st
	}
	if s.queryStats != nil {
		st := s.queryStats()
		resp.QueryCache = &st
	}
	resp.ChangeFeed = s.changeFeedHealth()
	if s.replicaHealth != nil {
		resp.Replica = s.replicaHealth()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		MethodNotAllowed(w, http.MethodGet)
		return
	}
	if _, apiErr := s.Authorize(r, CapAdmin); apiErr != nil {
		WriteAPIError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Objects:    s.engine.store.NumObjects(),
		Edges:      s.engine.store.NumEdges(),
		LogBytes:   s.engine.store.Size(),
		UptimeSec:  int64(time.Since(serverStart).Seconds()),
		ChangeFeed: s.changeFeedHealth(),
	})
}
