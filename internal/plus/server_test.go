package plus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/privilege"
)

func testServer(t *testing.T) (*Client, *Store) {
	t.Helper()
	s, _ := openTemp(t)
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), s
}

func loadFixture(t *testing.T, c *Client) {
	t.Helper()
	objs := []Object{
		{ID: "src", Kind: Data, Name: "raw feed"},
		{ID: "proc", Kind: Invocation, Name: "secret analytic", Lowest: "Protected", Protect: "surrogate"},
		{ID: "out", Kind: Data, Name: "derived table"},
		{ID: "report", Kind: Data, Name: "final report"},
	}
	for _, o := range objs {
		if err := c.PutObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{
		{From: "src", To: "proc", Label: "input-to"},
		{From: "proc", To: "out", Label: "generated"},
		{From: "out", To: "report", Label: "input-to"},
	} {
		if err := c.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutSurrogate(SurrogateSpec{ForID: "proc", ID: "proc'", Name: "an analytic", InfoScore: 0.4}); err != nil {
		t.Fatal(err)
	}
}

func TestServerRoundTrip(t *testing.T) {
	c, _ := testServer(t)
	loadFixture(t, c)

	o, err := c.GetObject("proc")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "secret analytic" || o.Lowest != "Protected" {
		t.Errorf("GetObject = %+v", o)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 4 || stats.Edges != 3 || stats.LogBytes == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestServerLineagePublicViewer(t *testing.T) {
	c, _ := testServer(t)
	loadFixture(t, c)

	resp, err := c.Lineage(LineageQuery{Start: "report", Direction: "ancestors"})
	if err != nil {
		t.Fatal(err)
	}
	nodeIDs := map[string]bool{}
	surrNodes := 0
	for _, n := range resp.Nodes {
		nodeIDs[n.ID] = true
		if n.Surrogate {
			surrNodes++
		}
	}
	if nodeIDs["proc"] {
		t.Error("sensitive node leaked over HTTP")
	}
	if !nodeIDs["proc'"] || surrNodes != 1 {
		t.Errorf("surrogate node missing: %+v", resp.Nodes)
	}
	foundSurrEdge := false
	for _, e := range resp.Edges {
		if e.From == "src" && e.To == "out" {
			if !e.Surrogate {
				t.Error("src->out should be flagged as surrogate edge")
			}
			foundSurrEdge = true
		}
	}
	if !foundSurrEdge {
		t.Errorf("surrogate edge missing: %+v", resp.Edges)
	}
	if resp.PathUtility <= 0 || resp.PathUtility > 1 {
		t.Errorf("pathUtility = %v", resp.PathUtility)
	}
	if resp.NodeUtility <= 0 || resp.NodeUtility > 1 {
		t.Errorf("nodeUtility = %v", resp.NodeUtility)
	}
	if resp.Timing.TotalUS < 0 {
		t.Errorf("timing = %+v", resp.Timing)
	}
}

func TestServerLineageModesAndViewers(t *testing.T) {
	c, _ := testServer(t)
	loadFixture(t, c)

	hide, err := c.Lineage(LineageQuery{Start: "report", Mode: "hide"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range hide.Nodes {
		if n.ID == "proc'" || n.ID == "proc" {
			t.Error("hide mode returned a protected or surrogate node")
		}
	}

	full, err := c.Lineage(LineageQuery{Start: "report", Viewer: "Protected"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range full.Nodes {
		if n.ID == "proc" {
			found = true
		}
	}
	if !found {
		t.Error("privileged viewer did not get the original node")
	}
}

func TestServerErrorStatuses(t *testing.T) {
	c, s := testServer(t)
	loadFixture(t, c)

	if _, err := c.GetObject("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing object error = %v", err)
	}
	if _, err := c.Lineage(LineageQuery{Start: "nope"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing lineage start = %v", err)
	}
	if _, err := c.Lineage(LineageQuery{Start: "report", Mode: "banana"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad mode error = %v", err)
	}
	if _, err := c.Lineage(LineageQuery{Start: "report", Viewer: "Bogus"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad viewer error = %v", err)
	}
	if _, err := c.Lineage(LineageQuery{Start: "report", Direction: "sideways"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad direction error = %v", err)
	}
	if err := c.PutObject(Object{ID: "", Kind: Data}); err == nil {
		t.Error("invalid object accepted over HTTP")
	}
	if err := c.PutEdge(Edge{From: "report", To: "ghost"}); err == nil {
		t.Error("dangling edge accepted over HTTP")
	}
	_ = s
}

func TestServerRejectsWrongMethods(t *testing.T) {
	s, _ := openTemp(t)
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	defer srv.Close()

	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/objects"},
		{http.MethodPost, "/v1/lineage"},
		{http.MethodDelete, "/v1/stats"},
		{http.MethodPost, "/v1/objects/xyz"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		// 405s follow the API's JSON error convention and advertise the
		// admissible methods.
		if got := resp.Header.Get("Allow"); got == "" {
			t.Errorf("%s %s: missing Allow header", tc.method, tc.path)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.method, tc.path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("%s %s: body not a JSON error: %v %+v", tc.method, tc.path, err, body)
		}
		resp.Body.Close()
	}
}

func TestServerOPMRoundTrip(t *testing.T) {
	c, _ := testServer(t)
	loadFixture(t, c)

	var buf bytes.Buffer
	if err := c.ExportOPM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"artifacts"`) {
		t.Fatalf("export shape wrong: %s", buf.String())
	}

	// Import into a second, empty server.
	c2, s2 := testServer(t)
	if err := c2.ImportOPM(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.NumObjects() != 4 || s2.NumEdges() != 3 {
		t.Errorf("imported %d objects %d edges", s2.NumObjects(), s2.NumEdges())
	}
	o, err := c2.GetObject("proc")
	if err != nil || o.Lowest != "Protected" || o.Protect != "surrogate" {
		t.Errorf("sensitivity lost over HTTP OPM: %+v %v", o, err)
	}
	if err := c2.ImportOPM(strings.NewReader("not json")); err == nil {
		t.Error("garbage import accepted")
	}
}

func TestServerLineageFilters(t *testing.T) {
	c, _ := testServer(t)
	loadFixture(t, c)
	resp, err := c.Lineage(LineageQuery{Start: "report", Viewer: "Protected", Label: "input-to"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2 {
		t.Errorf("label filter over HTTP: %+v", resp.Nodes)
	}
	resp, err = c.Lineage(LineageQuery{Start: "report", Viewer: "Protected", Kind: "data"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range resp.Nodes {
		if n.ID == "proc" {
			t.Error("kind filter leaked an invocation over HTTP")
		}
	}
	if _, err := c.Lineage(LineageQuery{Start: "report", Kind: "banana"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad kind = %v", err)
	}
}

func TestCachedServerServesAndInvalidates(t *testing.T) {
	s, _ := openTemp(t)
	engine := NewCachedEngine(NewEngine(s, privilege.TwoLevel()))
	srv := httptest.NewServer(NewCachedServer(engine))
	defer srv.Close()
	c := NewClient(srv.URL)
	loadFixture(t, c)

	r1, err := c.Lineage(LineageQuery{Start: "report"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lineage(LineageQuery{Start: "report"}); err != nil {
		t.Fatal(err)
	}
	hits, _, _ := engine.CacheStats()
	if hits == 0 {
		t.Error("second HTTP query did not hit the cache")
	}
	// Mutation invalidates; the next answer reflects the new object.
	if err := c.PutObject(Object{ID: "extra", Kind: Data, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutEdge(Edge{From: "extra", To: "report"}); err != nil {
		t.Fatal(err)
	}
	r3, err := c.Lineage(LineageQuery{Start: "report"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Nodes) != len(r1.Nodes)+1 {
		t.Errorf("stale cached answer: %d nodes vs %d+1", len(r3.Nodes), len(r1.Nodes))
	}
}

// Every lineage answer reports the time of its one §4.1 utilities
// computation, on both surfaces; a cache hit repeats the figure of the
// answer it serves.
func TestLineageReportsUtilitiesTime(t *testing.T) {
	s, _ := openTemp(t)
	var b Batch
	for i := 0; i < 200; i++ {
		b.Objects = append(b.Objects, Object{ID: fmt.Sprintf("c%03d", i), Kind: Data, Name: "step"})
		if i > 0 {
			b.Edges = append(b.Edges, Edge{From: fmt.Sprintf("c%03d", i-1), To: fmt.Sprintf("c%03d", i)})
		}
	}
	if _, err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	engine := NewCachedEngine(NewEngine(s, privilege.TwoLevel()))
	srv := httptest.NewServer(NewCachedServer(engine))
	defer srv.Close()

	var first int64 = -1
	for _, path := range []string{"/v1/lineage?start=c199", "/v1/lineage?start=c199", "/v2/lineage?start=c199"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		if !bytes.Contains(body, []byte(`"utilitiesUs":`)) {
			t.Fatalf("GET %s: no utilitiesUs in %s", path, body)
		}
		var lr LineageResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
		got := lr.Timing.UtilitiesUS
		if first < 0 {
			first = got
			if got <= 0 {
				t.Errorf("utilitiesUs = %d for a 200-node answer", got)
			}
		} else if got != first {
			t.Errorf("GET %s: cached utilitiesUs = %d, first answer reported %d", path, got, first)
		}
	}
	if hits, _, _ := engine.CacheStats(); hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
}

func TestServerRejectsOversizedBody(t *testing.T) {
	s, _ := openTemp(t)
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	defer srv.Close()
	big := strings.NewReader(`{"id":"x","kind":"data","name":"` + strings.Repeat("a", maxBodyBytes+10) + `"}`)
	resp, err := http.Post(srv.URL+"/v1/objects", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body = %d, want 400", resp.StatusCode)
	}
	if s.NumObjects() != 0 {
		t.Error("oversized object stored")
	}
}

func TestServerRejectsUnknownFields(t *testing.T) {
	s, _ := openTemp(t)
	srv := httptest.NewServer(NewServer(NewEngine(s, privilege.TwoLevel())))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/objects", "application/json",
		strings.NewReader(`{"id":"x","kind":"data","bogusField":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
}
