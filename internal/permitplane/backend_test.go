package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/permitplane/wal"
)

// testUtil is a deterministic monitoring hook: cells named "hot-*" are
// congested, everything else is idle.
func testUtil(cellID string) float64 {
	if strings.HasPrefix(cellID, "hot-") {
		return 0.95
	}
	return 0.1
}

func postBatch(t *testing.T, url string, reqs []PermitRequest) (*http.Response, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/permits/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestShardedBatchDecidesInRequestOrder(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var reqs []PermitRequest
	for i := 0; i < 64; i++ {
		cell := fmt.Sprintf("cell-%d", i)
		if i%3 == 0 {
			cell = fmt.Sprintf("hot-%d", i)
		}
		reqs = append(reqs, PermitRequest{Device: fmt.Sprintf("d%d", i), Cell: cell})
	}
	resp, out := postBatch(t, srv.URL, reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch returned %s", resp.Status)
	}
	if len(out.Decisions) != len(reqs) {
		t.Fatalf("%d decisions for %d requests", len(out.Decisions), len(reqs))
	}
	for i, d := range out.Decisions {
		wantGrant := !strings.HasPrefix(reqs[i].Cell, "hot-")
		if d.Granted != wantGrant {
			t.Errorf("request %d (%s): granted=%v, want %v", i, reqs[i].Cell, d.Granted, wantGrant)
		}
	}
	grants, denials := s.Stats()
	if int(grants+denials) != len(reqs) {
		t.Errorf("stats %d+%d, want %d decisions", grants, denials, len(reqs))
	}
}

func TestShardedRejectsBadBatches(t *testing.T) {
	s := New(Config{Shards: 2, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp, _ := postBatch(t, srv.URL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %s, want 400", resp.Status)
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: "d"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing cell: %s, want 400", resp.Status)
	}
	over := make([]PermitRequest, MaxBatch+1)
	for i := range over {
		over[i] = PermitRequest{Device: "d", Cell: "c"}
	}
	if resp, _ := postBatch(t, srv.URL, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: %s, want 413", resp.Status)
	}
	get, err := http.Get(srv.URL + "/permits/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: %s, want 405", get.Status)
	}
	// Decisions must be unaffected by the rejected batches.
	if g, d := s.Stats(); g != 0 || d != 0 {
		t.Errorf("rejected batches made decisions: grants=%d denials=%d", g, d)
	}
}

// TestShardedRejectsOversizedIDs pins the HTTP edge guard: a device or
// cell longer than the WAL can frame is a 400 on both transports, not
// a granted-but-untrackable permit.
func TestShardedRejectsOversizedIDs(t *testing.T) {
	s := New(Config{Shards: 2, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	huge := strings.Repeat("x", wal.MaxIDLen+1)
	for _, q := range []string{"cell=c&device=" + huge, "cell=" + huge + "&device=d"} {
		resp, err := http.Get(srv.URL + "/permit?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized ID on GET /permit: %s, want 400", resp.Status)
		}
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: huge, Cell: "c"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized device in batch: %s, want 400", resp.Status)
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: "d", Cell: huge}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized cell in batch: %s, want 400", resp.Status)
	}
	if g, d := s.Stats(); g != 0 || d != 0 {
		t.Errorf("rejected requests made decisions: grants=%d denials=%d", g, d)
	}
}

func TestShardedRoutesSinglePermit(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	fetch := (&BatchClient{BackendURL: srv.URL}).Fetch
	cl := Cache{Fetch: fetch, Device: "d0", Cell: "cell-0"}
	if !cl.Allowed(context.Background()) {
		t.Error("idle cell denied through the router")
	}
	hot := Cache{Fetch: fetch, Device: "d1", Cell: "hot-0"}
	if hot.Allowed(context.Background()) {
		t.Error("congested cell granted through the router")
	}
}

// TestMergedMetricsByteIdenticalAcrossShardCounts is the tentpole's
// merge guarantee: the same request history served by 1, 4 or 16 shards
// must produce byte-for-byte identical merged /debug/metrics dumps.
func TestMergedMetricsByteIdenticalAcrossShardCounts(t *testing.T) {
	drive := func(shards int) []byte {
		s := New(Config{Shards: shards, Utilization: testUtil, Clock: &fakeClock{}})
		srv := httptest.NewServer(s)
		defer srv.Close()

		// Singles.
		for i := 0; i < 20; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/permit?device=d%d&cell=cell-%d", srv.URL, i, i))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		// Batches, mixing granted and denied cells.
		for b := 0; b < 4; b++ {
			var reqs []PermitRequest
			for i := 0; i < 50; i++ {
				cell := fmt.Sprintf("cell-%d", b*50+i)
				if i%5 == 0 {
					cell = fmt.Sprintf("hot-%d", b*50+i)
				}
				reqs = append(reqs, PermitRequest{Device: fmt.Sprintf("d%d", i), Cell: cell})
			}
			if resp, _ := postBatch(t, srv.URL, reqs); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch failed: %s", resp.Status)
			}
		}
		// One rejected batch, so error counters merge too.
		if resp, _ := postBatch(t, srv.URL, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatal("empty batch accepted")
		}

		rec := httptest.NewRecorder()
		s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/metrics", nil))
		return rec.Body.Bytes()
	}

	base := drive(1)
	if !bytes.Contains(base, []byte("permit_decisions_total")) {
		t.Fatalf("merged dump is missing permit decision counters:\n%s", base)
	}
	for _, shards := range []int{4, 16} {
		got := drive(shards)
		if !bytes.Equal(base, got) {
			t.Errorf("merged metrics for %d shards differ from 1 shard:\n--- 1 shard ---\n%s\n--- %d shards ---\n%s",
				shards, base, shards, got)
		}
	}
}

func TestShardedStatusSplitsByShard(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	for i := 0; i < 100; i++ {
		s.Decide(context.Background(), fmt.Sprintf("cell-%d", i))
	}
	status := s.Status()
	if len(status) != 4 {
		t.Fatalf("%d shard statuses, want 4", len(status))
	}
	var total int64
	busy := 0
	for i, st := range status {
		if st.Shard != i {
			t.Errorf("status %d reports shard %d", i, st.Shard)
		}
		total += st.Grants + st.Denials
		if st.Grants+st.Denials > 0 {
			busy++
		}
	}
	if total != 100 {
		t.Errorf("shard statuses sum to %d decisions, want 100", total)
	}
	if busy < 2 {
		t.Errorf("only %d of 4 shards made decisions; hash not spreading", busy)
	}

	rec := httptest.NewRecorder()
	s.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/shards", nil))
	var decoded []ShardStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("decoding /debug/shards: %v", err)
	}
	if len(decoded) != 4 {
		t.Errorf("/debug/shards returned %d entries, want 4", len(decoded))
	}
}

func TestShardedDenyUnknownFailsClosed(t *testing.T) {
	tbl := NewUtilTable(0, true)
	tbl.Set("known", 0.1)
	s := New(Config{Shards: 4, Utilization: tbl.Get, Clock: &fakeClock{}})

	if d := s.Decide(context.Background(), "known"); !d.Granted {
		t.Error("known idle cell denied")
	}
	if d := s.Decide(context.Background(), "never-in-feed"); d.Granted {
		t.Error("cell absent from the feed granted despite -deny-unknown")
	}
}

func TestBatchClientFallsBackToLegacyBackend(t *testing.T) {
	// A bare permit.Backend: GET /permit only, no /permits/batch.
	legacy := &permit.Backend{Utilization: testUtil, Clock: &fakeClock{}}
	srv := httptest.NewServer(legacy)
	defer srv.Close()

	c := &BatchClient{BackendURL: srv.URL, Metrics: NewMetrics(obs.NewRegistry())}
	reqs := []PermitRequest{
		{Device: "d0", Cell: "cell-0"},
		{Device: "d1", Cell: "hot-0"},
		{Device: "d2", Cell: "cell-2"},
	}
	for round := 0; round < 2; round++ {
		out, err := c.Batch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(out) != 3 || !out[0].Granted || out[1].Granted || !out[2].Granted {
			t.Fatalf("round %d: wrong decisions %+v", round, out)
		}
	}
	if !c.legacy.Load() {
		t.Error("legacy fallback not latched")
	}
	g, d := legacy.Stats()
	if g != 4 || d != 2 {
		t.Errorf("legacy backend saw grants=%d denials=%d, want 4/2", g, d)
	}
}

// TestBatchClientReprobesBatchEndpointAfterRestart pins the un-latch
// path: a client latched onto the legacy single-GET fallback must
// periodically re-probe /permits/batch and return to the batch RPC when
// a restarted (batch-capable) daemon comes back — not stay on the slow
// path forever.
func TestBatchClientReprobesBatchEndpointAfterRestart(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	legacy := &permit.Backend{Utilization: testUtil, Clock: clk}
	plane := New(Config{Shards: 2, Utilization: testUtil, Clock: clk})
	var upgraded atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if upgraded.Load() {
			plane.ServeHTTP(w, r)
			return
		}
		legacy.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m := NewMetrics(obs.NewRegistry())
	c := &BatchClient{BackendURL: srv.URL, Metrics: m, Clock: clk, ReprobeInterval: time.Minute}
	reqs := []PermitRequest{{Device: "d0", Cell: "cell-0"}}
	reprobes := func() int64 { return m.BatchReprobes.With().Value() }

	if _, err := c.Batch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if !c.legacy.Load() {
		t.Fatal("legacy fallback not latched")
	}

	// Inside the re-probe interval the latch holds without probing.
	clk.advance(20 * time.Second)
	if _, err := c.Batch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if got := reprobes(); got != 0 {
		t.Fatalf("%v re-probes inside the interval, want 0", got)
	}

	// A due re-probe against a still-legacy backend stays latched (and
	// still answers via singles).
	clk.advance(2 * time.Minute) // past any jittered spacing (max 1.5×)
	out, err := c.Batch(context.Background(), reqs)
	if err != nil || len(out) != 1 {
		t.Fatalf("probe round against legacy backend: out=%v err=%v", out, err)
	}
	if !c.legacy.Load() {
		t.Error("failed re-probe unlatched the fallback")
	}
	if got := reprobes(); got != 1 {
		t.Fatalf("%v re-probes after one due window, want 1", got)
	}

	// The daemon restarts batch-capable: the next due re-probe unlatches.
	upgraded.Store(true)
	clk.advance(2 * time.Minute)
	if _, err := c.Batch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if c.legacy.Load() {
		t.Error("re-probe did not unlatch after the backend upgraded")
	}
	if got := reprobes(); got != 2 {
		t.Errorf("%v re-probes total, want 2", got)
	}
	// And later batches ride the batch RPC without further probes.
	if _, err := c.Batch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if got := reprobes(); got != 2 {
		t.Errorf("unlatched client kept probing (%v)", got)
	}
}

func TestBatchClientAgainstShardedBackend(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	c := &BatchClient{BackendURL: srv.URL}
	resp, err := c.Fetch(context.Background(), "d0", "cell-0")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Error("idle cell denied via BatchClient.Fetch")
	}
	if c.legacy.Load() {
		t.Error("batch-capable backend latched the legacy fallback")
	}
}
