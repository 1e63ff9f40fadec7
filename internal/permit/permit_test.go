package permit

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// get asks the backend at url for a permit.
func get(t *testing.T, url, device, cell string) Response {
	t.Helper()
	resp, err := http.Get(url + "/permit?device=" + device + "&cell=" + cell)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /permit: %s", resp.Status)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBackendGrantsBelowThreshold(t *testing.T) {
	util := 0.3
	var mu sync.Mutex
	b := &Backend{
		Utilization: func(cell string) float64 {
			mu.Lock()
			defer mu.Unlock()
			return util
		},
		Threshold: 0.7,
		TTL:       50 * time.Millisecond,
	}
	srv := httptest.NewServer(b)
	defer srv.Close()

	if r := get(t, srv.URL, "d1", "c1"); !r.Granted || r.TTLSeconds != 0.05 {
		t.Errorf("below threshold: %+v, want granted for the 50ms TTL", r)
	}
	grants, denials := b.Stats()
	if grants != 1 || denials != 0 {
		t.Errorf("stats = %d/%d, want 1/0", grants, denials)
	}

	// Congest the cell: the next decision denies.
	mu.Lock()
	util = 0.9
	mu.Unlock()
	if r := get(t, srv.URL, "d1", "c1"); r.Granted || r.TTLSeconds != 0 {
		t.Errorf("above threshold: %+v, want denied without a TTL", r)
	}
}

func TestBackendDeniesAboveThreshold(t *testing.T) {
	b := &Backend{Utilization: func(string) float64 { return 0.95 }}
	srv := httptest.NewServer(b)
	defer srv.Close()
	if get(t, srv.URL, "d", "c").Granted {
		t.Error("permit granted for congested cell")
	}
	if g, d := b.Stats(); g != 0 || d != 1 {
		t.Errorf("stats = %d/%d, want 0/1", g, d)
	}
}

func TestBackendValidation(t *testing.T) {
	b := &Backend{Utilization: func(string) float64 { return 0 }}
	srv := httptest.NewServer(b)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/permit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing cell param = %d, want 400", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path = %d, want 404", resp.StatusCode)
	}

	misconfigured := httptest.NewServer(&Backend{})
	defer misconfigured.Close()
	resp, err = misconfigured.Client().Get(misconfigured.URL + "/permit?cell=c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Errorf("no monitoring hook = %d, want 500", resp.StatusCode)
	}
}
