package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"threegol/internal/fleet"
	"threegol/internal/hls"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
	"threegol/internal/upload"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q, v   float64
		wantOK bool
	}{
		{n: 1000, q: 0.99, v: 990, wantOK: true}, // 10 beyond p99
		{n: 999, q: 0.95, v: 950, wantOK: true},  // p99 would leave 9
		{n: 10000, q: 0.999, v: 9990, wantOK: true},
		{n: 20, q: 0.5, v: 10, wantOK: true},
		{n: 19, wantOK: false}, // even the median leaves 9 beyond
	}
	for _, c := range cases {
		q, v, ok := seq(c.n).tail()
		if ok != c.wantOK || (ok && (q != c.q || v != c.v)) {
			t.Errorf("n=%d: tail = p%g %v ok=%v, want p%g %v ok=%v", c.n, 100*q, v, ok, 100*c.q, c.v, c.wantOK)
		}
	}
	if m := seq(5).median(); m != 3 {
		t.Errorf("median of 1..5 = %v, want 3", m)
	}
	if m := (sample{}).median(); m != 0 {
		t.Errorf("median of nothing = %v, want 0 (an idle layer)", m)
	}
}

// spanTree records a root [0,10] with children [1,3], [2,5] and [7,8]
// on an explicit clock and assembles it.
func spanTree(t *testing.T) (*eventlog.SpanNode, []eventlog.Event) {
	t.Helper()
	l := eventlog.New(0, 1, nil)
	root := l.BeginAt(0, eventlog.TraceContext{}, "root")
	for _, iv := range [][2]float64{{1, 3}, {2, 5}, {7, 8}} {
		c := l.BeginAt(iv[0], root.Context(), fmt.Sprintf("child%g", iv[0]))
		c.EndAt(iv[1])
	}
	root.EndAt(10)
	events := l.Events()
	a := eventlog.Assemble(events)
	if len(a.Traces) != 1 || len(a.Traces[0].Roots) != 1 {
		t.Fatalf("assembled %d traces", len(a.Traces))
	}
	return a.Traces[0].Roots[0], events
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	root, _ := spanTree(t)
	// Children cover [1,5] and [7,8]: 5 of the root's 10.
	if got := selfTime(root); got != 5 {
		t.Errorf("selfTime = %v, want 5", got)
	}
	for _, c := range root.Children {
		if got := selfTime(c); got != c.Duration() {
			t.Errorf("leaf %s selfTime = %v, want its duration %v", c.Name, got, c.Duration())
		}
	}
}

func TestCriticalSelfCreditsEachInstantOnce(t *testing.T) {
	root, events := spanTree(t)
	acc := make(map[string]float64)
	criticalSelf(root, root.End, acc)
	// Backwards from 10: child7 blocks [7,8], child2 blocks [2,5];
	// child1 overlaps child2 and is not on the path.
	want := map[string]float64{"root": 6, "child7": 1, "child2": 3}
	if len(acc) != len(want) {
		t.Fatalf("credits = %v, want %v", acc, want)
	}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("credit[%s] = %v, want %v", k, acc[k], v)
		}
	}
	st := analyze(events)
	if got := st.blocking["root"]; got["root"] != 6 || len(st.roots["root"]) != 1 {
		t.Errorf("analyze blocking = %v roots = %v", got, st.roots)
	}
}

func TestCheckSessionCatchesCorruptedSegment(t *testing.T) {
	video := hls.Video{Name: "clip", Duration: 30, SegmentDur: 10, Qualities: []hls.Quality{{Name: "q1", Bitrate: 80_000}}}
	want := segmentDigests(hls.NewOrigin(video))
	q := video.Qualities[0]
	rec := &sessionRecord{
		quality:   q,
		segments:  make(map[string]*segmentRecord),
		played:    &hls.PlayerResult{Segments: video.NumSegments(), Bytes: int64(video.TotalBytes(q))},
		itemsDone: video.NumSegments(),
	}
	for i := 0; i < video.NumSegments(); i++ {
		path := fmt.Sprintf("/clip/q1/seg%04d.ts", i)
		rec.segments[path] = &segmentRecord{ok: true, crc: want[path], bytes: int64(video.SegmentSize(q, i))}
	}
	if good, problems := checkSession(video, rec, want); good != 3 || len(problems) != 0 {
		t.Fatalf("intact session: good=%d problems=%v", good, problems)
	}
	rec.segments["/clip/q1/seg0001.ts"].crc ^= 1
	good, problems := checkSession(video, rec, want)
	if good != 2 || len(problems) != 1 || !strings.Contains(problems[0], "segment 1 body differs") {
		t.Errorf("corrupted segment: good=%d problems=%v", good, problems)
	}
	rec.segments["/clip/q1/seg0001.ts"].crc ^= 1
	rec.itemsDone--
	if _, problems := checkSession(video, rec, want); len(problems) != 1 {
		t.Errorf("missing item completion not caught: %v", problems)
	}
}

func TestCheckUploadsCatchesWrongDigest(t *testing.T) {
	rec := &txRecord{seed: 7, prefix: "t-", n: 3}
	want := photoDigests(rec)
	stored := make(map[string]upload.File)
	for k, v := range want {
		stored[k] = v
	}
	if good, problems := checkUploads(stored, want); good != 3 || len(problems) != 0 {
		t.Fatalf("intact upload: good=%d problems=%v", good, problems)
	}
	f := stored["t-IMG_0002.jpg"]
	f.SHA256 = strings.Repeat("0", 64)
	stored[f.Name] = f
	delete(stored, "t-IMG_0003.jpg")
	good, problems := checkUploads(stored, want)
	sort.Strings(problems)
	if good != 1 || len(problems) != 2 {
		t.Errorf("wrong digest and missing file: good=%d problems=%v", good, problems)
	}
}

func TestCheckDecisionsCatchesFlippedDecision(t *testing.T) {
	in, err := genPermitInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := in.batches[0]
	got := make([]permit.Response, len(reqs))
	for i, r := range reqs {
		got[i].Granted = in.util[r.Cell] < permitThreshold
	}
	if wrong := checkDecisions(reqs, got, in.util); wrong != 0 {
		t.Fatalf("correct decisions: %d wrong", wrong)
	}
	got[17].Granted = !got[17].Granted
	if wrong := checkDecisions(reqs, got, in.util); wrong != 1 {
		t.Errorf("one flipped decision: %d wrong", wrong)
	}
	if wrong := checkDecisions(reqs, got[:10], in.util); wrong != len(reqs) {
		t.Errorf("short batch: %d wrong, want all %d", wrong, len(reqs))
	}
}

// TestCheckReplayCatchesStateMismatch writes a shard WAL of two grants
// and a revoke, and checks that the replay check folds its records and
// flags a state hash the WAL does not replay to.
func TestCheckReplayCatchesStateMismatch(t *testing.T) {
	root := t.TempDir()
	l, st, _, err := wal.Open(permitplane.ShardWALDir(root, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		op     wal.Op
		device string
		expiry int64
	}{{wal.OpGrant, "dev-1", 100}, {wal.OpGrant, "dev-2", 100}, {wal.OpRevoke, "dev-1", 0}} {
		r, err := l.Append(op.op, op.device, "cell-001", 1, op.expiry)
		if err != nil {
			t.Fatal(err)
		}
		st.Apply(r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	status := []permitplane.ShardStatus{{Shard: 0, StateHash: permitplane.HashState(st)}}
	o := &outcome{}
	if folded := checkReplay(o, root, status, "live"); folded != 3 || len(o.problems) != 0 {
		t.Fatalf("matching state: folded %d records, problems %v; want 3 and none", folded, o.problems)
	}
	// The daemon's state without the revoke: dev-1 still granted.
	stale := wal.NewState()
	stale.Apply(wal.Record{Seq: 1, Op: wal.OpGrant, Device: "dev-1", Cell: "cell-001", At: 1, Expiry: 100})
	stale.Apply(wal.Record{Seq: 2, Op: wal.OpGrant, Device: "dev-2", Cell: "cell-001", At: 1, Expiry: 100})
	status[0].StateHash = permitplane.HashState(stale)
	if checkReplay(o, root, status, "live"); len(o.problems) != 1 {
		t.Errorf("state missing a revoke: problems %v, want one", o.problems)
	}
}

func TestFleetCheckersCatchBadReports(t *testing.T) {
	good := fleet.Report{Homes: 10, Viewers: 5, Sessions: 9, SpeedupP50: 1.5, BackhaulMbps: 3}
	if err := checkFleetReport(good, 1, 1); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := good
	bad.SpeedupP50 = 0.9
	if checkFleetReport(bad, 1, 1) == nil {
		t.Error("speedup below 1 accepted")
	}
	healthy := fleet.ChaosReport{Homes: 4, Items: 32, Delivered: 32}
	if err := checkChaosReport(healthy, 4); err != nil {
		t.Fatalf("healthy chaos report rejected: %v", err)
	}
	healthy.WasteBoundBreak = 1
	if checkChaosReport(healthy, 4) == nil {
		t.Error("waste-bound violation accepted")
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric
// tables and workloads the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, s, m)
		}
	}
	pl := perLayer()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(pl))
	}
	for i, m := range pl {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, s, m)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if len(selectWorkloads(w.Name)) != 1 {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestCompareGatesOnlyLikeHosts(t *testing.T) {
	write := func(name string, fp fingerprint, work float64) string {
		r := result{Workload: "vod", Fingerprint: fp, Metrics: map[string]float64{
			"setup_s": 1, "work_per_s": work, "cpu_us_per_work": 1, "op_p50_ms": 1,
		}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := fingerprint{NProc: 2, GOMAXPROCS: 2, CPU: "x", Go: "go1", Kernel: "k1", Seed: 1}
	other := host
	other.Kernel = "k2"
	base := write("base.json", host, 100)
	if code := compareMain([]string{base, write("same.json", host, 70)}); code != 1 {
		t.Errorf("30%% throughput loss on a like host: exit %d, want 1", code)
	}
	if code := compareMain([]string{base, write("other.json", other, 70)}); code != 0 {
		t.Errorf("30%% throughput loss on an unlike host: exit %d, want 0 (reported, not gated)", code)
	}
	if code := compareMain([]string{base, write("ok.json", host, 95)}); code != 0 {
		t.Errorf("5%% loss within the bound: exit %d, want 0", code)
	}
}
