package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
)

// replayBatches is how many pooled batches the nested replays take.
const replayBatches = 32

// permitLayers replays the first pooled batches through each layer of
// the permit path in process, nested from the HTTP handler down to the
// WAL append, each as a span per batch, and derives the per-layer
// figures. lat and late are the live batches' latencies and generator
// lateness at the reference rate.
func permitLayers(cfg runCfg, in *permitInputs, lat, late sample) (map[string]float64, error) {
	tr := cfg.tr
	ctx := context.Background()
	table := permitplane.NewUtilTable(0, true)
	for cell, u := range in.util {
		table.Set(cell, u)
	}
	planeCfg := func(dir string) permitplane.Config {
		return permitplane.Config{
			Shards: permitShards, Threshold: permitThreshold, TTL: permitTTL,
			Utilization: table.Get, WALDir: filepath.Join(cfg.scratch, dir),
		}
	}
	n := min(replayBatches, len(in.batches))
	expected := func(r permitplane.PermitRequest) bool { return in.util[r.Cell] < permitThreshold }

	// The batch codec: decode the request, encode the decisions.
	for b := 0; b < n; b++ {
		sp := tr.begin(eventlog.TraceContext{}, "permitplane.codec")
		var req permitplane.BatchRequest
		if err := json.Unmarshal(in.bodies[b], &req); err != nil {
			return nil, err
		}
		out := permitplane.BatchResponse{Decisions: make([]permit.Response, len(req.Requests))}
		for i, r := range req.Requests {
			out.Decisions[i] = permit.Response{Granted: expected(r), TTLSeconds: permitTTL.Seconds(), Utilization: in.util[r.Cell]}
		}
		if _, err := json.Marshal(out); err != nil {
			return nil, err
		}
		sp.End()
	}

	// The whole batch handler of a durable plane, without the network.
	served, err := permitplane.NewDurable(planeCfg("replay-serve"))
	if err != nil {
		return nil, err
	}
	for b := 0; b < n; b++ {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(in.bodies[b]))
		sp := tr.begin(eventlog.TraceContext{}, "permitplane.serve")
		served.ServeHTTP(rr, req)
		sp.End()
		var out permitplane.BatchResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil || rr.Code != http.StatusOK {
			served.Close()
			return nil, fmt.Errorf("in-process batch replay: status %d: %v", rr.Code, err)
		}
		if wrong := checkDecisions(in.batches[b], out.Decisions, in.util); wrong > 0 {
			served.Close()
			return nil, fmt.Errorf("in-process batch replay: %d wrong decisions", wrong)
		}
	}
	if err := served.Close(); err != nil {
		return nil, err
	}

	// One decision at a time: through a durable plane's router and
	// shard, then through a bare permit.Backend.
	plane, err := permitplane.NewDurable(planeCfg("replay-decide"))
	if err != nil {
		return nil, err
	}
	backend := &permit.Backend{Utilization: table.Get, Threshold: permitThreshold, TTL: permitTTL}
	for b := 0; b < n; b++ {
		sp := tr.begin(eventlog.TraceContext{}, "permitplane.decide")
		for _, r := range in.batches[b] {
			plane.DecideDevice(ctx, r.Device, r.Cell)
		}
		sp.End()
		sp = tr.begin(eventlog.TraceContext{}, "permit.decide")
		for _, r := range in.batches[b] {
			backend.Decide(ctx, r.Cell)
		}
		sp.End()
	}
	if err := plane.Close(); err != nil {
		return nil, err
	}

	// The grant store over its WAL, then the WAL alone.
	store, err := permitplane.OpenGrantStore(filepath.Join(cfg.scratch, "replay-store"), nil, nil, 0)
	if err != nil {
		return nil, err
	}
	seq0 := store.Seq()
	for b := 0; b < n; b++ {
		sp := tr.begin(eventlog.TraceContext{}, "permitplane.record")
		for _, r := range in.batches[b] {
			store.RecordDecision(r.Device, r.Cell, expected(r), permitTTL.Seconds())
		}
		sp.End()
	}
	records := float64(store.Seq() - seq0)
	sp := tr.begin(eventlog.TraceContext{}, "wal.snapshot")
	store.Snapshot()
	sp.End()
	if err := store.Close(); err != nil {
		return nil, err
	}
	log, _, _, err := wal.Open(filepath.Join(cfg.scratch, "replay-wal"), 0)
	if err != nil {
		return nil, err
	}
	now := wall.Now()
	for b := 0; b < n; b++ {
		sp := tr.begin(eventlog.TraceContext{}, "wal.append")
		for _, r := range in.batches[b] {
			op := wal.OpGrant
			if !expected(r) {
				op = wal.OpRevoke
			}
			if _, err := log.Append(op, r.Device, r.Cell, now.UnixNano(), now.Add(permitTTL).UnixNano()); err != nil {
				log.Close()
				return nil, err
			}
		}
		sp.End()
	}
	if err := log.Close(); err != nil {
		return nil, err
	}

	st := analyze(tr.events())
	perDecision := func(name string) float64 { return st.dur[name].median() / permitBatch * 1e6 }
	serveUS := perDecision("permitplane.serve")
	return map[string]float64{
		"loadgen.late_ms":                   tailOrMedian(late) * 1e3,
		"permitplane.codec_us_per_decision": perDecision("permitplane.codec"),
		"permitplane.serve_us_per_decision": serveUS,
		"http.overhead_us_per_decision":     lat.median()/permitBatch*1e6 - serveUS,
		"permitplane.decide_us":             perDecision("permitplane.decide"),
		"permit.decide_us":                  perDecision("permit.decide"),
		"permitplane.record_us":             perDecision("permitplane.record"),
		"wal.append_us":                     perDecision("wal.append"),
		"wal.records_per_decision":          ratio(records, float64(n*permitBatch)),
		"wal.snapshot_ms":                   st.dur["wal.snapshot"].median() * 1e3,
	}, nil
}

// tailOrMedian is the sample's tail percentile, or its median when it
// is too small to have one.
func tailOrMedian(s sample) float64 {
	if _, v, ok := s.tail(); ok {
		return v
	}
	return s.median()
}
